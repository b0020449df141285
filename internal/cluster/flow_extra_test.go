package cluster

import (
	"math"
	"testing"
)

func TestThreeStageFlowBottleneck(t *testing.T) {
	// Remote read through disk (40), egress (100), ingress (60): the disk
	// is the bottleneck.
	s := NewSim()
	disk := s.NewResource("disk", 40)
	egress := s.NewResource("egress", 100)
	ingress := s.NewResource("ingress", 60)
	var done float64
	s.Go("f", func(p *Proc) {
		p.Transfer(400, disk, egress, ingress)
		done = p.Now()
	})
	s.Run()
	almost(t, done, 10, 1e-9, "three-stage transfer")
}

func TestManyFlowsConvergeOnSharedStage(t *testing.T) {
	// Ten flows from ten disks (cap 100 each) into one 250-capacity sink:
	// each gets 25; each moves 250 bytes in 10 s.
	s := NewSim()
	sink := s.NewResource("sink", 250)
	finish := make([]float64, 10)
	for i := 0; i < 10; i++ {
		i := i
		disk := s.NewResource("disk", 100)
		s.Go("f", func(p *Proc) {
			p.Transfer(250, disk, sink)
			finish[i] = p.Now()
		})
	}
	s.Run()
	for i, f := range finish {
		almost(t, f, 10, 1e-6, "flow finish "+string(rune('0'+i)))
	}
}

func TestUnconstrainedFlowsCompleteInstantly(t *testing.T) {
	s := NewSim()
	inf := s.NewResource("inf", math.Inf(1))
	var done float64
	s.Go("f", func(p *Proc) {
		p.Transfer(1e12, inf)
		done = p.Now()
	})
	s.Run()
	almost(t, done, 0, 1e-9, "infinite-capacity transfer")
}

func TestNegativeTransferPanics(t *testing.T) {
	s := NewSim()
	r := s.NewResource("r", 10)
	panicked := make(chan bool, 1)
	s.Go("f", func(p *Proc) {
		defer func() { panicked <- recover() != nil }()
		p.Transfer(-5, r)
	})
	s.Run()
	select {
	case ok := <-panicked:
		if !ok {
			t.Fatal("negative transfer did not panic")
		}
	default:
		t.Fatal("process never ran")
	}
}

func TestResourceValidation(t *testing.T) {
	s := NewSim()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-capacity resource did not panic")
		}
	}()
	s.NewResource("bad", 0)
}

func TestSlotPoolValidation(t *testing.T) {
	s := NewSim()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-slot pool did not panic")
		}
	}()
	s.NewSlotPool(0)
}

func TestStaggeredSlotHandoff(t *testing.T) {
	// A releasing task hands its slot to the queue head without the count
	// ever exceeding the pool size.
	s := NewSim()
	pool := s.NewSlotPool(1)
	var maxInUse int
	observe := func() {
		if pool.InUse() > maxInUse {
			maxInUse = pool.InUse()
		}
	}
	for i := 0; i < 3; i++ {
		s.Go("t", func(p *Proc) {
			pool.Acquire(p)
			observe()
			p.Sleep(1)
			pool.Release()
		})
	}
	s.Run()
	if maxInUse > 1 {
		t.Fatalf("pool exceeded capacity: %d", maxInUse)
	}
	almost(t, s.Now(), 3, 1e-9, "serialized completion")
}

func TestSelfNodeTransferUsesDiskOnly(t *testing.T) {
	s := NewSim()
	c := NewCluster(s, 1, NodeSpec{DiskReadBW: 100, NetOutBW: 1, NetInBW: 1})
	var done float64
	s.Go("local", func(p *Proc) {
		// Same src and dst: must not touch the (tiny) NIC caps.
		ReadRemote(p, c.Node(0), c.Node(0), 1000)
		done = p.Now()
	})
	s.Run()
	almost(t, done, 10, 1e-9, "local read")
}

func TestComputeDuration(t *testing.T) {
	s := NewSim()
	c := NewCluster(s, 1, NodeSpec{ComputeBW: 50})
	if got := c.Node(0).ComputeDuration(100); got != 2 {
		t.Fatalf("ComputeDuration = %g, want 2", got)
	}
	cInf := NewCluster(s, 1, NodeSpec{})
	if got := cInf.Node(0).ComputeDuration(100); got != 0 {
		t.Fatalf("unlimited ComputeDuration = %g, want 0", got)
	}
}
