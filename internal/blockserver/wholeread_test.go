package blockserver

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"carousel/internal/carousel"
	"carousel/internal/faultnet"
)

// nextPlan is the plan the store's next read batch of one stripe starts
// from while nothing is known bad.
func nextPlan(s *Store) *carousel.ReadPlan {
	if s.whole == nil {
		return s.healthy
	}
	return s.whole[s.wholeTurn.Load()%uint32(len(s.whole))]
}

// TestOneStripeReadTakesKWholeBlocks counts, at the servers, what a
// healthy read batch of one stripe costs below wholeBelow: exactly k range
// exchanges, each of one whole block from a distinct data-bearing server,
// the stripe's bytes fetched and nothing more; over p consecutive reads
// every data-bearing server answers exactly k of them and no spare any.
// At blocks whose prefixes reach wholeBelow the store keeps the p-source
// plan alone, and such a read makes p exchanges.
func TestOneStripeReadTakesKWholeBlocks(t *testing.T) {
	pc := newPlannedCluster(t, 12, 6, 10, 10, 1)
	k, p, bs := pc.code.K(), pc.code.P(), int64(pc.blockSize)
	if pc.store.whole == nil {
		t.Fatalf("%d-byte blocks (prefixes of %d) have no whole plans", bs, pc.store.healthy.BytesPerSource)
	}
	whole0 := mStripesWhole.Value()
	answered := make([]int64, len(pc.servers))
	for r := range p {
		exchanges0 := servedExchanges(opRange)
		stats, sent := pc.read(t)
		if got := servedExchanges(opRange) - exchanges0; got != int64(k) {
			t.Errorf("read %d made %d range exchanges, want k = %d", r, got, k)
		}
		if stats.BytesFetched != int64(len(pc.data)) || stats.StripesWhole != 1 || stats.StripesParallel != 0 || stats.StripesFallback != 0 {
			t.Errorf("read %d: %+v, want the stripe's %d bytes read whole", r, *stats, len(pc.data))
		}
		if stats.Path() != "whole" {
			t.Errorf("read %d took the %s path, want whole", r, stats.Path())
		}
		sources := 0
		for i, b := range sent {
			switch b {
			case 0:
			case bs:
				sources++
				answered[i]++
			default:
				t.Errorf("read %d: server %d sent %d bytes, want 0 or one whole block of %d", r, i, b, bs)
			}
		}
		if sources != k {
			t.Errorf("read %d: %d servers sent a block, want k = %d", r, sources, k)
		}
	}
	for i, n := range answered {
		if want := int64(k) * b2i(i < p); n != want {
			t.Errorf("over %d reads server %d answered %d, want %d", p, i, n, want)
		}
	}
	if d := mStripesWhole.Value() - whole0; d != int64(p) {
		t.Errorf("store_whole_stripes_total moved by %d over %d whole reads", d, p)
	}

	// The smallest aligned block whose prefixes reach wholeBelow, and the
	// block one unit of alignment below it.
	align := pc.code.BlockAlign()
	at := (wholeBelow*p/k + align - 1) / align * align
	for at*k/p < wholeBelow {
		at += align
	}
	below, err := NewStore(pc.code, pc.addrs, at-align)
	if err != nil {
		t.Fatal(err)
	}
	defer below.Close()
	if below.whole == nil {
		t.Errorf("%d-byte blocks (prefixes of %d) have no whole plans", at-align, below.healthy.BytesPerSource)
	}
	store, err := NewStore(pc.code, pc.addrs, at)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.whole != nil {
		t.Fatalf("%d-byte blocks (prefixes of %d) have whole plans", at, store.healthy.BytesPerSource)
	}
	data := make([]byte, k*at)
	rand.New(rand.NewSource(62)).Read(data)
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "big", data); err != nil {
		t.Fatal(err)
	}
	exchanges0 := servedExchanges(opRange)
	got, stats, err := store.ReadFile(ctx, "big", len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read of one large stripe: err %v, identical %v", err, bytes.Equal(got, data))
	}
	if n := servedExchanges(opRange) - exchanges0; n != int64(p) || stats.StripesParallel != 1 {
		t.Errorf("a one-stripe read of %d-byte blocks made %d range exchanges (%+v), want p = %d from the healthy plan", at, n, *stats, p)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestWholePlanReplansAroundAFault: a source of a one-stripe read's whole
// plan that is closed, black-holed or serving a corrupt block costs the
// stripe a re-plan — PlanRead around the struck block, as for any plan —
// and the read is byte-identical. The other k-1 sources are asked once:
// their whole blocks landed and are kept. A corrupt block gets its corrupt
// verdict, and a live server is not presumed down.
func TestWholePlanReplansAroundAFault(t *testing.T) {
	for _, fault := range []string{"closed", "blackholed", "corrupt"} {
		t.Run(fault, func(t *testing.T) {
			pc := newPlannedCluster(t, 12, 6, 10, 10, 1, WithHedgeDelay(40*time.Millisecond))
			bs := int64(pc.blockSize)
			plan := nextPlan(pc.store)
			if len(plan.Direct) != pc.code.K() {
				t.Fatalf("the next one-stripe read plans on %v, want k whole blocks", plan.Direct)
			}
			victim := plan.Direct[2]
			switch fault {
			case "closed":
				pc.servers[victim].Close()
			case "blackholed":
				pc.injectors[victim].SetDefault(faultnet.Policy{Blackhole: true})
				t.Cleanup(func() { pc.injectors[victim].SetDefault(faultnet.Policy{}) })
			case "corrupt":
				if err := pc.servers[victim].CorruptBlock(BlockName("f", 0, victim), 5); err != nil {
					t.Fatal(err)
				}
			}
			stats, sent := pc.read(t)
			if stats.StripesFallback != 1 || stats.StripesWhole != 0 || stats.StripesParallel != 0 {
				t.Errorf("read: %+v, want the stripe re-planned around server %d", *stats, victim)
			}
			if want := b2i(fault == "corrupt"); int64(stats.CorruptSources) != want {
				t.Errorf("%d corrupt verdicts, want %d", stats.CorruptSources, want)
			}
			for _, b := range plan.Direct {
				if b != victim && sent[b] != bs {
					t.Errorf("server %d of the whole plan sent %d bytes, want its one block of %d: a landed block was fetched again", b, sent[b], bs)
				}
			}
			if fault == "closed" && sent[victim] != 0 { // a black hole swallows what its server sends
				t.Errorf("the closed server sent %d bytes", sent[victim])
			}
			if fault == "corrupt" && pc.store.pool.anyDown() {
				t.Error("a live server serving a corrupt block is presumed down")
			}
		})
	}
}

// TestPatchSourceIsAskedOnce: a patch plan that reads a block's data
// prefix and the parity range right after it asks that source once, for
// both, so a planned read with one source of p = n down makes one range
// exchange per source the plan reads — and the same bytes from each.
func TestPatchSourceIsAskedOnce(t *testing.T) {
	const stripes, down = 4, 3
	pc := newPlannedCluster(t, 12, 6, 10, 12, stripes)
	pc.servers[down].Close()
	pc.read(t) // the discovering read: the pool presumes the server down
	avail := make([]bool, pc.code.N())
	for i := range avail {
		avail[i] = i != down
	}
	plan, err := pc.code.PlanRead(avail, pc.blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != "patch" || len(plan.Ranges) == 0 {
		t.Fatalf("the plan around server %d is %q with ranges %v, want a patch", down, plan.Mode, plan.Ranges)
	}
	exchanges0 := servedExchanges(opRange)
	stats, sent := pc.read(t)
	if got, want := servedExchanges(opRange)-exchanges0, int64(plan.Parallelism()); got != want {
		t.Errorf("the planned patch read made %d range exchanges, want one per source = %d", got, want)
	}
	want := pc.planBytes(t, down)
	for i := range sent {
		if sent[i] != want[i] {
			t.Errorf("server %d sent %d bytes, PlanRead says %d", i, sent[i], want[i])
		}
	}
	if stats.StripesFallback != stripes || stats.BytesFetched != int64(len(pc.data)) {
		t.Errorf("planned patch read: %+v, want %d stripes re-planned and the file's %d bytes", *stats, stripes, len(pc.data))
	}
}

// BenchmarkOneStripeRead times uncached reads of one-stripe files at
// (12,6,10,10) over block sizes around the crossover, each from the
// p-source plan and from the k-source plans, with GOMAXPROCS readers at
// once (b.RunParallel), as the benchmark's swarm runs one client per
// core. wholeBelow is set from where the k-source plan stops winning:
//
//	go test -run '^$' -bench OneStripeRead -cpu 1 ./internal/blockserver
//
// and again with -cpu 2, one process per value (EXPERIMENTS.md, "A small
// stripe reads k whole blocks").
func BenchmarkOneStripeRead(b *testing.B) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]string, code.N())
	for i := range addrs {
		srv := NewServer(code)
		if addrs[i], err = srv.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
	}
	const objects = 64
	ctx := context.Background()
	for _, bs := range []int{4095, 8190, 16380, 27300, 43680, 65520, 109200, 163800} {
		store, err := NewStore(code, addrs, bs)
		if err != nil {
			b.Fatal(err)
		}
		whole, err := wholePlans(code, bs)
		if err != nil {
			b.Fatal(err)
		}
		stripe := code.K() * bs
		data := make([]byte, stripe)
		names := make([]string, objects)
		for o := range names {
			names[o] = fmt.Sprintf("b%d/o%d", bs, o)
			rand.New(rand.NewSource(int64(o))).Read(data)
			if _, err := store.WriteFile(ctx, names[o], data); err != nil {
				b.Fatal(err)
			}
		}
		for _, plan := range []struct {
			name  string
			whole []*carousel.ReadPlan
		}{{"p", nil}, {"k", whole}} {
			store.whole = plan.whole
			b.Run(fmt.Sprintf("prefix=%d/%s", store.healthy.BytesPerSource, plan.name), func(b *testing.B) {
				var next atomic.Int64
				b.SetBytes(int64(stripe))
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						name := names[next.Add(1)%objects]
						if _, _, err := store.ReadFile(ctx, name, stripe); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
		store.Close()
	}
}
