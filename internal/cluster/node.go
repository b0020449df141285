package cluster

import (
	"fmt"
	"math"
)

// NodeSpec configures one cluster node. Zero bandwidth fields mean
// unlimited.
type NodeSpec struct {
	// DiskReadBW and DiskWriteBW cap local storage throughput in
	// bytes/second. The paper's Fig. 11 caps datanode reads at 300 Mbps.
	DiskReadBW  float64
	DiskWriteBW float64
	// NetInBW and NetOutBW cap the node's NIC directions in bytes/second.
	NetInBW  float64
	NetOutBW float64
	// Slots is the number of concurrent compute tasks (default 1).
	Slots int
	// ComputeBW is the rate at which a task processes bytes of CPU work,
	// in bytes/second (default unlimited; used by Compute).
	ComputeBW float64
}

// Node is a simulated machine with disk, NIC, and compute slots.
type Node struct {
	ID        int
	Name      string
	diskRead  *Resource
	diskWrite *Resource
	netIn     *Resource
	netOut    *Resource
	Slots     *SlotPool
	computeBW float64
}

// Cluster is a set of nodes in one simulation.
type Cluster struct {
	sim   *Sim
	nodes []*Node
}

// NewCluster creates count nodes with the same spec.
func NewCluster(sim *Sim, count int, spec NodeSpec) *Cluster {
	c := &Cluster{sim: sim}
	for i := 0; i < count; i++ {
		c.nodes = append(c.nodes, newNode(sim, i, fmt.Sprintf("node%d", i), spec))
	}
	return c
}

// AddNode appends a node with its own spec (e.g. a client machine) and
// returns it.
func (c *Cluster) AddNode(name string, spec NodeSpec) *Node {
	n := newNode(c.sim, len(c.nodes), name, spec)
	c.nodes = append(c.nodes, n)
	return n
}

func newNode(sim *Sim, id int, name string, spec NodeSpec) *Node {
	cap := func(v float64) float64 {
		if v <= 0 {
			return math.Inf(1)
		}
		return v
	}
	slots := spec.Slots
	if slots <= 0 {
		slots = 1
	}
	return &Node{
		ID:        id,
		Name:      name,
		diskRead:  sim.NewResource(name+"/disk-read", cap(spec.DiskReadBW)),
		diskWrite: sim.NewResource(name+"/disk-write", cap(spec.DiskWriteBW)),
		netIn:     sim.NewResource(name+"/net-in", cap(spec.NetInBW)),
		netOut:    sim.NewResource(name+"/net-out", cap(spec.NetOutBW)),
		Slots:     sim.NewSlotPool(slots),
		computeBW: cap(spec.ComputeBW),
	}
}

// Sim returns the owning simulation.
func (c *Cluster) Sim() *Sim { return c.sim }

// Nodes returns the node list (shared slice; do not modify).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns the node with the given ID.
func (c *Cluster) Node(id int) *Node { return c.nodes[id] }

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// ReadLocal streams bytes from the node's local disk.
func (n *Node) ReadLocal(p *Proc, bytes float64) {
	p.Transfer(bytes, n.diskRead)
}

// WriteLocal streams bytes to the node's local disk.
func (n *Node) WriteLocal(p *Proc, bytes float64) {
	p.Transfer(bytes, n.diskWrite)
}

// ReadRemote streams bytes from src's disk over the network into the
// calling process's node dst (not touching dst's disk).
func ReadRemote(p *Proc, src, dst *Node, bytes float64) {
	if src == dst {
		src.ReadLocal(p, bytes)
		return
	}
	p.Transfer(bytes, src.diskRead, src.netOut, dst.netIn)
}

// SendRemote streams in-memory bytes from src to dst (no disk on either
// side), e.g. a MapReduce shuffle whose spill fits in page cache.
func SendRemote(p *Proc, src, dst *Node, bytes float64) {
	if src == dst {
		return
	}
	p.Transfer(bytes, src.netOut, dst.netIn)
}

// Compute occupies one slot on the node while processing the given number
// of bytes of CPU work at the node's compute bandwidth, plus a fixed
// overhead in seconds (task startup, JVM launch, and similar constants the
// paper's task times include).
func (n *Node) Compute(p *Proc, bytes, overheadSeconds float64) {
	n.Slots.Acquire(p)
	defer n.Slots.Release()
	d := overheadSeconds
	if !math.IsInf(n.computeBW, 1) && bytes > 0 {
		d += bytes / n.computeBW
	}
	p.Sleep(d)
}

// ComputeDuration returns the seconds of CPU time that processing the
// given bytes takes on this node, for callers that already hold a slot and
// charge the time with Sleep.
func (n *Node) ComputeDuration(bytes float64) float64 {
	if math.IsInf(n.computeBW, 1) || bytes <= 0 {
		return 0
	}
	return bytes / n.computeBW
}

// DiskRead returns the disk-read resource, for custom flow compositions.
func (n *Node) DiskRead() *Resource { return n.diskRead }

// DiskWrite returns the disk-write resource.
func (n *Node) DiskWrite() *Resource { return n.diskWrite }

// NetIn returns the ingress NIC resource.
func (n *Node) NetIn() *Resource { return n.netIn }

// NetOut returns the egress NIC resource.
func (n *Node) NetOut() *Resource { return n.netOut }
