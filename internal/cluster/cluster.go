package cluster

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/bcrs"
	"repro/internal/cluster/faults"
	"repro/internal/model"
	"repro/internal/multivec"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// Halo-exchange observability: every distributed multiply reports the
// message count and payload volume of its communication pattern (from
// the partitioning's CommStats — the same numbers a real MPI run
// would put on the wire) into obs.Default, alongside per-multiply
// call counters. These are the Table III communication quantities as
// running totals.
var (
	clusterMuls     = obs.Default.Counter("cluster_mul_calls_total")
	clusterMessages = obs.Default.Counter("cluster_messages_total")
	clusterBytes    = obs.Default.Counter("cluster_payload_bytes_total")
	clusterHaloRows = obs.Default.Counter("cluster_halo_block_rows_total")
)

// Cluster is a matrix distributed over p simulated nodes.
type Cluster struct {
	p     int
	nbG   int // global block rows
	part  []int
	nodes []*node
	stats partition.CommStats

	// Fault-tolerance state (see SetFaults): a nil injector selects
	// the lean healthy transport.
	inj      *faults.Injector
	retry    Backoff
	mulSeq   atomic.Int64   // sequence number per faulty multiply
	nodeMuls []atomic.Int64 // per-node multiply counter (crash schedule)

	observe func(node int, solve, haloWait time.Duration) // see SetObserver
}

// node holds one row strip and its communication plan.
type node struct {
	id    int
	owned []int // global block rows owned, ascending

	// Local column space of the boundary matrix: halo rows only,
	// ordered by (source node, global row).
	halo []int

	interior *bcrs.Matrix // owned rows x owned cols (local indices)
	boundary *bcrs.Matrix // owned rows x halo cols; nil if no halo

	// sendTo[dst] lists local owned-row indices to ship to dst.
	sendTo [][]int
	// recvFrom[src] gives the half-open range [lo, hi) of halo slots
	// filled by src's message.
	recvFrom [][2]int
}

// New partitions the square matrix a across p nodes according to
// part (len a.NB(), values in [0, p)) and builds each node's local
// matrices and communication plan.
func New(a *bcrs.Matrix, part []int, p int) (*Cluster, error) {
	if a.NB() != a.NCB() {
		return nil, fmt.Errorf("cluster: matrix must be square")
	}
	if len(part) != a.NB() {
		return nil, fmt.Errorf("cluster: part has %d entries for %d block rows", len(part), a.NB())
	}
	if p < 1 {
		return nil, fmt.Errorf("cluster: p must be >= 1")
	}
	c := &Cluster{p: p, nbG: a.NB(), part: append([]int(nil), part...), retry: Backoff{}.WithDefaults()}

	owned := make([][]int, p)
	for i, pt := range part {
		if pt < 0 || pt >= p {
			return nil, fmt.Errorf("cluster: row %d assigned to invalid node %d", i, pt)
		}
		owned[pt] = append(owned[pt], i)
	}

	// localRow[g] is the owned-row index of global row g on its
	// owner.
	localRow := make([]int, a.NB())
	for _, rows := range owned {
		for l, g := range rows {
			localRow[g] = l
		}
	}

	c.nodes = make([]*node, p)
	for id := 0; id < p; id++ {
		nd := &node{id: id, owned: owned[id]}

		// Discover halo rows: remote block columns referenced by any
		// owned row, grouped by source node then global row so that
		// each incoming message lands in one contiguous halo range.
		seen := make(map[int]bool)
		var halo []int
		for _, g := range nd.owned {
			lo, hi := a.RowBlocks(g)
			for k := lo; k < hi; k++ {
				j := a.BlockCol(k)
				if part[j] != id && !seen[j] {
					seen[j] = true
					halo = append(halo, j)
				}
			}
		}
		sort.Slice(halo, func(x, y int) bool {
			if part[halo[x]] != part[halo[y]] {
				return part[halo[x]] < part[halo[y]]
			}
			return halo[x] < halo[y]
		})
		nd.halo = halo

		haloSlot := make(map[int]int, len(halo))
		for s, g := range halo {
			haloSlot[g] = s
		}
		nd.recvFrom = make([][2]int, p)
		for s := 0; s < len(halo); {
			src := part[halo[s]]
			e := s
			for e < len(halo) && part[halo[e]] == src {
				e++
			}
			nd.recvFrom[src] = [2]int{s, e}
			s = e
		}

		// Build interior (owned columns) and boundary (halo columns)
		// strips.
		bi := bcrs.NewBuilderRect(len(nd.owned), len(nd.owned))
		var bb *bcrs.Builder
		if len(halo) > 0 {
			bb = bcrs.NewBuilderRect(len(nd.owned), len(halo))
		}
		for l, g := range nd.owned {
			lo, hi := a.RowBlocks(g)
			for k := lo; k < hi; k++ {
				j := a.BlockCol(k)
				if part[j] == id {
					bi.AddBlock(l, localRow[j], a.BlockAt(k))
				} else {
					bb.AddBlock(l, haloSlot[j], a.BlockAt(k))
				}
			}
		}
		nd.interior = bi.Build()
		if bb != nil {
			nd.boundary = bb.Build()
		}
		c.nodes[id] = nd
	}

	// Build send lists from the halo lists: src ships to dst exactly
	// the rows in dst's halo that src owns, in dst's halo order (so a
	// single packed message fills a contiguous range).
	for _, dst := range c.nodes {
		for src := 0; src < p; src++ {
			r := dst.recvFrom[src]
			if r[0] == r[1] {
				continue
			}
			rows := make([]int, 0, r[1]-r[0])
			for s := r[0]; s < r[1]; s++ {
				rows = append(rows, localRow[dst.halo[s]])
			}
			if c.nodes[src].sendTo == nil {
				c.nodes[src].sendTo = make([][]int, p)
			}
			c.nodes[src].sendTo[dst.id] = rows
		}
	}

	res := &partition.Result{Part: c.part, P: p, NNZPerPart: make([]int64, p)}
	for id, nd := range c.nodes {
		res.NNZPerPart[id] = int64(nd.nnzb())
	}
	c.stats = partition.Analyze(a, res)
	c.nodeMuls = make([]atomic.Int64, p)
	return c, nil
}

func (nd *node) nnzb() int {
	n := nd.interior.NNZB()
	if nd.boundary != nil {
		n += nd.boundary.NNZB()
	}
	return n
}

// P returns the node count.
func (c *Cluster) P() int { return c.p }

// SetThreads divides a host-wide kernel-thread budget across the
// cluster's nodes: each node's local matrices get
// parallel.ShardBudget(t, p) threads, so p concurrently-running node
// goroutines never oversubscribe the shared worker pool (p nodes each
// running the full budget would contend for the same cores). t is the
// total budget, not a per-node count — the same convention the shard
// fleet and sd.DistOptions.Threads use, so one -threads flag bounds
// the whole process no matter how the operator is split.
func (c *Cluster) SetThreads(t int) {
	per := parallel.ShardBudget(t, c.p)
	for _, nd := range c.nodes {
		nd.interior.SetThreads(per)
		if nd.boundary != nil {
			nd.boundary.SetThreads(per)
		}
	}
}

// N returns the global scalar dimension. Together with MulVec and Mul
// it lets the cluster stand in for a matrix wherever the solvers
// accept an operator, so the same CG/block-CG code runs distributed —
// the distributed-memory groundwork the paper defers (Section V-A).
func (c *Cluster) N() int { return c.nbG * bcrs.BlockDim }

// MulVec runs the distributed multiply on a single vector.
func (c *Cluster) MulVec(y, x []float64) {
	c.Mul(multivec.FromVector(y), multivec.FromVector(x))
}

// CommStats returns the communication statistics of the partitioning.
func (c *Cluster) CommStats() partition.CommStats { return c.stats }

// NodeShape returns the local matrix shape of node id, as the timing
// model sees it.
func (c *Cluster) NodeShape(id int) model.Shape {
	nd := c.nodes[id]
	return model.Shape{NB: len(nd.owned), NNZB: nd.nnzb()}
}

// HaloRows returns the number of remote block rows node id receives
// per multiply — the column count of its boundary strip.
func (c *Cluster) HaloRows(id int) int { return len(c.nodes[id].halo) }

// Mul executes the distributed multiply Y = A*X functionally. X and Y
// are global multivectors (a.N() rows). Every node runs as a
// goroutine: it posts its halo sends, computes its interior product
// while the messages are in flight, then receives the halo and
// applies the boundary strip — the computation/communication overlap
// of Section IV-A2.
//
// Mul is the solver-facing BlockOperator surface and has no error
// return; when the fault-tolerant transport (SetFaults) exhausts its
// retry budget or a node crashes, Mul panics with the *faults.Error
// so the failure unwinds to the core step boundary, where the
// recovery machinery converts it back into an error and replays from
// the last checkpoint. Callers that want the error directly (and no
// panic) use TryMul.
func (c *Cluster) Mul(y, x *multivec.MultiVec) {
	if err := c.TryMul(y, x); err != nil {
		panic(err)
	}
}

// TryMul is Mul with the fault domain surfaced as an error: a node
// crash or an undeliverable halo message returns a *faults.Error
// (possibly joining several nodes' failures) instead of panicking.
// On a healthy cluster (no SetFaults) it never fails.
func (c *Cluster) TryMul(y, x *multivec.MultiVec) error {
	if x.N != c.nbG*bcrs.BlockDim || y.N != x.N || y.M != x.M {
		panic("cluster: Mul dimension mismatch")
	}
	m := x.M
	clusterMuls.Inc()
	clusterMessages.Add(c.stats.Messages)
	clusterBytes.Add(c.stats.VolumeBytes(m))
	clusterHaloRows.Add(c.stats.RemoteBlockRows)
	return c.exchange(y, x)
}
