package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/cluster/faults"
	"repro/internal/multivec"
	"repro/internal/obs"
)

// Detected-fault observability: the transport counts what it sees on
// the wire — retransmissions, rejected checksums, discarded
// duplicates, expired deadlines, and node crashes. Together with the
// injector's faults_injected_total these form the two sides of the
// chaos ledger (injected vs detected/handled).
var (
	haloRetries         = obs.Default.Counter("cluster_halo_retries_total")
	haloTimeouts        = obs.Default.Counter("cluster_halo_timeouts_total")
	haloCorruptRejected = obs.Default.Counter("cluster_corrupt_rejected_total")
	haloDupDiscarded    = obs.Default.Counter("cluster_dup_discarded_total")
	nodeCrashes         = obs.Default.Counter("cluster_node_crashes_total")
	haloLost            = obs.Default.Counter("cluster_halo_lost_total")
)

// SetFaults arms the cluster's transport with a fault injector and a
// retry policy. With a nil injector halo payloads cross raw channels;
// with one armed, every halo message flows through the checksummed
// retry transport (Transport). Call before the first multiply; the
// injector may be shared across clusters (its crash rules are
// consumed globally).
func (c *Cluster) SetFaults(inj *faults.Injector, b Backoff) {
	c.inj = inj
	c.retry = b.WithDefaults()
}

// SetObserver registers fn to be called once per node per multiply,
// from that node's goroutine, with the wall time of its two strip
// products (solve) and of its blocking halo receive (haloWait; zero
// on a node with no halo). A node that crashes or whose receive fails
// reports nothing. Call before the first multiply; nil detaches.
func (c *Cluster) SetObserver(fn func(node int, solve, haloWait time.Duration)) { c.observe = fn }

// exchange is the distributed multiply: every node runs as a
// goroutine over a per-multiply chans[src][dst] mesh, so a failed
// attempt leaves no stale packets behind. The first error per node is
// collected and joined.
func (c *Cluster) exchange(y, x *multivec.MultiVec) error {
	// tp.Inj == nil is the healthy transport: one raw payload per
	// link, no sequence numbers, no checksums. Armed, the capacity
	// covers one packet per delivery attempt plus a tombstone, so
	// senders never block.
	tp := Transport{Inj: c.inj, Retry: c.retry}
	var seq int64
	chanCap := 1
	if tp.Inj != nil {
		seq = c.mulSeq.Add(1)
		chanCap = tp.ChanCap()
	}
	chans := make([][]chan Packet, c.p)
	for s := range chans {
		chans[s] = make([]chan Packet, c.p)
		for d := range chans[s] {
			chans[s][d] = make(chan Packet, chanCap)
		}
	}

	errs := make([]error, c.p)
	var wg sync.WaitGroup
	for _, nd := range c.nodes {
		wg.Add(1)
		go func(nd *node) {
			defer wg.Done()
			errs[nd.id] = c.runNode(nd, y, x, chans, tp, seq)
		}(nd)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runNode is one node's share of a multiply — the step of Section
// IV-C: gather owned rows, post halo sends, interior product while
// they fly, receive the halo, boundary product, scatter. The armed
// and healthy transports differ only at the send and the receive.
func (c *Cluster) runNode(nd *node, y, x *multivec.MultiVec, chans [][]chan Packet, tp Transport, seq int64) error {
	m := x.M
	rowsPerBlock := bcrs.BlockDim * m
	armed := tp.Inj != nil

	if armed {
		// A slow node stalls; a crashed one tombstones its peers — so
		// they fail fast instead of waiting out their receive
		// deadline — and reports itself dead.
		nth := c.nodeMuls[nd.id].Add(1)
		if d := tp.Inj.SlowDelay(nd.id); d > 0 {
			time.Sleep(d)
		}
		if tp.Inj.Crash(nd.id, nth) {
			nodeCrashes.Inc()
			for dst, rows := range nd.sendTo {
				if len(rows) > 0 {
					tp.SendTomb(chans[nd.id][dst], seq)
				}
			}
			return &faults.Error{
				Kind: faults.Crash, Node: nd.id, Src: -1, Dst: -1, Seq: seq,
				Msg: fmt.Sprintf("node %d crashed at its multiply %d", nd.id, nth),
			}
		}
	}

	// Gather owned rows of X into the local operand.
	xOwn := multivec.New(len(nd.owned)*bcrs.BlockDim, m)
	for l, g := range nd.owned {
		copy(xOwn.Data[l*rowsPerBlock:(l+1)*rowsPerBlock],
			x.Data[g*rowsPerBlock:(g+1)*rowsPerBlock])
	}

	// Post sends: pack the rows each destination needs.
	var sendErr error
	for dst, rows := range nd.sendTo {
		if len(rows) == 0 {
			continue
		}
		buf := make([]float64, len(rows)*rowsPerBlock)
		for bi, l := range rows {
			copy(buf[bi*rowsPerBlock:(bi+1)*rowsPerBlock],
				xOwn.Data[l*rowsPerBlock:(l+1)*rowsPerBlock])
		}
		if !armed {
			chans[nd.id][dst] <- Packet{Data: buf}
		} else if err := tp.Send(chans[nd.id][dst], nd.id, dst, seq, buf); err != nil && sendErr == nil {
			sendErr = err // keep going: peers still need our other messages
		}
	}

	// Interior product overlaps with the in-flight messages.
	t0 := time.Now()
	yLoc := multivec.New(len(nd.owned)*bcrs.BlockDim, m)
	nd.interior.Mul(yLoc, xOwn)
	solve := time.Since(t0)

	// Receive the halo and apply the boundary strip.
	var haloWait time.Duration
	if nd.boundary != nil {
		xHalo := multivec.New(len(nd.halo)*bcrs.BlockDim, m)
		t0 = time.Now()
		for src, r := range nd.recvFrom {
			if r[0] == r[1] {
				continue
			}
			var buf []float64
			if !armed {
				buf = (<-chans[src][nd.id]).Data
			} else {
				var err error
				buf, err = tp.Recv(chans[src][nd.id], nd.id, src, seq, (r[1]-r[0])*rowsPerBlock)
				if err != nil {
					if sendErr != nil {
						return sendErr
					}
					return err
				}
			}
			copy(xHalo.Data[r[0]*rowsPerBlock:r[1]*rowsPerBlock], buf)
		}
		haloWait = time.Since(t0)

		t0 = time.Now()
		yB := multivec.New(len(nd.owned)*bcrs.BlockDim, m)
		nd.boundary.Mul(yB, xHalo)
		blas.Add(yLoc.Data, yLoc.Data, yB.Data)
		solve += time.Since(t0)
	}
	if c.observe != nil {
		c.observe(nd.id, solve, haloWait)
	}
	if sendErr != nil {
		return sendErr // a send was lost; don't publish a result for this multiply
	}

	// Scatter into the global result; rows are disjoint across nodes,
	// so no locking is needed.
	for l, g := range nd.owned {
		copy(y.Data[g*rowsPerBlock:(g+1)*rowsPerBlock],
			yLoc.Data[l*rowsPerBlock:(l+1)*rowsPerBlock])
	}
	return nil
}
