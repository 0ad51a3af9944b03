// Package partition assigns the block rows of a sparse matrix to
// compute nodes for distributed GSPMV.
//
// The primary scheme is the paper's coordinate-based row partitioning
// (Section IV-A2): particles are binned on a 3D grid, the bins are
// walked in a locality-preserving order, and consecutive bins are
// grouped into partitions with approximately equal non-zero counts.
// The paper found this inexpensive scheme comparable to METIS in both
// load balance and communication volume for SD matrices, whose
// interaction structure is geometrically local.
//
// RCB (rcb.go) is the scheme every distributed run uses; without
// positions it cuts nnz-balanced contiguous row strips.
package partition

import (
	"fmt"
	"sort"

	"repro/internal/bcrs"
	"repro/internal/blas"
)

// Result maps each block row to a partition.
type Result struct {
	// Part[i] is the partition (node) that owns block row i.
	Part []int
	// P is the number of partitions.
	P int
	// NNZPerPart[p] is the number of stored blocks in the rows owned
	// by partition p.
	NNZPerPart []int64
}

// Imbalance returns max/mean of the per-partition non-zero counts; 1
// is perfect balance.
func (r *Result) Imbalance() float64 {
	var max, sum int64
	for _, v := range r.NNZPerPart {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(r.P)
	return float64(max) / mean
}

// rowNNZ extracts the per-block-row stored-block counts.
func rowNNZ(a *bcrs.Matrix) []int64 {
	nnz := make([]int64, a.NB())
	for i := 0; i < a.NB(); i++ {
		lo, hi := a.RowBlocks(i)
		nnz[i] = int64(hi - lo)
	}
	return nnz
}

// assignOrdered walks the block rows in the given order and cuts the
// sequence into p contiguous chunks of approximately equal nnz.
func assignOrdered(order []int, nnz []int64, p int) *Result {
	nb := len(order)
	var total int64
	for _, v := range nnz {
		total += v
	}
	res := &Result{Part: make([]int, nb), P: p, NNZPerPart: make([]int64, p)}
	node := 0
	var acc int64
	for idx, row := range order {
		// Target boundary for node: (node+1)/p of the total.
		if node < p-1 && acc >= total*int64(node+1)/int64(p) && nb-idx >= p-node {
			node++
		}
		res.Part[row] = node
		res.NNZPerPart[node] += nnz[row]
		acc += nnz[row]
	}
	return res
}

// Coordinate implements the paper's coordinate-based partitioning.
// pos[i] is the position of the particle whose velocity block is
// block row i; box is the periodic box edge length. Rows are binned
// on a grid of g^3 cells (g chosen from p if g <= 0), the cells are
// traversed in a boustrophedon (serpentine) order that keeps
// consecutive cells adjacent, and the resulting row order is cut into
// p nnz-balanced chunks. No run uses it: it is the serpentine reference
// TestRCBCutsCommVersusSerpentine measures RCB against.
func Coordinate(a *bcrs.Matrix, pos []blas.Vec3, box float64, p, g int) *Result {
	if p < 1 {
		panic("partition: p must be >= 1")
	}
	if len(pos) != a.NB() {
		panic(fmt.Sprintf("partition: %d positions for %d block rows", len(pos), a.NB()))
	}
	if box <= 0 {
		panic("partition: box must be positive")
	}
	if g <= 0 {
		// Enough cells for ~8 cells per partition, at least 2 per
		// axis but never more than ~64k cells.
		g = 2
		for g*g*g < 8*p && g < 40 {
			g++
		}
	}
	// Bin rows into cells.
	cell := func(v blas.Vec3) (int, int, int) {
		ix := clampCell(v[0], box, g)
		iy := clampCell(v[1], box, g)
		iz := clampCell(v[2], box, g)
		return ix, iy, iz
	}
	bins := make([][]int, g*g*g)
	for i, v := range pos {
		ix, iy, iz := cell(v)
		id := (ix*g+iy)*g + iz
		bins[id] = append(bins[id], i)
	}
	// Serpentine traversal: x ascending; y alternating by x; z
	// alternating by (x,y). Consecutive cells share a face, so the
	// chunk cuts fall on geometrically compact regions.
	order := make([]int, 0, len(pos))
	for ix := 0; ix < g; ix++ {
		for yy := 0; yy < g; yy++ {
			iy := yy
			if ix%2 == 1 {
				iy = g - 1 - yy
			}
			for zz := 0; zz < g; zz++ {
				iz := zz
				if (ix+yy)%2 == 1 {
					iz = g - 1 - zz
				}
				id := (ix*g+iy)*g + iz
				rows := bins[id]
				// Deterministic order within a cell.
				sort.Ints(rows)
				order = append(order, rows...)
			}
		}
	}
	return assignOrdered(order, rowNNZ(a), p)
}

func clampCell(x, box float64, g int) int {
	// Wrap into [0, box) then bin.
	for x < 0 {
		x += box
	}
	for x >= box {
		x -= box
	}
	c := int(x / box * float64(g))
	if c >= g {
		c = g - 1
	}
	return c
}

// CommStats describes the communication a partitioned GSPMV performs
// per multiply.
type CommStats struct {
	// RemoteBlockRows is the total number of (node, remote block row)
	// pairs: each contributes 3*m*8 bytes of payload per multiply.
	RemoteBlockRows int64
	// Messages is the number of directed node pairs that exchange
	// data (each costs one message latency per multiply).
	Messages int64
	// MaxNodeRecvRows is the largest per-node count of remote block
	// rows received; the binding node for volume.
	MaxNodeRecvRows int64
	// MaxNodeMessages is the largest per-node count of incident
	// messages (send + receive).
	MaxNodeMessages int64
}

// VolumeBytes returns the total payload bytes per multiply with m
// vectors.
func (c CommStats) VolumeBytes(m int) int64 {
	return c.RemoteBlockRows * int64(bcrs.BlockDim) * int64(m) * 8
}

// Analyze computes the communication statistics of a partitioning for
// the given matrix.
func Analyze(a *bcrs.Matrix, r *Result) CommStats {
	type pair struct{ node, row int32 }
	needed := make(map[pair]struct{})
	msgs := make(map[[2]int32]struct{})
	recvRows := make([]int64, r.P)
	nodeMsgs := make([]int64, r.P)
	for i := 0; i < a.NB(); i++ {
		pi := int32(r.Part[i])
		lo, hi := a.RowBlocks(i)
		for k := lo; k < hi; k++ {
			j := a.BlockCol(k)
			pj := int32(r.Part[j])
			if pi == pj {
				continue
			}
			key := pair{pi, int32(j)}
			if _, ok := needed[key]; !ok {
				needed[key] = struct{}{}
				recvRows[pi]++
			}
			mk := [2]int32{pj, pi} // src -> dst
			if _, ok := msgs[mk]; !ok {
				msgs[mk] = struct{}{}
				nodeMsgs[pj]++
				nodeMsgs[pi]++
			}
		}
	}
	st := CommStats{
		RemoteBlockRows: int64(len(needed)),
		Messages:        int64(len(msgs)),
	}
	for p := 0; p < r.P; p++ {
		if recvRows[p] > st.MaxNodeRecvRows {
			st.MaxNodeRecvRows = recvRows[p]
		}
		if nodeMsgs[p] > st.MaxNodeMessages {
			st.MaxNodeMessages = nodeMsgs[p]
		}
	}
	return st
}
