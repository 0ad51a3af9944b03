package model

import (
	"math"
	"testing"
)

// TestGSPMVPinned pins the kernel model's bits at k = DefaultK on a
// machine that turns compute-bound at m = 2 and two shapes an octave
// apart. The served engine prices its batching window with T, so equal
// bits here mean equal batching; Tbw pins k at every m, T and r(m) the
// max rule and the normalisation.
func TestGSPMVPinned(t *testing.T) {
	type row struct {
		m         int
		t, r, tbw uint64
	}
	cases := []struct {
		shape Shape
		rows  []row
	}{
		{Shape{NB: 6000, NNZB: 144000}, []row{
			{1, 0x3f3a5870da5daf08, 0x3ff0000000000000, 0x3f3a5870da5daf08},
			{2, 0x3f453bd1676640a7, 0x3ff9ca81e9131abf, 0x3f3b0501a8d2b525},
			{4, 0x3f553bd1676640a7, 0x4009ca81e9131abf, 0x3f3c5e2345bcc161},
			{8, 0x3f653bd1676640a7, 0x4019ca81e9131abf, 0x3f3f10667f90d9d7},
			{16, 0x3f753bd1676640a7, 0x4029ca81e9131abf, 0x3f423a76799c8562},
			{32, 0x3f853bd1676640a7, 0x4039ca81e9131abf, 0x3f479efced44b650},
			{33, 0x3f85e5aff2a172ac, 0x403a98d5f85bb395, 0x3f47f545547f395f},
		}},
		{Shape{NB: 12000, NNZB: 288000}, []row{
			{1, 0x3f4a5870da5daf08, 0x3ff0000000000000, 0x3f4a5870da5daf08},
			{2, 0x3f553bd1676640a7, 0x3ff9ca81e9131abf, 0x3f4b0501a8d2b525},
			{4, 0x3f653bd1676640a7, 0x4009ca81e9131abf, 0x3f4c5e2345bcc161},
			{8, 0x3f753bd1676640a7, 0x4019ca81e9131abf, 0x3f4f10667f90d9d7},
			{16, 0x3f853bd1676640a7, 0x4029ca81e9131abf, 0x3f523a76799c8562},
			{32, 0x3f953bd1676640a7, 0x4039ca81e9131abf, 0x3f579efced44b650},
			{33, 0x3f95e5aff2a172ac, 0x403a98d5f85bb395, 0x3f57f545547f395f},
		}},
	}
	for _, c := range cases {
		g := GSPMV{Machine: Machine{B: 28e9, F: 8e9}, Shape: c.shape, K: DefaultK}
		if ms := g.MSwitch(256); ms != 2 {
			t.Errorf("%+v: MSwitch(256) = %d, want 2", c.shape, ms)
		}
		for _, w := range c.rows {
			got := row{w.m, math.Float64bits(g.T(w.m)), math.Float64bits(g.RelativeTime(w.m)), math.Float64bits(g.Tbw(w.m))}
			if got != w {
				t.Errorf("%+v m=%d: (T, r, Tbw) bits %#x %#x %#x, want %#x %#x %#x",
					c.shape, w.m, got.t, got.r, got.tbw, w.t, w.r, w.tbw)
			}
		}
	}
}

// TestFig1CellPinned pins Figure 1's k = 0 profile on a 3 × 3 grid
// spanning its row densities and byte-to-flop ratios.
func TestFig1CellPinned(t *testing.T) {
	bprs := []float64{6, 24, 84}
	bofs := []float64{0.02, 0.2, 0.6}
	want := [][]int{
		{21, 21, 14},
		{78, 42, 14},
		{268, 42, 14},
	}
	for i, bpr := range bprs {
		for j, bf := range bofs {
			if got := Fig1Cell(bpr, bf, 512); got != want[i][j] {
				t.Errorf("Fig1Cell(%v, %v) = %d, want %d", bpr, bf, got, want[i][j])
			}
		}
	}
}
