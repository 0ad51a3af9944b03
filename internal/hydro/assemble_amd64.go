//go:build amd64

package hydro

// Implemented in assemble_amd64.s.
//
//go:noescape
func candAVX2(d *candScratch, slots *float64, prm *candParams, tens *sym3, kept *uint8, n int) int

//go:noescape
func logLanesAVX2(x, l *[4]float64) int

// candSIMD runs the candidate pass over the n candidates from slot b,
// b and n multiples of 4 and n at most candBlock, on AVX2: it gathers
// their wrapped-coordinate differences into d and hands them to
// candAVX2. It reports false, having written the block with bits the Go
// loop might not give, when a kept lane failed one of the kernel's
// guards.
func (as *Assembler) candSIMD(d *candScratch, b, n int) bool {
	w := as.wrapped
	for k, c := range as.cand[b : b+n] {
		wa, wb := &w[c[0]], &w[c[1]]
		d[0][k], d[1][k], d[2][k] = wb[0]-wa[0], wb[1]-wa[1], wb[2]-wa[2]
	}
	slots := as.slots[b/4*slotGroup : (b+n)/4*slotGroup]
	tens, kept := as.tens[b:b+n], as.kept[b:b+n]
	return candAVX2(d, &slots[0], &as.prm, &tens[0], &kept[0], n) == 0
}

// Implemented in assemble_amd64.s.
//
//go:noescape
func fillRowAVX2(vals *float64, colIdx *int32, tens *sym3, kept *uint8, slots, cols *int32, nv, p, diagSlot int, d0, f, z float64) (next int)

// fillRowSIMD writes one row's blocks and its diagonal on AVX2, with
// the Go fill's bits, and returns the next row's first position. The
// kernel indexes unchecked, on what index and assemble establish: the
// slot of every visit is at most len(as.cand), so below len(as.tens) and
// len(as.kept); every visit advances the position by its keep byte, 0
// or 1; and so the fill's last position is nnzb, the row count plus
// twice the kept count, where vals and colIdx hold one spare block.
func (as *Assembler) fillRowSIMD(vals []float64, colIdx, slots, cols []int32, p int, d0, f, z float64) (next int) {
	cols = cols[:len(slots)]
	return fillRowAVX2(&vals[0], &colIdx[0], &as.tens[0], &as.kept[0], &slots[0], &cols[0], len(slots), p, len(as.cand), d0, f, z)
}
