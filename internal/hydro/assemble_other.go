//go:build !amd64

package hydro

// Non-amd64 builds have no assembly candidate pass or fill: cpufeat
// reports no AVX2, so the Go loops run every candidate and every row.
func (as *Assembler) candSIMD(d *candScratch, b, n int) bool {
	panic("hydro: candSIMD without SIMD support")
}

func (as *Assembler) fillRowSIMD(vals []float64, colIdx, slots, cols []int32, p int, d0, f, z float64) (next int) {
	panic("hydro: fillRowSIMD without SIMD support")
}
