//go:build !amd64

package solver

// Non-amd64 builds have no SIMD sweeps: ic0.go's loops serve every width.
func (ic *IC0) sweepSIMD(z, r []float64, m int) int {
	panic("solver: sweepSIMD without SIMD support")
}
