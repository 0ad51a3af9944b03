//go:build !amd64

package chebyshev

// Non-amd64 builds have no combine kernel: combineColumn's Go loops
// serve every width.
func combineSIMD(y []float64, ps [][]float64, cy, cd, ys, ds []float64, k, lo, hi int) bool {
	return false
}
