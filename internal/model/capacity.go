package model

// Cache-capacity extension of k(m). The paper treats k — the extra
// per-element X accesses beyond the compulsory traffic — as
// approximately constant ("k(m) ~ 3 for m between 1 and 42"), which
// holds while the row window of X and Y a block row revisits stays
// cache-resident. The measured r(m) collapse at large m comes from
// exactly that window overflowing: every block-column gather then
// misses, and the effective k jumps from the resident value toward a
// miss-dominated ceiling. CapacityK interpolates between the two
// regimes by the overflowing fraction of the window, which is the
// expected miss rate of a uniformly-touched window under LRU:
//
//	W(m)  = windowBytesPerVec * m
//	k(m)  = kbase                           W(m) <= C
//	      = kbase + (kmiss-kbase)*(1-C/W)   W(m) >  C
//
// kmiss is bounded by the gathers themselves: with every block access
// missing, each of the ~bpr blocks of a row charges one extra X
// access per element, so kmiss ~ blocks-per-row for a general matrix
// (and ~2x that for the symmetric kernel, whose transposed scatter
// read-modify-writes the same window in Y). Calibrate both by solving
// Eq. Mtr for k(m) on the bandwidth-bound rows of a measured sweep.
func CapacityK(kbase, kmiss float64, windowBytesPerVec, cacheBytes int64) KFunc {
	return func(m int) float64 {
		w := float64(windowBytesPerVec) * float64(m)
		c := float64(cacheBytes)
		if w <= c || w <= 0 {
			return kbase
		}
		return kbase + (kmiss-kbase)*(1-c/w)
	}
}
