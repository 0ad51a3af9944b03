package multivec

// WithoutSIMD runs fn with the generic Go loops forced, for the
// external tests that compare whole solves across the two paths.
func WithoutSIMD(fn func()) { withoutSIMD(fn) }
