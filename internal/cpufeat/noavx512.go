//go:build noavx512

package cpufeat

// Built with -tags noavx512 the process reports no AVX-512, so every
// kernel that has an AVX2 twin runs it: `make noavx512` tests those
// twins on a host that has AVX-512. cpufeat's init runs before any
// package that reads AVX512 is initialised.
func init() { AVX512 = false }
