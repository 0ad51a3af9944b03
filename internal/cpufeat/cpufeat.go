// Package cpufeat reports the CPU vector extensions the hand-written
// assembly kernels (internal/bcrs, multivec, solver) dispatch on.
// Detection runs once at start-up; only tests assign to the results.
package cpufeat

// AVX2 reports that the CPU has AVX2 and the OS saves the ymm state.
// FMA additionally reports FMA3, and AVX512 AVX-512F with the OS saving
// the opmask and all 32 zmm registers; both are false whenever AVX2 is
// false.
var AVX2, FMA, AVX512 = detect()
