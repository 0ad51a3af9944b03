// Package cpufeat reports the CPU vector extensions the hand-written
// assembly kernels (internal/bcrs, multivec, solver) dispatch on.
// Detection runs once at start-up; only tests assign to the results.
package cpufeat

// AVX2 reports that the CPU has AVX2 and the OS saves the ymm state.
// FMA additionally reports FMA3 (false whenever AVX2 is false).
var AVX2, FMA = detect()
