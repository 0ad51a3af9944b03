// Package cpufeat reports the CPU vector extensions the hand-written
// assembly kernels (internal/bcrs, internal/multivec) dispatch on.
// Detection runs once at start-up; nothing here is configurable.
package cpufeat

// AVX2 reports that the CPU has AVX2 and the OS saves the ymm state.
// FMA additionally reports FMA3 (false whenever AVX2 is false).
var AVX2, FMA = detect()
