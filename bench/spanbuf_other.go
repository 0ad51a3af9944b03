//go:build !unix

package main

// newSpanBuffer returns room for n spans on the Go heap; see the unix
// version for why that is second best.
func newSpanBuffer(n int) ([]span, func()) { return make([]span, 0, n), func() {} }
