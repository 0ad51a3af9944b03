//go:build race

package chebyshev

func init() { poolDropsPuts = true }
