//go:build !amd64

package solver

import "testing"

// checkSweeps has no assembly to check here.
func checkSweeps(t *testing.T, name string, ic *IC0, r, fwd, final []float64) {}
