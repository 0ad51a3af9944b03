//go:build race

package solver

func init() { poolDropsPuts = true }
