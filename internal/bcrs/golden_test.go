package bcrs

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// randomHash is FNV-64a over the matrix's three arrays, little-endian:
// rowPtr, colIdx, then the bit patterns of vals.
func randomHash(a *Matrix) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range a.rowPtr {
		binary.LittleEndian.PutUint32(b[:4], uint32(v))
		h.Write(b[:4])
	}
	for _, v := range a.colIdx {
		binary.LittleEndian.PutUint32(b[:4], uint32(v))
		h.Write(b[:4])
	}
	for _, v := range a.vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestRandomGolden pins the generator's output bit for bit: bench/
// derives every gspmv_* and serve_* input from Random, so a reordered
// or added draw changes the benchmark's inputs and its digests. The
// hashes were recorded at commit fa1800b.
func TestRandomGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  RandomOptions
		want uint64
	}{
		{"wrapped", RandomOptions{NB: 600, BlocksPerRow: 24, Seed: 11}, 0xe5c818055d5c85ab},
		{"nowrap-banded", RandomOptions{NB: 1200, BlocksPerRow: 24, Bandwidth: 120, NoWrap: true, Seed: 11}, 0x1c5692550760345c},
	} {
		if got := randomHash(Random(tc.opt)); got != tc.want {
			t.Errorf("%s: hash %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
