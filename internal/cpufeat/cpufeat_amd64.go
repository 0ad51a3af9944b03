//go:build amd64

package cpufeat

// Implemented in cpufeat_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

func detect() (avx2, fma, avx512 bool) {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false, false, false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const fma3, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false, false, false
	}
	// OS must save the full ymm state (XCR0 bits 1 and 2).
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 {
		return false, false, false
	}
	_, b7, _, _ := cpuidex(7, 0)
	const avx2bit, avx512f = 1 << 5, 1 << 16
	if b7&avx2bit == 0 {
		return false, false, false
	}
	// AVX-512F also needs the OS to save the opmask registers, the
	// upper halves of zmm0-15 and zmm16-31 (XCR0 bits 5, 6 and 7).
	return true, c1&fma3 != 0, b7&avx512f != 0 && xlo&0xe0 == 0xe0
}
