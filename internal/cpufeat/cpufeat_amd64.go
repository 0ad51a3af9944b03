//go:build amd64

package cpufeat

// Implemented in cpufeat_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

func detect() (avx2, fma bool) {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const fma3, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false, false
	}
	// OS must save the full ymm state (XCR0 bits 1 and 2).
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 {
		return false, false
	}
	_, b7, _, _ := cpuidex(7, 0)
	const avx2bit = 1 << 5
	if b7&avx2bit == 0 {
		return false, false
	}
	return true, c1&fma3 != 0
}
