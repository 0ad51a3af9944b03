package cpufeat

import "testing"

func TestFMAImpliesAVX2(t *testing.T) {
	if FMA && !AVX2 {
		t.Fatal("FMA reported without AVX2")
	}
	t.Logf("AVX2=%v FMA=%v", AVX2, FMA)
}

func TestAVX512ImpliesAVX2(t *testing.T) {
	if AVX512 && !AVX2 {
		t.Fatal("AVX512 reported without AVX2")
	}
	t.Logf("AVX2=%v AVX512=%v", AVX2, AVX512)
}
