//go:build !purego

package x25519

// ladder8 runs one ladder step of RFC 7748 §5 on every lane of st per entry
// of swaps: a conditional swap of (x2:z2) with (x3:z3), in all lanes if the
// entry is 1 and in none if it is 0, then the differential addition and
// doubling. Every limb of st must be carried, and is on return.
//
//go:noescape
func ladder8(st *ladderState8, swaps []uint64)

// fieldOps8 sets v[2] = v[0]·v[1], v[3] = v[0]² and v[4] = v[1] + 121666·v[0]
// with the ladder's multiplication, squaring and a24 step, for the tests of
// the carried bound. v[0] and v[1] must be carried.
//
//go:noescape
func fieldOps8(v *[5]vec8)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// hasIFMA reports whether the CPU runs AVX-512F and AVX-512 IFMA and the OS
// saves the ZMM and opmask state: CPUID leaf 1 ECX bit 27 (OSXSAVE), leaf 7
// EBX bits 16 (AVX512F) and 21 (AVX512IFMA), and XCR0 bits 1, 2 and 5 to 7
// (SSE, AVX, opmask, ZMM0–15 upper halves, ZMM16–31).
func hasIFMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<27) == 0 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx512f, avx512ifma = 1 << 16, 1 << 21
	if ebx7&avx512f == 0 || ebx7&avx512ifma == 0 {
		return false
	}
	return xgetbv()&0xe6 == 0xe6
}
