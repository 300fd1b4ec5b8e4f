package field

import (
	"math/bits"
	"sync"
)

// Slab kernels: vectorized Goldilocks (F64) arithmetic over []uint64.
//
// The generic Field interface keeps every element operation behind a method
// call, which the Go compiler dispatches through a generics dictionary — fine
// for protocol glue, ruinous on the SNIP verification hot path, where a
// server does millions of multiply-adds per second. The kernels below are
// monomorphic uint64 loops the compiler can inline, bounds-check-eliminate,
// and pipeline; DotSlice additionally defers modular reduction by
// accumulating full 128-bit products into a 192-bit accumulator, so the
// per-element cost drops from a multiply plus a full reduction to a multiply
// plus three add-with-carry instructions.
//
// All inputs are canonical Goldilocks elements in [0, p); all outputs are
// canonical. Slices passed to a kernel must have equal lengths (the kernels
// panic otherwise, like their generic counterparts AddVec/InnerProduct).

// AddSlice sets dst[i] = a[i] + b[i] mod p. dst may alias a or b.
func AddSlice(dst, a, b []uint64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("field: AddSlice length mismatch")
	}
	var f F64
	for i := range dst {
		dst[i] = f.Add(a[i], b[i])
	}
}

// SubSlice sets dst[i] = a[i] - b[i] mod p. dst may alias a or b.
func SubSlice(dst, a, b []uint64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("field: SubSlice length mismatch")
	}
	var f F64
	for i := range dst {
		dst[i] = f.Sub(a[i], b[i])
	}
}

// MulSlice sets dst[i] = a[i] * b[i] mod p. dst may alias a or b.
func MulSlice(dst, a, b []uint64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("field: MulSlice length mismatch")
	}
	for i := range dst {
		hi, lo := bits.Mul64(a[i], b[i])
		dst[i] = reduce128(hi, lo)
	}
}

// ScaleSlice sets dst[i] = c * src[i] mod p. dst may alias src.
func ScaleSlice(dst, src []uint64, c uint64) {
	if len(dst) != len(src) {
		panic("field: ScaleSlice length mismatch")
	}
	for i := range dst {
		hi, lo := bits.Mul64(c, src[i])
		dst[i] = reduce128(hi, lo)
	}
}

// ScaleAddSlice sets dst[i] += c * src[i] mod p (the axpy kernel behind
// random-linear-combination folding). dst may alias src.
func ScaleAddSlice(dst, src []uint64, c uint64) {
	if len(dst) != len(src) {
		panic("field: ScaleAddSlice length mismatch")
	}
	var f F64
	for i := range dst {
		hi, lo := bits.Mul64(c, src[i])
		dst[i] = f.Add(dst[i], reduce128(hi, lo))
	}
}

// DotSlice returns the inner product <a, b> mod p with deferred reduction:
// the 128-bit products are summed into a single 192-bit accumulator and
// reduced once at the end. It is the hot kernel of batch SNIP verification
// (evaluating polynomial shares at the challenge point).
func DotSlice(a, b []uint64) uint64 {
	if len(a) != len(b) {
		panic("field: DotSlice length mismatch")
	}
	// Two independent accumulator chains break the add-with-carry dependency
	// so the multiplier and the adders overlap.
	var e0, e1, e2 uint64 // even-index accumulator (192-bit)
	var o0, o1, o2 uint64 // odd-index accumulator
	i := 0
	for ; i+1 < len(a); i += 2 {
		hi, lo := bits.Mul64(a[i], b[i])
		var c uint64
		e0, c = bits.Add64(e0, lo, 0)
		e1, c = bits.Add64(e1, hi, c)
		e2 += c
		hi, lo = bits.Mul64(a[i+1], b[i+1])
		o0, c = bits.Add64(o0, lo, 0)
		o1, c = bits.Add64(o1, hi, c)
		o2 += c
	}
	if i < len(a) {
		hi, lo := bits.Mul64(a[i], b[i])
		var c uint64
		e0, c = bits.Add64(e0, lo, 0)
		e1, c = bits.Add64(e1, hi, c)
		e2 += c
	}
	var c uint64
	e0, c = bits.Add64(e0, o0, 0)
	e1, c = bits.Add64(e1, o1, c)
	e2 += c + o2
	return reduce192(e2, e1, e0)
}

// MulAcc192 accumulates c * src[i] into the per-lane 192-bit accumulator
// (acc2[i]:acc1[i]:acc0[i]) without reduction. It is the slab-major
// counterpart of DotSlice's inner loop: batch verification keeps one lane per
// submission and folds the shared Lagrange weight c across all submissions'
// wire shares in a single pass. Reduce with Reduce192Slice once the whole
// sum is accumulated. The accumulators tolerate at least 2^63 calls before
// overflow, far beyond any batch size.
func MulAcc192(acc0, acc1, acc2, src []uint64, c uint64) {
	n := len(src)
	if len(acc0) != n || len(acc1) != n || len(acc2) != n {
		panic("field: MulAcc192 length mismatch")
	}
	// Lanes are independent: processing two per iteration gives the core two
	// multiply/add-with-carry chains to overlap (same trick as DotSlice).
	i := 0
	for ; i+1 < n; i += 2 {
		hi0, lo0 := bits.Mul64(c, src[i])
		hi1, lo1 := bits.Mul64(c, src[i+1])
		var cr uint64
		acc0[i], cr = bits.Add64(acc0[i], lo0, 0)
		acc1[i], cr = bits.Add64(acc1[i], hi0, cr)
		acc2[i] += cr
		acc0[i+1], cr = bits.Add64(acc0[i+1], lo1, 0)
		acc1[i+1], cr = bits.Add64(acc1[i+1], hi1, cr)
		acc2[i+1] += cr
	}
	if i < n {
		hi, lo := bits.Mul64(c, src[i])
		var cr uint64
		acc0[i], cr = bits.Add64(acc0[i], lo, 0)
		acc1[i], cr = bits.Add64(acc1[i], hi, cr)
		acc2[i] += cr
	}
}

// Reduce192Slice reduces each lane's 192-bit accumulator into a canonical
// element: dst[i] = (acc2[i]·2^128 + acc1[i]·2^64 + acc0[i]) mod p.
func Reduce192Slice(dst, acc0, acc1, acc2 []uint64) {
	n := len(dst)
	if len(acc0) != n || len(acc1) != n || len(acc2) != n {
		panic("field: Reduce192Slice length mismatch")
	}
	for i := 0; i < n; i++ {
		dst[i] = reduce192(acc2[i], acc1[i], acc0[i])
	}
}

// r2modF64 is 2^128 mod p. With eps = 2^32 - 1: 2^128 ≡ eps² = 2^64 - 2^33 + 1
// ≡ (2^32 - 1) - 2^33 + 1 = -2^32 ≡ p - 2^32 (mod p).
const r2modF64 uint64 = ModulusF64 - (1 << 32)

// reduce192 reduces hi2·2^128 + hi·2^64 + lo modulo the Goldilocks prime.
// reduce128 is exact for arbitrary 64-bit limbs (its intermediate sums cannot
// double-overflow; see the bound analysis in f64.go), so the 192-bit value
// folds as reduce128(hi, lo) + hi2·(2^128 mod p).
func reduce192(hi2, hi, lo uint64) uint64 {
	var f F64
	m := reduce128(hi, lo)
	if hi2 == 0 {
		return m
	}
	h, l := bits.Mul64(hi2, r2modF64)
	return f.Add(m, reduce128(h, l))
}

// slabPools recycles []uint64 buffers — batch-verification scratch — by
// power-of-two capacity class: slabPools[c] holds buffers with capacity
// ≥ 1<<c, so lane scratch of a few dozen elements and fold slabs of
// thousands never evict one another and a Get either hits its class or
// allocates a buffer the class can keep. (Share vectors have a pool of
// their own length in core.)
var slabPools [maxSlabClass + 1]sync.Pool // of *[]uint64

// maxSlabClass bounds the pooled sizes at 1<<24 elements (128 MiB); larger
// requests are plain allocations left to the GC.
const maxSlabClass = 24

// GetSlabUninit returns a []uint64 of length n with UNSPECIFIED contents,
// reusing pooled scratch without a clearing pass. Use it only for buffers
// every element of which is written before it is read; accumulator slabs
// must use GetSlab. The slab is private to the caller until PutSlab returns
// it; callers must not retain references past PutSlab — results computed
// into a slab are copied out before the slab goes back, or the slab is
// simply never returned.
func GetSlabUninit(n int) []uint64 {
	c := 0
	if n > 1 {
		c = bits.Len(uint(n - 1))
	}
	if c > maxSlabClass {
		return make([]uint64, n)
	}
	if v := slabPools[c].Get(); v != nil {
		return (*(v.(*[]uint64)))[:n]
	}
	return make([]uint64, n, 1<<uint(c))
}

// GetSlab is GetSlabUninit with the slab zeroed.
func GetSlab(n int) []uint64 {
	s := GetSlabUninit(n)
	clear(s)
	return s
}

// PutSlab returns a slab obtained from GetSlab or GetSlabUninit to the pool.
func PutSlab(s []uint64) {
	if cap(s) == 0 {
		return
	}
	// File by the floor class so every pooled entry meets its class's
	// capacity guarantee whatever capacity the slab came with.
	c := bits.Len(uint(cap(s))) - 1
	if c > maxSlabClass {
		return
	}
	s = s[:0]
	slabPools[c].Put(&s)
}
