package field

import "math/bits"

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
// (acc2[i]:acc1[i]:acc0[i]) without reduction: the slab-major counterpart of
// DotSlice's inner loop. No product code calls it; it stays because the
// repository benchmark times it (field.mulacc192_ns_per_elem). The
// accumulators tolerate at least 2^63 calls before overflow.
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
