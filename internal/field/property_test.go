package field

import (
	"math/big"
	"testing"
	"testing/quick"
)

// Field axioms as testing/quick properties, for the two specialized fields
// whose arithmetic is hand-written (F64's Goldilocks reduction and F128's
// Montgomery CIOS). The FP reference field is checked against math/big in
// the conformance suite.

func TestF64AxiomsQuick(t *testing.T) {
	f := NewF64()
	cfg := &quick.Config{MaxCount: 3000}
	norm := func(v uint64) uint64 { return v % ModulusF64 }

	if err := quick.Check(func(a, b, c uint64) bool {
		a, b, c = norm(a), norm(b), norm(c)
		// associativity and commutativity
		if f.Add(f.Add(a, b), c) != f.Add(a, f.Add(b, c)) {
			return false
		}
		if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
			return false
		}
		if f.Add(a, b) != f.Add(b, a) || f.Mul(a, b) != f.Mul(b, a) {
			return false
		}
		// distributivity
		if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
			return false
		}
		// identities and inverses
		if f.Add(a, 0) != a || f.Mul(a, 1) != a {
			return false
		}
		if f.Add(a, f.Neg(a)) != 0 {
			return false
		}
		if a != 0 && f.Mul(a, f.Inv(a)) != 1 {
			return false
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestF128AxiomsQuick(t *testing.T) {
	f := NewF128()
	cfg := &quick.Config{MaxCount: 1000}
	mk := func(lo, hi uint64) U128 {
		v := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		v.Or(v, new(big.Int).SetUint64(lo))
		return f.FromBig(v)
	}
	if err := quick.Check(func(a0, a1, b0, b1, c0, c1 uint64) bool {
		a, b, c := mk(a0, a1), mk(b0, b1), mk(c0, c1)
		if !f.Equal(f.Add(f.Add(a, b), c), f.Add(a, f.Add(b, c))) {
			return false
		}
		if !f.Equal(f.Mul(f.Mul(a, b), c), f.Mul(a, f.Mul(b, c))) {
			return false
		}
		if !f.Equal(f.Mul(a, f.Add(b, c)), f.Add(f.Mul(a, b), f.Mul(a, c))) {
			return false
		}
		if !f.Equal(f.Sub(f.Add(a, b), b), a) {
			return false
		}
		if !f.IsZero(f.Add(a, f.Neg(a))) {
			return false
		}
		if !f.IsZero(a) && !f.Equal(f.Mul(a, f.Inv(a)), f.One()) {
			return false
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestF128AddSubAgainstBigQuick(t *testing.T) {
	f := NewF128()
	p := f.Modulus()
	if err := quick.Check(func(a0, a1, b0, b1 uint64) bool {
		ab := new(big.Int).Lsh(new(big.Int).SetUint64(a1), 64)
		ab.Or(ab, new(big.Int).SetUint64(a0))
		ab.Mod(ab, p)
		bb := new(big.Int).Lsh(new(big.Int).SetUint64(b1), 64)
		bb.Or(bb, new(big.Int).SetUint64(b0))
		bb.Mod(bb, p)
		a, b := f.FromBig(ab), f.FromBig(bb)
		wantAdd := new(big.Int).Add(ab, bb)
		wantAdd.Mod(wantAdd, p)
		wantSub := new(big.Int).Sub(ab, bb)
		wantSub.Mod(wantSub, p)
		return f.ToBig(f.Add(a, b)).Cmp(wantAdd) == 0 &&
			f.ToBig(f.Sub(a, b)).Cmp(wantSub) == 0
	}, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodingRoundTripQuick(t *testing.T) {
	f64 := NewF64()
	if err := quick.Check(func(v uint64) bool {
		a := f64.FromUint64(v)
		enc := f64.AppendElem(nil, a)
		dec, err := f64.ReadElem(enc)
		return err == nil && dec == a
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	f128 := NewF128()
	if err := quick.Check(func(lo, hi uint64) bool {
		v := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		v.Or(v, new(big.Int).SetUint64(lo))
		a := f128.FromBig(v)
		enc := f128.AppendElem(nil, a)
		dec, err := f128.ReadElem(enc)
		return err == nil && f128.Equal(dec, a)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInnerProductBilinearQuick(t *testing.T) {
	f := NewF64()
	if err := quick.Check(func(raw []uint64, k uint64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		a := make([]uint64, n)
		b := make([]uint64, n)
		for i := 0; i < n; i++ {
			a[i] = raw[i] % ModulusF64
			b[i] = raw[n+i] % ModulusF64
		}
		k %= ModulusF64
		// <k·a, b> == k·<a, b>
		ka := append([]uint64(nil), a...)
		ScaleVec(f, ka, k)
		return f.Mul(k, InnerProduct(f, a, b)) == InnerProduct(f, ka, b)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Slab-kernel properties: the vectorized F64 kernels must agree with the
// generic scalar path element-for-element on every length — including empty,
// length-1, and lengths that are not a multiple of the kernels' unroll
// stride — and the scratch pool must never alias live results.

// slabLens covers the stride edge cases: empty, single, odd, one under and
// over the 2-way unroll boundary, and a few larger odd sizes.
var slabLens = []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 33, 63, 100, 255}

// randSlab derives a deterministic pseudo-random canonical vector.
func randSlab(n int, seed uint64) []uint64 {
	out := make([]uint64, n)
	x := seed*0x9E3779B97F4A7C15 + 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = x % ModulusF64
	}
	return out
}

func TestSlabKernelsMatchScalar(t *testing.T) {
	f := NewF64()
	for _, n := range slabLens {
		a := randSlab(n, uint64(n)+1)
		b := randSlab(n, uint64(n)+2)

		add := make([]uint64, n)
		AddSlice(add, a, b)
		mul := make([]uint64, n)
		MulSlice(mul, a, b)
		for i := 0; i < n; i++ {
			if add[i] != f.Add(a[i], b[i]) {
				t.Fatalf("n=%d AddSlice[%d] = %d, want %d", n, i, add[i], f.Add(a[i], b[i]))
			}
			if mul[i] != f.Mul(a[i], b[i]) {
				t.Fatalf("n=%d MulSlice[%d] mismatch", n, i)
			}
		}
		if got, want := DotSlice(a, b), InnerProduct(f, a, b); got != want {
			t.Fatalf("n=%d DotSlice = %d, want %d", n, got, want)
		}
	}
}

// TestDotSliceExtremes drives the deferred-reduction accumulator with
// worst-case magnitudes (all elements p-1) at lengths long enough to carry
// into the third limb.
func TestDotSliceExtremes(t *testing.T) {
	f := NewF64()
	for _, n := range []int{1, 2, 3, 64, 1023, 4096} {
		a := make([]uint64, n)
		for i := range a {
			a[i] = ModulusF64 - 1
		}
		if got, want := DotSlice(a, a), InnerProduct(f, a, a); got != want {
			t.Fatalf("n=%d DotSlice(p-1,...) = %d, want %d", n, got, want)
		}
	}
}

func TestMulAcc192MatchesScalar(t *testing.T) {
	f := NewF64()
	for _, n := range slabLens {
		const rows = 7
		acc0 := make([]uint64, n)
		acc1 := make([]uint64, n)
		acc2 := make([]uint64, n)
		want := make([]uint64, n)
		for r := 0; r < rows; r++ {
			src := randSlab(n, uint64(100*r+n))
			c := randSlab(1, uint64(999*r+n))[0]
			MulAcc192(acc0, acc1, acc2, src, c)
			for i := 0; i < n; i++ {
				want[i] = f.Add(want[i], f.Mul(c, src[i]))
			}
		}
		for i := 0; i < n; i++ {
			if got := reduce192(acc2[i], acc1[i], acc0[i]); got != want[i] {
				t.Fatalf("n=%d lane %d: reduce192 = %d, want %d", n, i, got, want[i])
			}
		}
	}
}

func TestFromInt64Quick(t *testing.T) {
	f := NewF64()
	p := f.Modulus()
	if err := quick.Check(func(v int64) bool {
		want := new(big.Int).Mod(big.NewInt(v), p)
		return f.ToBig(f.FromInt64(v)).Cmp(want) == 0
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
