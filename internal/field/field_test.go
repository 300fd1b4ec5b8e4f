package field

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

// checkField runs the generic conformance suite against any Field
// implementation, cross-checking every operation against math/big.
func checkField[Fd Field[E], E any](t *testing.T, f Fd) {
	t.Helper()
	p := f.Modulus()

	sample := func() E {
		e, err := f.SampleElem(rand.Reader)
		if err != nil {
			t.Fatalf("SampleElem: %v", err)
		}
		return e
	}

	// Identities.
	if !f.IsZero(f.Zero()) {
		t.Error("Zero is not zero")
	}
	if f.IsZero(f.One()) && p.Cmp(big.NewInt(1)) != 0 {
		t.Error("One is zero")
	}
	if got := f.ToBig(f.One()); got.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("ToBig(One) = %v, want 1", got)
	}

	const iters = 200
	for i := 0; i < iters; i++ {
		a, b := sample(), sample()
		ab, bb := f.ToBig(a), f.ToBig(b)

		if ab.Cmp(p) >= 0 || ab.Sign() < 0 {
			t.Fatalf("sample out of range: %v", ab)
		}

		// Add/Sub/Neg/Mul vs big.Int.
		wantAdd := new(big.Int).Add(ab, bb)
		wantAdd.Mod(wantAdd, p)
		if got := f.ToBig(f.Add(a, b)); got.Cmp(wantAdd) != 0 {
			t.Fatalf("Add(%v,%v) = %v, want %v", ab, bb, got, wantAdd)
		}
		wantSub := new(big.Int).Sub(ab, bb)
		wantSub.Mod(wantSub, p)
		if got := f.ToBig(f.Sub(a, b)); got.Cmp(wantSub) != 0 {
			t.Fatalf("Sub(%v,%v) = %v, want %v", ab, bb, got, wantSub)
		}
		wantNeg := new(big.Int).Neg(ab)
		wantNeg.Mod(wantNeg, p)
		if got := f.ToBig(f.Neg(a)); got.Cmp(wantNeg) != 0 {
			t.Fatalf("Neg(%v) = %v, want %v", ab, got, wantNeg)
		}
		wantMul := new(big.Int).Mul(ab, bb)
		wantMul.Mod(wantMul, p)
		if got := f.ToBig(f.Mul(a, b)); got.Cmp(wantMul) != 0 {
			t.Fatalf("Mul(%v,%v) = %v, want %v", ab, bb, got, wantMul)
		}

		// Inverse.
		if !f.IsZero(a) {
			inv := f.Inv(a)
			if got := f.ToBig(f.Mul(a, inv)); got.Cmp(big.NewInt(1)) != 0 {
				t.Fatalf("a * Inv(a) = %v, want 1 (a=%v)", got, ab)
			}
		}

		// Encoding round trip.
		enc := f.AppendElem(nil, a)
		if len(enc) != f.ElemSize() {
			t.Fatalf("encoding size = %d, want %d", len(enc), f.ElemSize())
		}
		dec, err := f.ReadElem(enc)
		if err != nil {
			t.Fatalf("ReadElem: %v", err)
		}
		if !f.Equal(dec, a) {
			t.Fatalf("encode/decode mismatch: %v != %v", f.ToBig(dec), ab)
		}

		// FromBig/ToBig round trip.
		if got := f.ToBig(f.FromBig(ab)); got.Cmp(ab) != 0 {
			t.Fatalf("FromBig/ToBig mismatch")
		}
	}

	// Inv(0) == 0 by convention.
	if !f.IsZero(f.Inv(f.Zero())) {
		t.Error("Inv(0) != 0")
	}
	// Neg(0) == 0.
	if !f.IsZero(f.Neg(f.Zero())) {
		t.Error("Neg(0) != 0")
	}
	// FromInt64 of negative values.
	if got := f.ToBig(f.FromInt64(-1)); got.Cmp(new(big.Int).Sub(p, big.NewInt(1))) != 0 && p.Cmp(big.NewInt(2)) != 0 {
		t.Errorf("FromInt64(-1) = %v, want p-1", got)
	}
	// ReadElem rejects short buffers.
	if _, err := f.ReadElem(make([]byte, f.ElemSize()-1)); err == nil {
		t.Error("ReadElem accepted short buffer")
	}
}

func checkRoots[Fd Field[E], E any](t *testing.T, f Fd) {
	t.Helper()
	k := f.TwoAdicity()
	if k == 0 {
		return
	}
	if k > 12 {
		k = 12 // keep the test cheap; lower orders derive from higher ones
	}
	for logN := 1; logN <= k; logN++ {
		w := f.RootOfUnity(logN)
		n := uint64(1) << uint(logN)
		if got := Pow(f, w, n); !f.Equal(got, f.One()) {
			t.Fatalf("RootOfUnity(%d)^%d != 1", logN, n)
		}
		if got := Pow(f, w, n/2); f.Equal(got, f.One()) {
			t.Fatalf("RootOfUnity(%d) is not primitive", logN)
		}
	}
	if !f.Equal(f.RootOfUnity(0), f.One()) {
		t.Error("RootOfUnity(0) != 1")
	}
}

func TestF64Conformance(t *testing.T)  { checkField(t, NewF64()); checkRoots(t, NewF64()) }
func TestF128Conformance(t *testing.T) { checkField(t, NewF128()); checkRoots(t, NewF128()) }
func TestFP87Conformance(t *testing.T) { checkField(t, NewFP87()); checkRoots(t, NewFP87()) }
func TestFP265Conformance(t *testing.T) {
	checkField(t, NewFP265())
	checkRoots(t, NewFP265())
}
func TestF2Conformance(t *testing.T) { checkField(t, NewF2()) }

func TestF64MulQuick(t *testing.T) {
	f := NewF64()
	p := f.Modulus()
	err := quick.Check(func(a, b uint64) bool {
		a %= ModulusF64
		b %= ModulusF64
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		return f.ToBig(f.Mul(a, b)).Cmp(want) == 0
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestF64AddSubQuick(t *testing.T) {
	f := NewF64()
	err := quick.Check(func(a, b uint64) bool {
		a %= ModulusF64
		b %= ModulusF64
		return f.Sub(f.Add(a, b), b) == a && f.Add(f.Sub(a, b), b) == a
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestF64EdgeCases(t *testing.T) {
	f := NewF64()
	pm1 := ModulusF64 - 1
	cases := []struct{ a, b uint64 }{
		{0, 0}, {1, 1}, {pm1, pm1}, {pm1, 1}, {epsF64, epsF64},
		{epsF64 + 1, epsF64 + 1}, {pm1, epsF64}, {1 << 63, 1 << 63},
	}
	p := f.Modulus()
	for _, c := range cases {
		want := new(big.Int).Mul(new(big.Int).SetUint64(c.a), new(big.Int).SetUint64(c.b))
		want.Mod(want, p)
		if got := f.ToBig(f.Mul(c.a, c.b)); got.Cmp(want) != 0 {
			t.Errorf("Mul(%d,%d) = %v, want %v", c.a, c.b, got, want)
		}
		wantA := new(big.Int).Add(new(big.Int).SetUint64(c.a), new(big.Int).SetUint64(c.b))
		wantA.Mod(wantA, p)
		if got := f.ToBig(f.Add(c.a, c.b)); got.Cmp(wantA) != 0 {
			t.Errorf("Add(%d,%d) = %v, want %v", c.a, c.b, got, wantA)
		}
	}
}

func TestF128MontgomeryQuick(t *testing.T) {
	f := NewF128()
	p := f.Modulus()
	err := quick.Check(func(a0, a1, b0, b1 uint64) bool {
		ab := new(big.Int).Or(new(big.Int).Lsh(new(big.Int).SetUint64(a1), 64), new(big.Int).SetUint64(a0))
		bb := new(big.Int).Or(new(big.Int).Lsh(new(big.Int).SetUint64(b1), 64), new(big.Int).SetUint64(b0))
		ab.Mod(ab, p)
		bb.Mod(bb, p)
		a := f.FromBig(ab)
		b := f.FromBig(bb)
		want := new(big.Int).Mul(ab, bb)
		want.Mod(want, p)
		return f.ToBig(f.Mul(a, b)).Cmp(want) == 0
	}, &quick.Config{MaxCount: 1000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestF128KnownModulus(t *testing.T) {
	p := NewF128().Modulus()
	if !p.ProbablyPrime(40) {
		t.Fatal("F128 modulus is not prime")
	}
	// p = 2^66 * (2^62 - 7) + 1
	want := new(big.Int).Lsh(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 62), big.NewInt(7)), 66)
	want.Add(want, big.NewInt(1))
	if p.Cmp(want) != 0 {
		t.Fatalf("F128 modulus = %v, want 2^66*(2^62-7)+1 = %v", p, want)
	}
}

func TestBakedPrimesMatchSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("prime search skipped in -short mode")
	}
	if got := FindFFTPrime(87, 40); got.String() != ModulusFP87Decimal {
		t.Errorf("FindFFTPrime(87,40) = %v, want %v", got, ModulusFP87Decimal)
	}
	if got := FindFFTPrime(265, 40); got.String() != ModulusFP265Decimal {
		t.Errorf("FindFFTPrime(265,40) = %v, want %v", got, ModulusFP265Decimal)
	}
}

func TestVectorHelpers(t *testing.T) {
	f := NewF64()
	a := []uint64{1, 2, 3, 4}
	b := []uint64{5, 6, 7, 8}
	if got := InnerProduct(f, a, b); got != 5+12+21+32 {
		t.Errorf("InnerProduct = %d", got)
	}
	if got := Sum(f, a); got != 10 {
		t.Errorf("Sum = %d", got)
	}
	dst := append([]uint64(nil), a...)
	AddVec(f, dst, b)
	if !EqualVec(f, dst, []uint64{6, 8, 10, 12}) {
		t.Errorf("AddVec = %v", dst)
	}
	SubVec(f, dst, b)
	if !EqualVec(f, dst, a) {
		t.Errorf("SubVec did not invert AddVec: %v", dst)
	}
	ScaleVec(f, dst, 2)
	if !EqualVec(f, dst, []uint64{2, 4, 6, 8}) {
		t.Errorf("ScaleVec = %v", dst)
	}
	if EqualVec(f, a, b) || EqualVec(f, a, a[:3]) {
		t.Error("EqualVec false positives")
	}

	enc := AppendVec(f, nil, a)
	dec, n, err := ReadVec(f, enc, len(a))
	if err != nil || n != len(enc) || !EqualVec(f, dec, a) {
		t.Errorf("AppendVec/ReadVec round trip failed: %v %d %v", dec, n, err)
	}
	if _, _, err := ReadVec(f, enc[:len(enc)-1], len(a)); err == nil {
		t.Error("ReadVec accepted truncated input")
	}
}

func TestPowHelpers(t *testing.T) {
	f := NewF64()
	if got := Pow(f, 3, 5); got != 243 {
		t.Errorf("Pow(3,5) = %d", got)
	}
	if got := Pow(f, 7, 0); got != 1 {
		t.Errorf("Pow(7,0) = %d", got)
	}
	e := new(big.Int).SetUint64(ModulusF64 - 1)
	if got := PowBig(f, 12345, e); got != 1 {
		t.Errorf("Fermat little theorem failed: %d", got)
	}
}

func TestNonCanonicalRejected(t *testing.T) {
	f := NewF64()
	enc := f.AppendElem(nil, 0)
	for i := range enc {
		enc[i] = 0xFF // 2^64-1 > p
	}
	if _, err := f.ReadElem(enc); err == nil {
		t.Error("F64 accepted non-canonical encoding")
	}

	f128 := NewF128()
	enc2 := bytes.Repeat([]byte{0xFF}, 16)
	if _, err := f128.ReadElem(enc2); err == nil {
		t.Error("F128 accepted non-canonical encoding")
	}
}

// TestAppendVecMatchesAppendElem pins AppendVec's bytes — the F64 bulk
// path and the generic per-element one — to AppendElem's encoding, behind
// a non-empty prefix it must leave alone, and with and without spare
// capacity in dst.
func TestAppendVecMatchesAppendElem(t *testing.T) {
	t.Run("F64", func(t *testing.T) { checkAppendVec(t, NewF64()) })
	t.Run("F128", func(t *testing.T) { checkAppendVec(t, NewF128()) })
}

func checkAppendVec[Fd Field[E], E any](t *testing.T, f Fd) {
	for _, n := range []int{0, 1, 7, 513} {
		a, err := SampleVec(f, rand.Reader, n)
		if err != nil {
			t.Fatal(err)
		}
		want := []byte("prefix")
		for _, v := range a {
			want = f.AppendElem(want, v)
		}
		for _, spare := range []int{0, 3, len(want)} {
			dst := append(make([]byte, 0, len("prefix")+spare), "prefix"...)
			if got := AppendVec(f, dst, a); !bytes.Equal(got, want) {
				t.Fatalf("n=%d spare=%d: AppendVec differs from AppendElem", n, spare)
			}
		}
	}
}

// TestAddVecMatchesAdd pins AddVec — the F64 monomorphic loop and the
// generic one — to an element-wise f.Add, on random vectors and on p−1
// against p−1, 1 and 0, where the sum wraps or lands on p−1.
func TestAddVecMatchesAdd(t *testing.T) {
	t.Run("F64", func(t *testing.T) { checkAddVec(t, NewF64()) })
	t.Run("F128", func(t *testing.T) { checkAddVec(t, NewF128()) })
}

func checkAddVec[Fd Field[E], E any](t *testing.T, f Fd) {
	pm1 := f.Sub(f.Zero(), f.One())
	edges := []E{pm1, pm1, pm1, f.Zero(), f.One(), pm1}
	edges2 := []E{pm1, f.One(), f.Zero(), pm1, pm1, f.Zero()}
	cases := [][2][]E{{edges, edges2}, {nil, nil}}
	for _, n := range []int{1, 7, 513} {
		a, err := SampleVec(f, rand.Reader, n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := SampleVec(f, rand.Reader, n)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, [2][]E{a, b})
	}
	for _, c := range cases {
		dst := append([]E(nil), c[0]...)
		AddVec(f, dst, c[1])
		for i := range dst {
			if want := f.Add(c[0][i], c[1][i]); !f.Equal(dst[i], want) {
				t.Fatalf("n=%d: AddVec[%d] differs from Add", len(dst), i)
			}
		}
	}
}

// TestInnerProductMatchesGeneric checks InnerProduct, which over F64 is
// DotSlice with one deferred reduction, against the scalar loop of Mul and
// Add: random vectors and all-(p−1) vectors, whose products are the largest
// the 192-bit accumulator sums, at lengths 0, 1 and odd.
func TestInnerProductMatchesGeneric(t *testing.T) {
	t.Run("F64", func(t *testing.T) { checkInnerProduct(t, NewF64()) })
	t.Run("F128", func(t *testing.T) { checkInnerProduct(t, NewF128()) })
}

func checkInnerProduct[Fd Field[E], E any](t *testing.T, f Fd) {
	pm1 := f.Sub(f.Zero(), f.One())
	for _, n := range []int{0, 1, 7, 513, 4097} {
		a, err := SampleVec(f, rand.Reader, n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := SampleVec(f, rand.Reader, n)
		if err != nil {
			t.Fatal(err)
		}
		edge := make([]E, n)
		for i := range edge {
			edge[i] = pm1
		}
		for _, c := range []struct {
			name string
			a, b []E
		}{{"random", a, b}, {"p-1", edge, edge}, {"p-1·random", edge, b}} {
			want := f.Zero()
			for i := range c.a {
				want = f.Add(want, f.Mul(c.a[i], c.b[i]))
			}
			if got := InnerProduct(f, c.a, c.b); !f.Equal(got, want) {
				t.Fatalf("%s n=%d: InnerProduct differs from the scalar loop", c.name, n)
			}
		}
	}
}
