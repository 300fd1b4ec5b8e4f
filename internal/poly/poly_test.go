package poly

import (
	"crypto/rand"
	"sync"
	"testing"

	"prio/internal/field"
)

func randVec(t *testing.T, n int) []uint64 {
	t.Helper()
	v, err := field.SampleVec(field.NewF64(), rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNTTInverse(t *testing.T) {
	f := field.NewF64()
	for _, logN := range []int{0, 1, 2, 5, 8, 10} {
		d := NewDomain(f, logN)
		a := randVec(t, d.N)
		orig := append([]uint64(nil), a...)
		d.NTT(a)
		d.INTT(a)
		if !field.EqualVec(f, a, orig) {
			t.Errorf("logN=%d: INTT(NTT(a)) != a", logN)
		}
	}
}

func TestNTTMatchesDirectEvaluation(t *testing.T) {
	f := field.NewF64()
	d := NewDomain(f, 4)
	coeffs := randVec(t, d.N)
	evals := append([]uint64(nil), coeffs...)
	d.NTT(evals)
	for j := 0; j < d.N; j++ {
		want := Eval(f, coeffs, d.Point(j))
		if evals[j] != want {
			t.Fatalf("NTT[%d] = %d, want %d", j, evals[j], want)
		}
	}
}

func TestNTTMultiplicationMatchesNaive(t *testing.T) {
	f := field.NewF64()
	d := NewDomain(f, 5) // N = 32
	a := randVec(t, 10)
	b := randVec(t, 12)
	want := MulNaive(f, a, b)

	// pad to N, NTT, pointwise multiply, INTT
	pa := make([]uint64, d.N)
	pb := make([]uint64, d.N)
	copy(pa, a)
	copy(pb, b)
	d.NTT(pa)
	d.NTT(pb)
	for i := range pa {
		pa[i] = f.Mul(pa[i], pb[i])
	}
	d.INTT(pa)
	for i := range want {
		if pa[i] != want[i] {
			t.Fatalf("product coeff %d = %d, want %d", i, pa[i], want[i])
		}
	}
	for i := len(want); i < d.N; i++ {
		if pa[i] != 0 {
			t.Fatalf("product coeff %d = %d, want 0", i, pa[i])
		}
	}
}

func TestNTTF128(t *testing.T) {
	f := field.NewF128()
	d := NewDomain(f, 6)
	a, err := field.SampleVec(f, rand.Reader, d.N)
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]field.U128(nil), a...)
	d.NTT(a)
	d.INTT(a)
	if !field.EqualVec(f, a, orig) {
		t.Error("F128 INTT(NTT(a)) != a")
	}
}

func TestNTTFP87(t *testing.T) {
	f := field.NewFP87()
	d := NewDomain(f, 4)
	a, err := field.SampleVec(f, rand.Reader, d.N)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]string, len(a))
	for i, v := range a {
		before[i] = v.String()
	}
	d.NTT(a)
	d.INTT(a)
	for i, v := range a {
		if v.String() != before[i] {
			t.Fatalf("FP87 INTT(NTT(a))[%d] = %v, want %v", i, v, before[i])
		}
	}
}

func TestEvalWeights(t *testing.T) {
	f := field.NewF64()
	d := NewDomain(f, 5)
	coeffs := randVec(t, d.N)
	evals := append([]uint64(nil), coeffs...)
	d.NTT(evals)

	for _, r := range []uint64{0, 1, 2, 999, field.ModulusF64 - 1} {
		w := d.EvalWeights(r)
		got := field.InnerProduct(f, w, evals)
		want := Eval(f, coeffs, r)
		if got != want {
			t.Errorf("r=%d: weights eval = %d, want %d", r, got, want)
		}
	}
}

func TestEvalWeightsInDomain(t *testing.T) {
	f := field.NewF64()
	d := NewDomain(f, 4)
	coeffs := randVec(t, d.N)
	evals := append([]uint64(nil), coeffs...)
	d.NTT(evals)
	// r = w^5 lies in the domain; weights must pick out evals[5].
	r := d.Point(5)
	w := d.EvalWeights(r)
	got := field.InnerProduct(f, w, evals)
	if got != evals[5] {
		t.Errorf("in-domain eval = %d, want %d", got, evals[5])
	}
}

func TestEvalWeightsLinearOverShares(t *testing.T) {
	// The verifier applies weights to *shares*; check linearity:
	// weights·(x+y) == weights·x + weights·y.
	f := field.NewF64()
	d := NewDomain(f, 3)
	x := randVec(t, d.N)
	y := randVec(t, d.N)
	sum := append([]uint64(nil), x...)
	field.AddVec(f, sum, y)
	w := d.EvalWeights(12345)
	lhs := field.InnerProduct(f, w, sum)
	rhs := f.Add(field.InnerProduct(f, w, x), field.InnerProduct(f, w, y))
	if lhs != rhs {
		t.Error("evaluation weights are not linear")
	}
}

func TestBatchInv(t *testing.T) {
	f := field.NewF64()
	a := []uint64{1, 2, 3, 0, 12345, field.ModulusF64 - 1, 0, 7}
	inv := BatchInv(f, a)
	for i, v := range a {
		if v == 0 {
			if inv[i] != 0 {
				t.Errorf("BatchInv of zero = %d, want 0", inv[i])
			}
			continue
		}
		if f.Mul(v, inv[i]) != 1 {
			t.Errorf("a[%d]*inv = %d, want 1", i, f.Mul(v, inv[i]))
		}
	}
	if got := BatchInv(f, nil); len(got) != 0 {
		t.Error("BatchInv(nil) should be empty")
	}
}

func TestInterpolate(t *testing.T) {
	f := field.NewF64()
	coeffs := []uint64{5, 0, 3, 7} // 5 + 3x^2 + 7x^3
	xs := []uint64{1, 2, 3, 4}
	ys := make([]uint64, len(xs))
	for i, x := range xs {
		ys[i] = Eval(f, coeffs, x)
	}
	got := Interpolate(f, xs, ys)
	if !field.EqualVec(f, got, coeffs) {
		t.Errorf("Interpolate = %v, want %v", got, coeffs)
	}
}

func TestInterpolateRandom(t *testing.T) {
	f := field.NewF64()
	for n := 1; n <= 12; n++ {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = uint64(i * i * 3) // distinct
		}
		ys := randVec(t, n)
		coeffs := Interpolate(f, xs, ys)
		if len(coeffs) != n {
			t.Fatalf("n=%d: got %d coefficients", n, len(coeffs))
		}
		for i := range xs {
			if got := Eval(f, coeffs, xs[i]); got != ys[i] {
				t.Fatalf("n=%d: P(%d) = %d, want %d", n, xs[i], got, ys[i])
			}
		}
	}
}

func TestInterpolateAgainstNTT(t *testing.T) {
	// Interpolating over the NTT domain must agree with INTT.
	f := field.NewF64()
	d := NewDomain(f, 3)
	ys := randVec(t, d.N)
	xs := make([]uint64, d.N)
	for i := range xs {
		xs[i] = d.Point(i)
	}
	want := Interpolate(f, xs, ys)
	got := append([]uint64(nil), ys...)
	d.INTT(got)
	if !field.EqualVec(f, got, want) {
		t.Error("INTT disagrees with reference interpolation")
	}
}

func TestEvalEmpty(t *testing.T) {
	f := field.NewF64()
	if Eval(f, nil, 5) != 0 {
		t.Error("Eval of empty polynomial should be 0")
	}
	if MulNaive(f, nil, []uint64{1}) != nil {
		t.Error("MulNaive with empty factor should be nil")
	}
}

// TestTransformsMatchEval checks the butterfly loops against O(N²)
// references for N = 2⁰…2¹⁰ over F64 (the monomorphic kernels) and for
// smaller N over F128 and FP87 (the generic ones): NTT of random
// coefficients is Eval at every domain point, INTT takes those evaluations
// back, and Coset of random evaluations is Eval of the Interpolate'd
// polynomial at ω₂ₙ^(2t+1).
func TestTransformsMatchEval(t *testing.T) {
	t.Run("F64", func(t *testing.T) { checkTransformsMatchEval(t, field.NewF64(), 10) })
	t.Run("F128", func(t *testing.T) { checkTransformsMatchEval(t, field.NewF128(), 6) })
	t.Run("FP87", func(t *testing.T) { checkTransformsMatchEval(t, field.NewFP87(), 5) })
}

func checkTransformsMatchEval[Fd field.Field[E], E any](t *testing.T, f Fd, maxLogN int) {
	for logN := 0; logN <= maxLogN; logN++ {
		d := NewDomain(f, logN)
		coeffs, err := field.SampleVec(f, rand.Reader, d.N)
		if err != nil {
			t.Fatal(err)
		}
		evals := append([]E(nil), coeffs...)
		d.NTT(evals)
		for j := range evals {
			if !f.Equal(evals[j], Eval(f, coeffs, d.Point(j))) {
				t.Fatalf("N=%d: NTT[%d] != Eval at w^%d", d.N, j, j)
			}
		}
		d.INTT(evals)
		if !field.EqualVec(f, evals, coeffs) {
			t.Fatalf("N=%d: INTT(NTT(c)) != c", d.N)
		}

		ys, err := field.SampleVec(f, rand.Reader, d.N)
		if err != nil {
			t.Fatal(err)
		}
		xs := make([]E, d.N)
		for j := range xs {
			xs[j] = d.Point(j)
		}
		p := Interpolate(f, xs, ys)
		if d.twist != nil {
			t.Fatalf("N=%d: twist table built before the first Coset", d.N)
		}
		d.Coset(ys)
		w := f.RootOfUnity(logN + 1)
		for j := range ys {
			if !f.Equal(ys[j], Eval(f, p, field.Pow(f, w, uint64(2*j+1)))) {
				t.Fatalf("N=%d: Coset[%d] != P(ω₂ₙ^%d)", d.N, j, 2*j+1)
			}
		}
	}
}

// TestCosetConcurrentFirstUse has several goroutines make the first Coset
// calls on one domain at once, as concurrent provers sharing a System do:
// the lazily built twist table must be built once and seen whole by all.
func TestCosetConcurrentFirstUse(t *testing.T) {
	f := field.NewF64()
	ys := randVec(t, 1<<8)
	want := append([]uint64(nil), ys...)
	NewDomain(f, 8).Coset(want)
	d := NewDomain(f, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := append([]uint64(nil), ys...)
			d.Coset(got)
			if !field.EqualVec(f, got, want) {
				t.Error("concurrent first Coset differs from a lone one")
			}
		}()
	}
	wg.Wait()
}
