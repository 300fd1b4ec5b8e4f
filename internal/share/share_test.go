package share

import (
	"crypto/rand"
	"testing"
	"testing/quick"

	"prio/internal/field"
	"prio/internal/prg"
)

func TestSplitReconstruct(t *testing.T) {
	f := field.NewF64()
	for _, s := range []int{1, 2, 3, 5, 10} {
		x, err := field.SampleVec(f, rand.Reader, 32)
		if err != nil {
			t.Fatal(err)
		}
		shares, err := Split(f, rand.Reader, x, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(shares) != s {
			t.Fatalf("got %d shares, want %d", len(shares), s)
		}
		got := Reconstruct(f, shares...)
		if !field.EqualVec(f, got, x) {
			t.Errorf("s=%d: reconstruction mismatch", s)
		}
	}
}

func TestSplitReconstructQuick(t *testing.T) {
	f := field.NewF64()
	err := quick.Check(func(vals []uint64, sRaw uint8) bool {
		s := int(sRaw%9) + 1
		x := make([]uint64, len(vals))
		for i, v := range vals {
			x[i] = f.FromUint64(v)
		}
		shares, err := Split(f, rand.Reader, x, s)
		if err != nil {
			return false
		}
		return field.EqualVec(f, Reconstruct(f, shares...), x)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPartialSharesLookRandom(t *testing.T) {
	// Any s-1 shares must be independent of x. Sanity check: splitting the
	// all-zeros vector twice yields different first shares.
	f := field.NewF64()
	x := make([]uint64, 16)
	a, err := Split(f, rand.Reader, x, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Split(f, rand.Reader, x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if field.EqualVec(f, a[0], b[0]) {
		t.Error("first shares repeated across splits; sharing is not randomized")
	}
}

func TestSplitDoesNotMutateInput(t *testing.T) {
	f := field.NewF64()
	x := []uint64{1, 2, 3, 4}
	orig := append([]uint64(nil), x...)
	if _, err := Split(f, rand.Reader, x, 4); err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(f, x, orig) {
		t.Error("Split mutated its input")
	}
}

func TestSplitSeeded(t *testing.T) {
	f := field.NewF128()
	x, err := field.SampleVec(f, rand.Reader, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{1, 2, 5} {
		seeds, last, err := SplitSeeded(f, x, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(seeds) != s-1 {
			t.Fatalf("got %d seeds, want %d", len(seeds), s-1)
		}
		shares := make([][]field.U128, 0, s)
		for _, seed := range seeds {
			shares = append(shares, Expand(f, seed, len(x)))
		}
		shares = append(shares, last)
		if !field.EqualVec(f, Reconstruct(f, shares...), x) {
			t.Errorf("s=%d: seeded reconstruction mismatch", s)
		}
	}
}

func TestExpandDeterministic(t *testing.T) {
	f := field.NewF64()
	seed := prg.Seed{9, 9, 9}
	a := Expand(f, seed, 100)
	b := Expand(f, seed, 100)
	if !field.EqualVec(f, a, b) {
		t.Error("Expand is not deterministic")
	}
	// A prefix expansion must agree with a longer one.
	c := Expand(f, seed, 40)
	if !field.EqualVec(f, a[:40], c) {
		t.Error("Expand prefix mismatch")
	}
}

// expandRef is Expand as it was first written and as deployed peers still
// compute it: one SampleElem call per element, straight on the PRG. It is
// the reference the bulk sampler must reproduce bit for bit.
func expandRef[Fd field.Field[E], E any](f Fd, seed prg.Seed, n int) []E {
	g := prg.New(seed)
	out := make([]E, n)
	for i := range out {
		e, err := f.SampleElem(g)
		if err != nil {
			panic(err)
		}
		out[i] = e
	}
	return out
}

// TestExpandGoldenStream pins the element stream of a fixed seed. A server
// and a client of different versions agree on a share only if this never
// changes: a failure here is a wire-compatibility break, not a test to
// update.
func TestExpandGoldenStream(t *testing.T) {
	var seed prg.Seed
	for i := range seed {
		seed[i] = byte(i)
	}
	got := Expand(field.NewF64(), seed, 5130)
	first := []uint64{
		9393259258721313222, 8779988069026713455, 2212605065629484659, 733511032780979017,
		10134959094277592649, 11362724110925466083, 4089948183951289785, 6268086663616290128,
	}
	last := []uint64{
		14493445979332695911, 7408083939146988311, 11374888798020323742, 18107685700596511780,
		10115188669149227553, 17701470590105221467, 13285471782807797367, 3578761300338403138,
	}
	for i := range first {
		if got[i] != first[i] {
			t.Errorf("element %d = %d, want %d", i, got[i], first[i])
		}
		if j := len(got) - len(last) + i; got[j] != last[i] {
			t.Errorf("element %d = %d, want %d", j, got[j], last[i])
		}
	}
	// The 128-bit field reads the same keystream in 16-byte draws.
	wide := Expand(field.NewF128(), seed, 5130)
	if want := (field.U128{Lo: 3021491840464432276, Hi: 17298704840226492499}); wide[0] != want {
		t.Errorf("F128 element 0 = %v, want %v", wide[0], want)
	}
	if want := (field.U128{Lo: 8111510160207946378, Hi: 13747659239758283007}); wide[5129] != want {
		t.Errorf("F128 element 5129 = %v, want %v", wide[5129], want)
	}
}

// checkExpandMatchesRef compares Expand with the per-element reference over
// random seeds at lengths on both sides of the sampler's chunk size.
func checkExpandMatchesRef[Fd field.Field[E], E any](t *testing.T, f Fd) {
	t.Helper()
	for _, n := range []int{0, 1, 511, 512, 513, 5130} {
		for trial := 0; trial < 3; trial++ {
			seed, err := prg.NewSeed()
			if err != nil {
				t.Fatal(err)
			}
			if !field.EqualVec(f, Expand(f, seed, n), expandRef(f, seed, n)) {
				t.Errorf("%s n=%d seed=%x: bulk expansion differs from the per-element reference", f.Name(), n, seed)
			}
		}
	}
}

func TestExpandMatchesPerElementReference(t *testing.T) {
	checkExpandMatchesRef[field.F64, uint64](t, field.NewF64())
	checkExpandMatchesRef[field.F128, field.U128](t, field.NewF128())
	checkExpandMatchesRef(t, field.NewFP87())
	checkExpandMatchesRef[field.F2, uint8](t, field.NewF2())
}

// TestSplitSeededStreamsTheSameShares checks the streamed subtraction at a
// length of several chunks: the explicit share must be x minus exactly the
// expansions the seed holders will compute.
func TestSplitSeededStreamsTheSameShares(t *testing.T) {
	f := field.NewF64()
	x, err := field.SampleVec(f, rand.Reader, 5130)
	if err != nil {
		t.Fatal(err)
	}
	seeds, last, err := SplitSeeded(f, x, 3)
	if err != nil {
		t.Fatal(err)
	}
	sum := append([]uint64(nil), last...)
	for _, seed := range seeds {
		field.AddVec(f, sum, expandRef(f, seed, len(x)))
	}
	if !field.EqualVec(f, sum, x) {
		t.Error("explicit share plus reference expansions does not reconstruct x")
	}
}

func TestXorSplitReconstruct(t *testing.T) {
	words := []uint64{0xDEADBEEF, 0, ^uint64(0), 12345}
	for _, s := range []int{1, 2, 3, 7} {
		shares, err := XorSplit(words, s)
		if err != nil {
			t.Fatal(err)
		}
		got := XorReconstruct(shares...)
		for i := range words {
			if got[i] != words[i] {
				t.Errorf("s=%d: word %d = %x, want %x", s, i, got[i], words[i])
			}
		}
	}
}

func TestBadShareCounts(t *testing.T) {
	f := field.NewF64()
	if _, err := Split(f, rand.Reader, []uint64{1}, 0); err == nil {
		t.Error("Split accepted s=0")
	}
	if _, _, err := SplitSeeded(f, []uint64{1}, 0); err == nil {
		t.Error("SplitSeeded accepted s=0")
	}
	if _, err := XorSplit([]uint64{1}, 0); err == nil {
		t.Error("XorSplit accepted s=0")
	}
	if got := Reconstruct[field.F64, uint64](f); got != nil {
		t.Error("Reconstruct of nothing should be nil")
	}
}
