package snip

import (
	"crypto/rand"
	"math/big"
	"testing"

	"prio/internal/circuit"
	"prio/internal/field"
	"prio/internal/prg"
	"prio/internal/share"
)

// affine2 is an M == 0 circuit: valid inputs are pairs with x0 == x1.
func affine2[Fd field.Field[E], E any](f Fd) *circuit.Circuit[E] {
	b := circuit.NewBuilder(f, 2)
	b.AssertEqual(b.Input(0), b.Input(1))
	return b.Build()
}

// batchRun holds one full batch-protocol execution: s servers, each with a
// BatchState over the same batch, plus the per-submission opened masks.
type batchRun[Fd field.Field[E], E any] struct {
	f   Fd
	sys *System[Fd, E]
	ev  *Evaluator[Fd, E]
	bv  *BatchVerifier[Fd, E]
	s   int
	sts []*BatchState[E] // per server
	r1  [][]*Round1[E]   // [server][submission]
}

// newBatchRun shares every input and proof across s servers, runs the batch
// Round1 on each server, opens the Beaver masks, and feeds them back.
func newBatchRun[Fd field.Field[E], E any](t *testing.T, f Fd, sys *System[Fd, E], ev *Evaluator[Fd, E], xs [][]E, pfs []*Proof[E], s int) *batchRun[Fd, E] {
	t.Helper()
	b := len(xs)
	xsh := make([][][]E, s) // [server][submission]
	pfsh := make([][]*Proof[E], s)
	for k := 0; k < s; k++ {
		xsh[k] = make([][]E, b)
		pfsh[k] = make([]*Proof[E], b)
	}
	for i := 0; i < b; i++ {
		xp, err := share.Split(f, rand.Reader, xs[i], s)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := sys.Split(pfs[i], s, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < s; k++ {
			xsh[k][i] = xp[k]
			pfsh[k][i] = pp[k]
		}
	}
	br := &batchRun[Fd, E]{f: f, sys: sys, ev: ev, bv: ev.Batch(), s: s}
	br.sts = make([]*BatchState[E], s)
	br.r1 = make([][]*Round1[E], s)
	for k := 0; k < s; k++ {
		st, msgs, err := br.bv.Round1(xsh[k], pfsh[k], k == 0)
		if err != nil {
			t.Fatalf("batch Round1 server %d: %v", k, err)
		}
		br.sts[k] = st
		br.r1[k] = msgs
	}
	opened := make([]*Round1[E], b)
	for i := 0; i < b; i++ {
		per := make([]*Round1[E], s)
		for k := 0; k < s; k++ {
			per[k] = br.r1[k][i]
		}
		opened[i] = SumRound1(f, per)
	}
	for k := 0; k < s; k++ {
		if err := br.bv.SetOpened(br.sts[k], opened, s); err != nil {
			t.Fatalf("SetOpened server %d: %v", k, err)
		}
	}
	return br
}

// combined runs the RLC check over [lo, hi) across all servers.
func (br *batchRun[Fd, E]) combined(t *testing.T, lambda []E, lo, hi int) bool {
	t.Helper()
	r2 := make([]*Round2[E], br.s)
	for k := 0; k < br.s; k++ {
		m, err := br.bv.Combined(br.sts[k], lambda, lo, hi)
		if err != nil {
			t.Fatalf("Combined server %d: %v", k, err)
		}
		r2[k] = m
	}
	return br.ev.Decide(r2)
}

// single runs the per-submission check for submission i off the batch state.
func (br *batchRun[Fd, E]) single(t *testing.T, i int) bool {
	t.Helper()
	r2 := make([]*Round2[E], br.s)
	for k := 0; k < br.s; k++ {
		m, err := br.bv.Single(br.sts[k], i)
		if err != nil {
			t.Fatalf("Single server %d: %v", k, err)
		}
		r2[k] = m
	}
	return br.ev.Decide(r2)
}

func freshSeed(t *testing.T) prg.Seed {
	t.Helper()
	var seed prg.Seed
	if _, err := rand.Read(seed[:]); err != nil {
		t.Fatal(err)
	}
	return seed
}

// TestBatchRound1MatchesLegacy checks that the batch pass produces exactly
// the wire messages and per-submission Round2 values of the legacy
// per-submission path, over both the F64 slab fast path and the generic
// path (F128), for both M > 0 and M == 0 circuit shapes.
func TestBatchRound1MatchesLegacy(t *testing.T) {
	t.Run("F64", func(t *testing.T) { testBatchMatchesLegacy(t, field.NewF64()) })
	t.Run("F128", func(t *testing.T) { testBatchMatchesLegacy(t, field.NewF128()) })
}

func testBatchMatchesLegacy[Fd field.Field[E], E any](t *testing.T, f Fd) {
	for _, mk := range []struct {
		name string
		c    *circuit.Circuit[E]
		x    func(i int) []E
	}{
		{"range4", range4(f), func(i int) []E { return encode4(f, uint64(i)%16) }},
		{"affine2", affine2(f), func(i int) []E {
			v := f.FromUint64(uint64(i))
			return []E{v, v}
		}},
	} {
		t.Run(mk.name, func(t *testing.T) {
			sys, err := NewSystem(f, mk.c, Params{Reps: 2})
			if err != nil {
				t.Fatal(err)
			}
			ch, err := sys.NewChallenge(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			ev := sys.NewEvaluator(ch)
			const b, s = 7, 3
			xs := make([][]E, b)
			pfs := make([]*Proof[E], b)
			for i := range xs {
				xs[i] = mk.x(i)
				if pfs[i], err = sys.Prove(xs[i], rand.Reader); err != nil {
					t.Fatal(err)
				}
			}
			// One fixed sharing driven through BOTH paths.
			xsh := make([][][]E, s)
			pfsh := make([][]*Proof[E], s)
			for k := 0; k < s; k++ {
				xsh[k] = make([][]E, b)
				pfsh[k] = make([]*Proof[E], b)
			}
			for i := 0; i < b; i++ {
				xp, err := share.Split(f, rand.Reader, xs[i], s)
				if err != nil {
					t.Fatal(err)
				}
				pp, err := sys.Split(pfs[i], s, rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k < s; k++ {
					xsh[k][i], pfsh[k][i] = xp[k], pp[k]
				}
			}
			bv := ev.Batch()
			legacySt := make([][]*State[E], s) // [server][submission]
			legacyR1 := make([][]*Round1[E], s)
			batchSt := make([]*BatchState[E], s)
			batchR1 := make([][]*Round1[E], s)
			for k := 0; k < s; k++ {
				legacySt[k] = make([]*State[E], b)
				legacyR1[k] = make([]*Round1[E], b)
				for i := 0; i < b; i++ {
					st, m, err := ev.Round1(xsh[k][i], pfsh[k][i], k == 0)
					if err != nil {
						t.Fatal(err)
					}
					legacySt[k][i], legacyR1[k][i] = st, m
				}
				st, msgs, err := bv.Round1(xsh[k], pfsh[k], k == 0)
				if err != nil {
					t.Fatal(err)
				}
				batchSt[k], batchR1[k] = st, msgs
			}
			eq := func(a, b []E) bool {
				if len(a) != len(b) {
					return false
				}
				for i := range a {
					if !f.Equal(a[i], b[i]) {
						return false
					}
				}
				return true
			}
			for k := 0; k < s; k++ {
				for i := 0; i < b; i++ {
					if !eq(batchR1[k][i].D, legacyR1[k][i].D) || !eq(batchR1[k][i].E, legacyR1[k][i].E) {
						t.Fatalf("server %d submission %d: batch Round1 differs from legacy", k, i)
					}
				}
			}
			// Open and compare Round2 values per submission.
			opened := make([]*Round1[E], b)
			for i := 0; i < b; i++ {
				per := make([]*Round1[E], s)
				for k := 0; k < s; k++ {
					per[k] = legacyR1[k][i]
				}
				opened[i] = SumRound1(f, per)
			}
			for k := 0; k < s; k++ {
				if err := bv.SetOpened(batchSt[k], opened, s); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < b; i++ {
					want := ev.Round2(legacySt[k][i], opened[i], s)
					got, err := bv.Single(batchSt[k], i)
					if err != nil {
						t.Fatal(err)
					}
					if !eq(got.Sigma, want.Sigma) || !f.Equal(got.Tau, want.Tau) {
						t.Fatalf("server %d submission %d: Single differs from legacy Round2", k, i)
					}
				}
			}
		})
	}
}

// TestBatchCombinedHonest checks completeness: the RLC check accepts every
// all-honest batch, over full ranges and subranges.
func TestBatchCombinedHonest(t *testing.T) {
	f := field.NewF64()
	sys, err := NewSystem(f, range4(f), Params{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := sys.NewChallenge(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ev := sys.NewEvaluator(ch)
	const b, s = 9, 3
	xs := make([][]uint64, b)
	pfs := make([]*Proof[uint64], b)
	for i := range xs {
		xs[i] = encode4(f, uint64(i)%16)
		if pfs[i], err = sys.Prove(xs[i], rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	br := newBatchRun(t, f, sys, ev, xs, pfs, s)
	for _, rng := range [][2]int{{0, b}, {0, 1}, {b - 1, b}, {2, 6}} {
		lambda := RLCCoeffs(f, freshSeed(t), rng[1]-rng[0])
		if !br.combined(t, lambda, rng[0], rng[1]) {
			t.Fatalf("honest batch range [%d,%d) rejected", rng[0], rng[1])
		}
	}
}

// TestBatchCombinedPlanted plants invalid submissions (both invalid inputs,
// which break the assertion check τ, and tampered H shares, which break the
// polynomial identity σ) and checks that the RLC over any range containing
// one fails, while singleton checks identify exactly the planted set.
func TestBatchCombinedPlanted(t *testing.T) {
	f := field.NewF64()
	sys, err := NewSystem(f, range4(f), Params{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := sys.NewChallenge(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ev := sys.NewEvaluator(ch)
	const b, s = 8, 2
	bad := map[int]bool{2: true, 5: true, 6: true}
	xs := make([][]uint64, b)
	pfs := make([]*Proof[uint64], b)
	for i := range xs {
		xs[i] = encode4(f, uint64(i)%16)
		if bad[i] && i%2 == 0 {
			// Invalid input: claim value 9 with the bit pattern of i.
			xs[i][0] = f.FromUint64(9)
			if i == 2 {
				xs[i][0] = f.FromUint64(12)
			}
		}
		if pfs[i], err = sys.Prove(xs[i], rand.Reader); err != nil {
			t.Fatal(err)
		}
		if bad[i] && i%2 == 1 {
			// Valid input, corrupted proof: tamper one H evaluation.
			pfs[i].H[3] = f.Add(pfs[i].H[3], f.One())
		}
	}
	br := newBatchRun(t, f, sys, ev, xs, pfs, s)
	if br.combined(t, RLCCoeffs(f, freshSeed(t), b), 0, b) {
		t.Fatal("combined check accepted a batch with planted bad submissions")
	}
	if !br.combined(t, RLCCoeffs(f, freshSeed(t), 2), 3, 5) {
		t.Fatal("combined check rejected an all-honest subrange")
	}
	if br.combined(t, RLCCoeffs(f, freshSeed(t), 3), 4, 7) {
		t.Fatal("combined check accepted a subrange containing bad submissions")
	}
	for i := 0; i < b; i++ {
		if got := br.single(t, i); got != !bad[i] {
			t.Fatalf("submission %d: single verdict %v, want %v", i, got, !bad[i])
		}
		// A singleton RLC range with nonzero λ must agree with Single.
		if got := br.combined(t, RLCCoeffs(f, freshSeed(t), 1), i, i+1); got != !bad[i] {
			t.Fatalf("submission %d: singleton combined verdict %v, want %v", i, got, !bad[i])
		}
	}
}

// TestRLCCancelRegression crafts two bad submissions whose individual test
// values cancel exactly (σ_A = −σ_B): under a fixed all-ones combination the
// batch check is blind to them, which is why λ must be drawn fresh from
// crypto/rand-derived seeds per batch. The test demonstrates the attack
// against λ ≡ 1 and then checks that independently seeded challenges reject
// the pair.
func TestRLCCancelRegression(t *testing.T) {
	f := field.NewF64()
	sys, err := NewSystem(f, range4(f), Params{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := sys.NewChallenge(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ev := sys.NewEvaluator(ch)
	const s = 2
	xs := [][]uint64{encode4(f, 3), encode4(f, 11)}
	pfs := make([]*Proof[uint64], 2)
	for i := range pfs {
		if pfs[i], err = sys.Prove(xs[i], rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	// Mirror-image tampering: +δ on one proof's H point, −δ on the other's.
	// Both submissions are now invalid, with σ_A[j] = −σ_B[j] and τ = 0.
	delta := f.FromUint64(0xBEEF)
	pfs[0].H[3] = f.Add(pfs[0].H[3], delta)
	pfs[1].H[3] = f.Sub(pfs[1].H[3], delta)

	br := newBatchRun(t, f, sys, ev, xs, pfs, s)
	if br.single(t, 0) || br.single(t, 1) {
		t.Fatal("tampered submissions passed individual verification")
	}
	ones := []uint64{f.One(), f.One()}
	if !br.combined(t, ones, 0, 2) {
		t.Fatal("expected the crafted pair to cancel under λ ≡ 1; the attack setup is broken")
	}
	for trial := 0; trial < 8; trial++ {
		if br.combined(t, RLCCoeffs(f, freshSeed(t), 2), 0, 2) {
			t.Fatal("crafted cancelling pair accepted under an independent random challenge")
		}
	}
}

// TestRLCCoeffs checks the coefficient derivation: deterministic per seed,
// never zero, and different across seeds.
func TestRLCCoeffs(t *testing.T) {
	f := field.NewF64()
	var s1, s2 prg.Seed
	s2[0] = 1
	a := RLCCoeffs(f, s1, 64)
	b := RLCCoeffs(f, s1, 64)
	c := RLCCoeffs(f, s2, 64)
	same, diff := true, false
	for i := range a {
		if f.IsZero(a[i]) || f.IsZero(c[i]) {
			t.Fatal("RLCCoeffs produced a zero coefficient")
		}
		same = same && f.Equal(a[i], b[i])
		diff = diff || !f.Equal(a[i], c[i])
	}
	if !same {
		t.Fatal("RLCCoeffs is not deterministic in the seed")
	}
	if !diff {
		t.Fatal("RLCCoeffs ignores the seed")
	}
}

// TestRLCCoeffsStream pins the coefficient stream to the seed's share
// expansion with the zeros squeezed out — the per-element definition every
// deployed server derives λ from. Over F64 a zero never turns up, so the
// small field carries the squeeze: a fifth of its in-range draws are zero.
func TestRLCCoeffsStream(t *testing.T) {
	var seed prg.Seed
	seed[3] = 7
	f64 := field.NewF64()
	if !field.EqualVec(f64, RLCCoeffs(f64, seed, 600), share.Expand(f64, seed, 600)) {
		t.Error("F64 coefficients differ from the seed's expansion")
	}
	f5 := field.NewFP("F5", big.NewInt(5))
	stream := share.Expand(f5, seed, 4000)
	var want []*big.Int
	for _, e := range stream {
		if !f5.IsZero(e) {
			want = append(want, e)
		}
	}
	const n = 1500 // past one sampler chunk, so the squeeze refills mid-vector
	if len(want) < n || len(want) == len(stream) {
		t.Fatalf("stream of %d holds %d nonzero elements: no zero to squeeze", len(stream), len(want))
	}
	if !field.EqualVec(f5, RLCCoeffs(f5, seed, n), want[:n]) {
		t.Error("F5 coefficients are not the nonzero elements of the stream, in order")
	}
}

// TestBatchStateErrors drives the error paths: misuse must produce errors,
// never panics (the batch-verify fuzz target relies on this).
func TestBatchStateErrors(t *testing.T) {
	f := field.NewF64()
	sys, err := NewSystem(f, range4(f), Params{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := sys.NewChallenge(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bv := sys.NewEvaluator(ch).Batch()
	x := encode4(f, 5)
	pf, err := sys.Prove(x, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bv.Round1([][]uint64{x}, nil, true); err == nil {
		t.Fatal("count mismatch accepted")
	}
	if _, _, err := bv.Round1([][]uint64{x[:3]}, []*Proof[uint64]{pf}, true); err == nil {
		t.Fatal("short input accepted")
	}
	short := *pf
	short.H = short.H[:len(short.H)-1]
	if _, _, err := bv.Round1([][]uint64{x}, []*Proof[uint64]{&short}, true); err == nil {
		t.Fatal("truncated proof accepted")
	}
	st, msgs, err := bv.Round1([][]uint64{x}, []*Proof[uint64]{pf}, true)
	if err != nil {
		t.Fatal(err)
	}
	lambda := RLCCoeffs(f, prg.Seed{}, 1)
	if _, err := bv.Combined(st, lambda, 0, 1); err == nil {
		t.Fatal("Combined before SetOpened accepted")
	}
	if _, err := bv.Single(st, 0); err == nil {
		t.Fatal("Single before SetOpened accepted")
	}
	if err := bv.SetOpened(st, nil, 1); err == nil {
		t.Fatal("SetOpened with wrong count accepted")
	}
	if err := bv.SetOpened(st, msgs, 1); err != nil {
		t.Fatal(err)
	}
	for _, rng := range [][2]int{{-1, 1}, {0, 2}, {1, 1}, {0, 0}} {
		if _, err := bv.Combined(st, lambda, rng[0], rng[1]); err == nil {
			t.Fatalf("Combined accepted bad range %v", rng)
		}
	}
	if _, err := bv.Combined(st, lambda[:0], 0, 1); err == nil {
		t.Fatal("Combined accepted λ length mismatch")
	}
	if _, err := bv.Single(st, 1); err == nil {
		t.Fatal("Single accepted out-of-range index")
	}
}

// TestCachedEvaluator checks the shape/challenge-keyed memoization and its
// eviction bound.
func TestCachedEvaluator(t *testing.T) {
	f := field.NewF64()
	sys, err := NewSystem(f, range4(f), Params{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	ch1, err := sys.NewChallenge(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ev1 := sys.CachedEvaluator(ch1)
	if sys.CachedEvaluator(ch1) != ev1 {
		t.Fatal("same challenge did not hit the cache")
	}
	ch2, err := sys.NewChallenge(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if sys.CachedEvaluator(ch2) == ev1 {
		t.Fatal("distinct challenges shared an evaluator")
	}
	for i := 0; i < 2*evCacheCap; i++ {
		chI, err := sys.NewChallenge(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		sys.CachedEvaluator(chI)
	}
	sys.evMu.Lock()
	n := len(sys.evCache)
	sys.evMu.Unlock()
	if n > evCacheCap {
		t.Fatalf("evaluator cache grew to %d entries, cap is %d", n, evCacheCap)
	}
	// Evicted challenge rebuilds without error.
	if sys.CachedEvaluator(ch1) == nil {
		t.Fatal("rebuild after eviction failed")
	}
	if sys.ShapeKey() == "" {
		t.Fatal("empty shape key")
	}
}
