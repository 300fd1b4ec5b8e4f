package snip

import (
	"crypto/rand"
	"math/big"
	"testing"

	"prio/internal/circuit"
	"prio/internal/field"
	"prio/internal/mpc"
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

// TestBatchRound1MatchesLegacy checks the batch pass, which computes every
// Round1 output as rows of coefficients on a server's shares, against the
// per-submission circuit walk (Evaluator.Round1): for every benchmark shape,
// Prio-MPC's triple circuit, range4 and the M == 0 affine2, over F64, F128
// and FP87, on a batch of valid and invalid submissions shared across three
// servers (server 0 folds the constants), every D/E message, τ share,
// Single and singleton Combined must equal the circuit walk's.
func TestBatchRound1MatchesLegacy(t *testing.T) {
	t.Run("F64", func(t *testing.T) { testBatchMatchesLegacy(t, field.NewF64()) })
	t.Run("F128", func(t *testing.T) { testBatchMatchesLegacy(t, field.NewF128()) })
	t.Run("FP87", func(t *testing.T) { testBatchMatchesLegacy(t, field.NewFP87()) })
}

// legacyShape is a circuit with one input it accepts and one it rejects.
type legacyShape[E any] struct {
	name           string
	c              *circuit.Circuit[E]
	valid, invalid []E
}

func legacyShapes[Fd field.Field[E], E any](t *testing.T, f Fd) []legacyShape[E] {
	var shapes []legacyShape[E]
	for _, sh := range proveShapes(t, f) {
		bad := make([]E, len(sh.x))
		for i := range bad {
			bad[i] = f.FromUint64(3)
		}
		shapes = append(shapes, legacyShape[E]{sh.name, sh.c, sh.x, bad})
	}
	const m = 8
	triples, err := mpc.DealTriples(f, m, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	badTriples := append([]E(nil), triples...)
	badTriples[3*m-1] = f.Add(badTriples[3*m-1], f.One())
	shapes = append(shapes, legacyShape[E]{"triples8", mpc.TripleCircuit(f, m), triples, badTriples})
	badRange := encode4(f, 11)
	badRange[0] = f.FromUint64(12)
	shapes = append(shapes, legacyShape[E]{"range4", range4(f), encode4(f, 11), badRange})
	v := f.FromUint64(5)
	shapes = append(shapes, legacyShape[E]{"affine2", affine2(f), []E{v, v}, []E{v, f.Add(v, f.One())}})
	return shapes
}

func testBatchMatchesLegacy[Fd field.Field[E], E any](t *testing.T, f Fd) {
	for _, sh := range legacyShapes(t, f) {
		t.Run(sh.name, func(t *testing.T) {
			sys, err := NewSystem(f, sh.c, Params{Reps: 2})
			if err != nil {
				t.Fatal(err)
			}
			ch, err := sys.NewChallenge(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			ev := sys.NewEvaluator(ch)
			const b, s = 4, 3
			// Even submissions are valid, odd ones invalid.
			xs := make([][]E, b)
			pfs := make([]*Proof[E], b)
			for i := range xs {
				xs[i] = sh.valid
				if i%2 == 1 {
					xs[i] = sh.invalid
				}
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
				batchSt[k] = st
				for i := 0; i < b; i++ {
					if !field.EqualVec(f, msgs[i].D, legacyR1[k][i].D) || !field.EqualVec(f, msgs[i].E, legacyR1[k][i].E) {
						t.Fatalf("server %d submission %d: batch Round1 differs from the circuit walk", k, i)
					}
					if !f.Equal(st.taus[i], legacySt[k][i].tau) {
						t.Fatalf("server %d submission %d: batch τ share differs from the circuit walk", k, i)
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
			lambda := RLCCoeffs(f, freshSeed(t), 1)
			for k := 0; k < s; k++ {
				if err := bv.SetOpened(batchSt[k], opened, s); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < b; i++ {
				want := make([]*Round2[E], s)
				for k := 0; k < s; k++ {
					want[k] = ev.Round2(legacySt[k][i], opened[i], s)
					got, err := bv.Single(batchSt[k], i)
					if err != nil {
						t.Fatal(err)
					}
					if !field.EqualVec(f, got.Sigma, want[k].Sigma) || !f.Equal(got.Tau, want[k].Tau) {
						t.Fatalf("server %d submission %d: Single differs from the circuit walk's Round2", k, i)
					}
					comb, err := bv.Combined(batchSt[k], lambda, i, i+1)
					if err != nil {
						t.Fatal(err)
					}
					scaled := append([]E(nil), want[k].Sigma...)
					field.ScaleVec(f, scaled, lambda[0])
					if !field.EqualVec(f, comb.Sigma, scaled) || !f.Equal(comb.Tau, f.Mul(lambda[0], want[k].Tau)) {
						t.Fatalf("server %d submission %d: singleton Combined is not λ times the circuit walk's Round2", k, i)
					}
				}
				if ev.Decide(want) != (i%2 == 0) {
					t.Fatalf("submission %d: the circuit walk's verdict is %v", i, ev.Decide(want))
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

// TestCachedEvaluator checks the seed-keyed memoization: a seed expands to
// the challenge NewChallenge reads from prg.New(seed), a repeated seed hits,
// a stream keeps its two most recently used seeds, and streams do not evict
// each other however many there are.
func TestCachedEvaluator(t *testing.T) {
	f := field.NewF64()
	sys, err := NewSystem(f, range4(f), Params{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	seed := func(i int) prg.Seed { return prg.Seed{byte(i), byte(i >> 8), 0xC0} }
	ev1 := sys.CachedEvaluator(0, seed(1))
	want, err := sys.NewChallenge(prg.New(seed(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(f, ev1.ch.R, want.R) || !field.EqualVec(f, ev1.ch.Rho, want.Rho) {
		t.Fatal("cached challenge differs from the seed's expansion")
	}
	if sys.CachedEvaluator(0, seed(1)) != ev1 {
		t.Fatal("same seed did not hit the cache")
	}
	ev2 := sys.CachedEvaluator(0, seed(2))
	if ev2 == ev1 {
		t.Fatal("distinct seeds shared an evaluator")
	}
	// A rotation keeps the seed before it; the next one retires the seed
	// the stream used least recently.
	if sys.CachedEvaluator(0, seed(1)) != ev1 || sys.CachedEvaluator(0, seed(2)) != ev2 {
		t.Fatal("a stream's previous seed was not kept")
	}
	sys.CachedEvaluator(0, seed(3))
	if sys.CachedEvaluator(0, seed(2)) != ev2 {
		t.Fatal("the stream's most recent seed was evicted")
	}
	hits, misses := sys.EvCacheStats()
	if hits != 4 || misses != 3 {
		t.Errorf("stats %d hits / %d misses, want 4 / 3", hits, misses)
	}
	if sys.CachedEvaluator(0, seed(1)) == ev1 {
		t.Error("the stream kept a third seed")
	}
	// 300 streams, each across a rotation, cycled twice: the second pass
	// builds nothing.
	const streams = 300
	for pass := 0; pass < 2; pass++ {
		_, before := sys.EvCacheStats()
		for s := uint64(1); s <= streams; s++ {
			sys.CachedEvaluator(s, seed(int(2*s)))
			sys.CachedEvaluator(s, seed(int(2*s+1)))
		}
		_, after := sys.EvCacheStats()
		if wantBuilt := uint64(2 * streams * (1 - pass)); after-before != wantBuilt {
			t.Errorf("pass %d over %d streams built %d evaluators, want %d", pass, streams, after-before, wantBuilt)
		}
	}
}
