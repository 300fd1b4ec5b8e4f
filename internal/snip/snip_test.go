package snip

import (
	"crypto/rand"
	"testing"

	"prio/internal/circuit"
	"prio/internal/field"
	"prio/internal/share"
)

// range4 is the 4-bit integer validity circuit (value + 4 bits, M = 4).
func range4[Fd field.Field[E], E any](f Fd) *circuit.Circuit[E] {
	b := circuit.NewBuilder(f, 5)
	bits := []circuit.Wire{b.Input(1), b.Input(2), b.Input(3), b.Input(4)}
	b.AssertBitDecomposition(b.Input(0), bits)
	return b.Build()
}

func encode4[Fd field.Field[E], E any](f Fd, v uint64) []E {
	return []E{
		f.FromUint64(v),
		f.FromUint64(v & 1),
		f.FromUint64((v >> 1) & 1),
		f.FromUint64((v >> 2) & 1),
		f.FromUint64((v >> 3) & 1),
	}
}

// runProtocol shares x, proves, and runs distributed verification with s
// servers, returning the decision.
func runProtocol[Fd field.Field[E], E any](t *testing.T, f Fd, sys *System[Fd, E], x []E, s int) bool {
	t.Helper()
	pf, err := sys.Prove(x, rand.Reader)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	return verifyShared(t, f, sys, x, pf, s)
}

func verifyShared[Fd field.Field[E], E any](t *testing.T, f Fd, sys *System[Fd, E], x []E, pf *Proof[E], s int) bool {
	t.Helper()
	xShares, err := share.Split(f, rand.Reader, x, s)
	if err != nil {
		t.Fatal(err)
	}
	pfShares, err := sys.Split(pf, s, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := sys.NewChallenge(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ev := sys.NewEvaluator(ch)
	ok, err := ev.VerifyDistributed(xShares, pfShares)
	if err != nil {
		t.Fatalf("VerifyDistributed: %v", err)
	}
	return ok
}

func TestCompletenessF64(t *testing.T) {
	f := field.NewF64()
	for _, reps := range []int{1, 2, 3} {
		sys, err := NewSystem(f, range4(f), Params{Reps: reps})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []int{1, 2, 5} {
			for v := uint64(0); v < 16; v += 5 {
				if !runProtocol(t, f, sys, encode4(f, v), s) {
					t.Errorf("reps=%d s=%d v=%d: honest submission rejected", reps, s, v)
				}
			}
		}
	}
}

func TestCompletenessF128(t *testing.T) {
	f := field.NewF128()
	sys, err := NewSystem(f, range4(f), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !runProtocol(t, f, sys, encode4(f, 9), 3) {
		t.Error("F128 honest submission rejected")
	}
}

func TestCompletenessFP87(t *testing.T) {
	f := field.NewFP87()
	sys, err := NewSystem(f, range4(f), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !runProtocol(t, f, sys, encode4(f, 13), 2) {
		t.Error("FP87 honest submission rejected")
	}
}

func TestRejectsInvalidData(t *testing.T) {
	f := field.NewF64()
	sys, err := NewSystem(f, range4(f), Params{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]uint64{
		{16, 0, 0, 0, 0},                   // value/bits inconsistent
		{3, 1, 1, 1, 0},                    // bits encode 7, value says 3
		{2, 0, 2, 0, 0},                    // non-bit entry
		{1, field.ModulusF64 - 1, 1, 0, 0}, // wrap-around attack: -1 and ... bits
	}
	for i, x := range bad {
		if runProtocol(t, f, sys, x, 3) {
			t.Errorf("invalid submission %d accepted", i)
		}
	}
}

func TestRejectsLargeValueAttack(t *testing.T) {
	// The headline robustness scenario from Section 1: a client tries to add
	// r >> 1 to a sum that should accept only 0/1 values.
	f := field.NewF64()
	b := circuit.NewBuilder(f, 1)
	b.AssertBit(b.Input(0))
	c := b.Build()
	sys, err := NewSystem(f, c, Params{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{2, 100000, field.ModulusF64 - 1} {
		if runProtocol(t, f, sys, []uint64{v}, 5) {
			t.Errorf("out-of-range value %d accepted", v)
		}
	}
	for _, v := range []uint64{0, 1} {
		if !runProtocol(t, f, sys, []uint64{v}, 5) {
			t.Errorf("honest bit %d rejected", v)
		}
	}
}

// TestRejectsTamperedProofs mutates every component of an otherwise honest
// proof and checks the verifiers reject. This exercises the soundness
// theorem (Appendix D.1): any deviation makes the tested polynomial nonzero.
func TestRejectsTamperedProofs(t *testing.T) {
	f := field.NewF64()
	sys, err := NewSystem(f, range4(f), Params{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := encode4(f, 11)

	mutations := []struct {
		name string
		fn   func(pf *Proof[uint64])
	}{
		{"F0", func(pf *Proof[uint64]) { pf.F0 = f.Add(pf.F0, 1) }},
		{"G0", func(pf *Proof[uint64]) { pf.G0 = f.Add(pf.G0, 1) }},
		{"FPad", func(pf *Proof[uint64]) { pf.FPad[0] = f.Add(pf.FPad[0], 1) }},
		{"H-mul-point", func(pf *Proof[uint64]) { pf.H[2] = f.Add(pf.H[2], 1) }},
		{"H-odd-point", func(pf *Proof[uint64]) { pf.H[sys.M+sys.Reps+1] = f.Add(pf.H[sys.M+sys.Reps+1], 1) }},
		{"H-last", func(pf *Proof[uint64]) { pf.H[len(pf.H)-1] = f.Add(pf.H[len(pf.H)-1], 5) }},
		{"triple-A", func(pf *Proof[uint64]) { pf.Triples[0].A = f.Add(pf.Triples[0].A, 1) }},
		{"triple-B", func(pf *Proof[uint64]) { pf.Triples[0].B = f.Add(pf.Triples[0].B, 1) }},
		{"triple-C", func(pf *Proof[uint64]) { pf.Triples[0].C = f.Add(pf.Triples[0].C, 1) }},
		{"triple-C-rep2", func(pf *Proof[uint64]) { pf.Triples[1].C = f.Add(pf.Triples[1].C, 7) }},
	}
	for _, m := range mutations {
		pf, err := sys.Prove(x, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		m.fn(pf)
		if verifyShared(t, f, sys, x, pf, 3) {
			t.Errorf("mutation %q accepted", m.name)
		}
	}
}

// TestRejectsForgedMulOutput models the canonical cheating strategy: the
// client fabricates an h whose value at a multiplication point hides an
// invalid wire (claiming 2·(2−1) = 0 so that the bit check passes). The
// polynomial identity test must catch it.
func TestRejectsForgedMulOutput(t *testing.T) {
	f := field.NewF64()
	b := circuit.NewBuilder(f, 1)
	b.AssertBit(b.Input(0))
	c := b.Build()
	sys, err := NewSystem(f, c, Params{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := []uint64{2} // not a bit: u=2, v=1, true product 2
	pf, err := sys.Prove(x, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Erase the true product at the multiplication point so the assertion
	// wire share sums to zero.
	delta := f.Sub(0, pf.H[1])
	pf.H[1] = f.Add(pf.H[1], delta)
	accepted := 0
	for trial := 0; trial < 10; trial++ {
		if verifyShared(t, f, sys, x, pf, 3) {
			accepted++
		}
	}
	if accepted > 0 {
		t.Errorf("forged mul output accepted %d/10 times", accepted)
	}
}

func TestAffineOnlyCircuit(t *testing.T) {
	// M = 0: sum of inputs must equal 10; no polynomial machinery at all.
	f := field.NewF64()
	b := circuit.NewBuilder(f, 3)
	sum := b.Sum([]circuit.Wire{b.Input(0), b.Input(1), b.Input(2)})
	b.AssertEqual(sum, b.Const(10))
	c := b.Build()
	sys, err := NewSystem(f, c, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.ProofLen() != 0 {
		t.Errorf("affine circuit proof length = %d, want 0", sys.ProofLen())
	}
	if !runProtocol(t, f, sys, []uint64{1, 2, 7}, 4) {
		t.Error("valid affine submission rejected")
	}
	if runProtocol(t, f, sys, []uint64{1, 2, 8}, 4) {
		t.Error("invalid affine submission accepted")
	}
}

func TestProofLen(t *testing.T) {
	f := field.NewF64()
	sys, err := NewSystem(f, range4(f), Params{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := sys.Prove(encode4(f, 5), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got := 2 + len(pf.FPad) + len(pf.GPad) + len(pf.H) + 3*len(pf.Triples)
	if got != sys.ProofLen() {
		t.Errorf("actual proof elements %d != ProofLen %d", got, sys.ProofLen())
	}
	// M=4, reps=2 → need 6 points → N=8, proof = 2 + 2 + (8+4+2) + 6 = 24:
	// h's 2N = 16 points less the N−M−Reps = 2 even ones known to be zero.
	if sys.N != 8 {
		t.Errorf("N = %d, want 8", sys.N)
	}
	if sys.ProofLen() != 24 {
		t.Errorf("ProofLen = %d, want 24", sys.ProofLen())
	}
}

func TestChallengeAvoidsDomain(t *testing.T) {
	f := field.NewF64()
	sys, err := NewSystem(f, range4(f), Params{Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ch, err := sys.NewChallenge(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		for _, r := range ch.R {
			if f.Equal(field.Pow(f, r, uint64(2*sys.N)), f.One()) {
				t.Fatal("challenge point lies in the NTT domain")
			}
			if seen[r] {
				t.Fatal("repeated challenge point")
			}
			seen[r] = true
		}
		if len(ch.Rho) != len(sys.C.Asserts) {
			t.Fatal("wrong number of assertion coefficients")
		}
	}
}

func TestDimensionChecks(t *testing.T) {
	f := field.NewF64()
	sys, err := NewSystem(f, range4(f), Params{})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := sys.NewChallenge(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ev := sys.NewEvaluator(ch)
	x := encode4(f, 3)
	pf, err := sys.Prove(x, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ev.Round1(x[:3], pf, true); err == nil {
		t.Error("Round1 accepted short input share")
	}
	short := *pf
	short.H = pf.H[:len(pf.H)-1]
	if _, _, err := ev.Round1(x, &short, true); err == nil {
		t.Error("Round1 accepted truncated H")
	}
	noTriples := *pf
	noTriples.Triples = nil
	if _, _, err := ev.Round1(x, &noTriples, true); err == nil {
		t.Error("Round1 accepted missing triples")
	}
}

func TestOpenedMasksAreRandomized(t *testing.T) {
	// The opened Beaver values d = f(r) − a and e = r·g(r) − b must change
	// across protocol runs on identical data: they are what the adversary
	// sees, and their uniformity is the heart of the zero-knowledge argument
	// (Appendix D.2).
	f := field.NewF64()
	sys, err := NewSystem(f, range4(f), Params{})
	if err != nil {
		t.Fatal(err)
	}
	x := encode4(f, 7)
	ch, err := sys.NewChallenge(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ev := sys.NewEvaluator(ch)

	seen := map[[2]uint64]bool{}
	for i := 0; i < 30; i++ {
		pf, err := sys.Prove(x, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		xs, err := share.Split(f, rand.Reader, x, 2)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := sys.Split(pf, 2, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		var r1s []*Round1[uint64]
		var states []*State[uint64]
		for j := 0; j < 2; j++ {
			st, m, err := ev.Round1(xs[j], ps[j], j == 0)
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, st)
			r1s = append(r1s, m)
		}
		opened := SumRound1(f, r1s)
		key := [2]uint64{opened.D[0], opened.E[0]}
		if seen[key] {
			t.Fatal("opened (d,e) repeated across runs: Beaver masks are not fresh")
		}
		seen[key] = true
		// The run must still verify.
		r2 := []*Round2[uint64]{ev.Round2(states[0], opened, 2), ev.Round2(states[1], opened, 2)}
		if !ev.Decide(r2) {
			t.Fatal("honest run rejected")
		}
	}
}

func TestFieldTooSmall(t *testing.T) {
	// F2 has two-adicity 0; any circuit with a multiplication gate must be
	// refused.
	f := field.NewF2()
	b := circuit.NewBuilder(f, 1)
	b.AssertBit(b.Input(0))
	c := b.Build()
	if _, err := NewSystem(f, c, Params{}); err == nil {
		t.Error("NewSystem accepted a field with insufficient two-adicity")
	}
}

func TestDecideRejectsEmptyAndMismatched(t *testing.T) {
	f := field.NewF64()
	sys, err := NewSystem(f, range4(f), Params{})
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := sys.NewChallenge(rand.Reader)
	ev := sys.NewEvaluator(ch)
	if ev.Decide(nil) {
		t.Error("Decide accepted empty message set")
	}
	if ev.Decide([]*Round2[uint64]{{Sigma: []uint64{0}}, {Sigma: []uint64{0, 0}}}) {
		t.Error("Decide accepted mismatched sigma lengths")
	}
}
