package snip

import (
	"crypto/rand"
	"testing"
	"testing/quick"

	"prio/internal/circuit"
	"prio/internal/field"
	"prio/internal/share"
)

// TestCompletenessQuick: for random b-bit values and random share counts,
// the full SNIP protocol accepts honest submissions.
func TestCompletenessQuick(t *testing.T) {
	f := field.NewF64()
	sysCache := map[int]*System[field.F64, uint64]{}
	err := quick.Check(func(v uint16, sRaw, bitsRaw uint8) bool {
		bits := int(bitsRaw%12) + 1
		s := int(sRaw%5) + 1
		val := uint64(v) & ((1 << uint(bits)) - 1)
		sys, ok := sysCache[bits]
		if !ok {
			b := circuit.NewBuilder(f, bits+1)
			ws := make([]circuit.Wire, bits)
			for i := range ws {
				ws[i] = b.Input(i + 1)
			}
			b.AssertBitDecomposition(b.Input(0), ws)
			var err error
			sys, err = NewSystem(f, b.Build(), Params{Reps: 1})
			if err != nil {
				t.Fatal(err)
			}
			sysCache[bits] = sys
		}
		x := make([]uint64, bits+1)
		x[0] = val
		for i := 0; i < bits; i++ {
			x[i+1] = (val >> uint(i)) & 1
		}
		pf, err := sys.Prove(x, rand.Reader)
		if err != nil {
			return false
		}
		xs, err := share.Split(f, rand.Reader, x, s)
		if err != nil {
			return false
		}
		ps, err := sys.Split(pf, s, rand.Reader)
		if err != nil {
			return false
		}
		ch, err := sys.NewChallenge(rand.Reader)
		if err != nil {
			return false
		}
		ok2, err := sys.NewEvaluator(ch).VerifyDistributed(xs, ps)
		return err == nil && ok2
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSoundnessQuick: random non-bit values are rejected.
func TestSoundnessQuick(t *testing.T) {
	f := field.NewF64()
	b := circuit.NewBuilder(f, 1)
	b.AssertBit(b.Input(0))
	sys, err := NewSystem(f, b.Build(), Params{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = quick.Check(func(v uint64) bool {
		v %= field.ModulusF64
		if v == 0 || v == 1 {
			return true // valid values are covered by completeness
		}
		x := []uint64{v}
		pf, err := sys.Prove(x, rand.Reader)
		if err != nil {
			return false
		}
		xs, err := share.Split(f, rand.Reader, x, 2)
		if err != nil {
			return false
		}
		ps, err := sys.Split(pf, 2, rand.Reader)
		if err != nil {
			return false
		}
		ch, err := sys.NewChallenge(rand.Reader)
		if err != nil {
			return false
		}
		accepted, err := sys.NewEvaluator(ch).VerifyDistributed(xs, ps)
		return err == nil && !accepted
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFlattenRoundTripQuick: proof (un)flattening is lossless — the property
// the PRG share-compression pipeline depends on.
func TestFlattenRoundTripQuick(t *testing.T) {
	f := field.NewF64()
	b := circuit.NewBuilder(f, 3)
	for i := 0; i < 3; i++ {
		b.AssertBit(b.Input(i))
	}
	sys, err := NewSystem(f, b.Build(), Params{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = quick.Check(func(bits uint8) bool {
		x := []uint64{uint64(bits) & 1, uint64(bits>>1) & 1, uint64(bits>>2) & 1}
		pf, err := sys.Prove(x, rand.Reader)
		if err != nil {
			return false
		}
		flat := sys.FlattenProof(pf)
		if len(flat) != sys.ProofLen() {
			return false
		}
		back, err := sys.UnflattenProof(flat)
		if err != nil {
			return false
		}
		if !f.Equal(back.F0, pf.F0) || !f.Equal(back.G0, pf.G0) {
			return false
		}
		if !field.EqualVec(f, back.H, pf.H) {
			return false
		}
		for j := range pf.Triples {
			if back.Triples[j] != pf.Triples[j] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.UnflattenProof(make([]uint64, sys.ProofLen()-1)); err == nil {
		t.Error("UnflattenProof accepted short vector")
	}
}

// TestShareSumEqualsProof: the sum of proof shares reconstructs the proof —
// additive sharing must be component-exact.
func TestShareSumEqualsProof(t *testing.T) {
	f := field.NewF64()
	b := circuit.NewBuilder(f, 2)
	b.AssertBit(b.Input(0))
	b.AssertBit(b.Input(1))
	sys, err := NewSystem(f, b.Build(), Params{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := sys.Prove([]uint64{1, 0}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := sys.Split(pf, 4, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]uint64, sys.ProofLen())
	for _, sh := range shares {
		field.AddVec(f, sum, sys.FlattenProof(sh))
	}
	if !field.EqualVec(f, sum, sys.FlattenProof(pf)) {
		t.Error("proof shares do not sum to the proof")
	}
}

// TestHEncodesTrueProducts pins the indexing convention: H[t+1] must be the
// output of multiplication gate t.
func TestHEncodesTrueProducts(t *testing.T) {
	f := field.NewF64()
	b := circuit.NewBuilder(f, 2)
	m1 := b.Mul(b.Input(0), b.Input(1)) // 6*7 = 42
	b.Mul(m1, b.Input(0))               // 42*6 = 252
	b.AssertZero(b.Sub(m1, m1))
	sys, err := NewSystem(f, b.Build(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := sys.Prove([]uint64{6, 7}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if pf.H[1] != 42 {
		t.Errorf("H[1] = %d, want 42", pf.H[1])
	}
	if pf.H[2] != 252 {
		t.Errorf("H[2] = %d, want 252", pf.H[2])
	}
}

// TestRejectsDataShareTamper: a malicious server (or corrupted channel)
// flipping a data share makes the honest servers reject — they can no
// longer reconstruct consistent polynomials.
func TestRejectsDataShareTamper(t *testing.T) {
	f := field.NewF64()
	b := circuit.NewBuilder(f, 1)
	b.AssertBit(b.Input(0))
	sys, err := NewSystem(f, b.Build(), Params{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := []uint64{1}
	pf, err := sys.Prove(x, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	xs, err := share.Split(f, rand.Reader, x, 3)
	if err != nil {
		t.Fatal(err)
	}
	xs[1][0] = f.Add(xs[1][0], 1) // tampered share
	ps, err := sys.Split(pf, 3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := sys.NewChallenge(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := sys.NewEvaluator(ch).VerifyDistributed(xs, ps)
	if err != nil {
		t.Fatal(err)
	}
	if accepted {
		t.Error("tampered data share accepted")
	}
}
