package circuit_test

import (
	"crypto/rand"
	mrand "math/rand"
	"testing"

	"prio/internal/circuit"
	"prio/internal/field"
	"prio/internal/share"
	"prio/internal/snip"
)

// TestRowsMatchCircuitWalk checks the SNIP batch verifier, which computes
// each Round1 output as a row of coefficients on a server's shares built by
// one reverse pass over the circuit, against the per-submission circuit
// walk on random circuits that use all six gate operations: on three
// servers, the constant server first, every D/E message and every Round2
// share (σ and τ) must be equal.
func TestRowsMatchCircuitWalk(t *testing.T) {
	const circuits, s = 60, 3
	f := field.NewF64()
	rng := mrand.New(mrand.NewSource(7))
	ops := map[circuit.Op]int{}
	for seed := int64(0); seed < circuits; seed++ {
		c := circuit.RandCircuit(seed, 1+rng.Intn(12), 30)
		for _, g := range c.Gates {
			ops[g.Op]++
		}
		sys, err := snip.NewSystem(f, c, snip.Params{Reps: 2})
		if err != nil {
			t.Fatal(err)
		}
		ch, err := sys.NewChallenge(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		ev := sys.NewEvaluator(ch)
		bv := ev.Batch()
		const b = 3
		xsh := make([][][]uint64, s) // [server][submission]
		pfsh := make([][]*snip.Proof[uint64], s)
		for i := 0; i < b; i++ {
			x, err := field.SampleVec(f, rand.Reader, c.NumInputs)
			if err != nil {
				t.Fatal(err)
			}
			pf, err := sys.Prove(x, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			xp, err := share.Split(f, rand.Reader, x, s)
			if err != nil {
				t.Fatal(err)
			}
			pp, err := sys.Split(pf, s, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < s; k++ {
				xsh[k] = append(xsh[k], xp[k])
				pfsh[k] = append(pfsh[k], pp[k])
			}
		}
		sts := make([][]*snip.State[uint64], s) // the walk's, [server][submission]
		walk := make([][]*snip.Round1[uint64], s)
		bsts := make([]*snip.BatchState[uint64], s)
		for k := 0; k < s; k++ {
			for i := 0; i < b; i++ {
				st, m, err := ev.Round1(xsh[k][i], pfsh[k][i], k == 0)
				if err != nil {
					t.Fatal(err)
				}
				sts[k], walk[k] = append(sts[k], st), append(walk[k], m)
			}
			st, msgs, err := bv.Round1(xsh[k], pfsh[k], k == 0)
			if err != nil {
				t.Fatal(err)
			}
			bsts[k] = st
			for i, m := range msgs {
				if !field.EqualVec(f, m.D, walk[k][i].D) || !field.EqualVec(f, m.E, walk[k][i].E) {
					t.Fatalf("circuit %d (M = %d), server %d, submission %d: rows' D/E differ from the walk's", seed, c.M(), k, i)
				}
			}
		}
		opened := make([]*snip.Round1[uint64], b)
		for i := range opened {
			opened[i] = snip.SumRound1(f, []*snip.Round1[uint64]{walk[0][i], walk[1][i], walk[2][i]})
		}
		for k := 0; k < s; k++ {
			if err := bv.SetOpened(bsts[k], opened, s); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < b; i++ {
				want := ev.Round2(sts[k][i], opened[i], s)
				got, err := bv.Single(bsts[k], i)
				if err != nil {
					t.Fatal(err)
				}
				if got.Tau != want.Tau || !field.EqualVec(f, got.Sigma, want.Sigma) {
					t.Fatalf("circuit %d (M = %d), server %d, submission %d: rows' Round2 differs from the walk's", seed, c.M(), k, i)
				}
			}
		}
	}
	for op := circuit.OpInput; op <= circuit.OpMulConst; op++ {
		if ops[op] == 0 {
			t.Errorf("no random circuit has a gate of op %d", op)
		}
	}
}
