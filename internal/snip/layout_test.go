package snip

import (
	"fmt"
	"testing"

	"prio/internal/circuit"
	"prio/internal/field"
	"prio/internal/poly"
	"prio/internal/prg"
	"prio/internal/share"
)

// expandH is Proof.H as the full 2N-point table h(ω₂ₙ^i), i < 2N: its
// even points, zero at t ≥ M+Reps, interleaved with its odd ones.
func expandH[Fd field.Field[E], E any](sys *System[Fd, E], h []E) []E {
	ne := sys.M + sys.Reps
	full := make([]E, 2*sys.N)
	for t := 0; t < sys.N; t++ {
		full[2*t] = sys.F.Zero()
		if t < ne {
			full[2*t] = h[t]
		}
		full[2*t+1] = h[ne+t]
	}
	return full
}

// refWeights are a challenge's weights for the reference verifier: the
// N-point domain's for f and g, the full 2N-point domain's for h.
type refWeights[E any] struct{ wN, w2N [][]E }

func newRefWeights[Fd field.Field[E], E any](sys *System[Fd, E], ch *Challenge[E]) refWeights[E] {
	d2N := poly.NewDomain(sys.F, sys.LogN+1)
	var rw refWeights[E]
	for _, r := range ch.R {
		rw.wN = append(rw.wN, sys.dN.EvalWeights(r))
		rw.w2N = append(rw.w2N, d2N.EvalWeights(r))
	}
	return rw
}

// refRound1 is one server's Round1 as a verifier of full 2N-point tables
// runs it: the proof share's h with its zeros put back (expandH), the gate
// outputs read at the even points 2(t+1), and h(r_j) evaluated with the
// 2N-point domain's weights. Evaluator.Round2 completes its state.
func refRound1[Fd field.Field[E], E any](sys *System[Fd, E], ch *Challenge[E], rw refWeights[E], x []E, pf *Proof[E], constServer bool) (*State[E], *Round1[E]) {
	f := sys.F
	full := expandH(sys, pf.H)
	hAt := make([]E, sys.M)
	for t := range hAt {
		hAt[t] = full[2*(t+1)]
	}
	tr := circuit.EvalShares(f, sys.C, x, hAt, constServer)
	st := &State[E]{tau: f.Zero(), triples: pf.Triples, hr: make([]E, sys.Reps)}
	for k, a := range sys.C.Asserts {
		st.tau = f.Add(st.tau, f.Mul(ch.Rho[k], tr.Wires[a]))
	}
	fv, gv := make([]E, sys.N), make([]E, sys.N)
	for i := range fv {
		fv[i], gv[i] = f.Zero(), f.Zero()
	}
	fv[0], gv[0] = pf.F0, pf.G0
	copy(fv[1:], tr.U)
	copy(gv[1:], tr.V)
	for j := 0; j < sys.Reps-1; j++ {
		fv[sys.M+1+j], gv[sys.M+1+j] = pf.FPad[j], pf.GPad[j]
	}
	m := &Round1[E]{D: make([]E, sys.Reps), E: make([]E, sys.Reps)}
	for j, r := range ch.R {
		st.hr[j] = field.InnerProduct(f, rw.w2N[j], full)
		m.D[j] = f.Sub(field.InnerProduct(f, rw.wN[j], fv), pf.Triples[j].A)
		m.E[j] = f.Sub(f.Mul(r, field.InnerProduct(f, rw.wN[j], gv)), pf.Triples[j].B)
	}
	return st, m
}

// TestCompactHDifferential checks both verifiers against the reference
// verifier of full 2N-point tables (refRound1), for every benchmark shape,
// over F64 (the monomorphic kernels), F128 and FP87, on a batch of a valid
// submission, an invalid input (every element 3) and a valid input whose
// proof has one odd point of h bumped. Every server's Round1 openings and
// h(r_j) shares, and every Round2 share from Evaluator.Round2,
// BatchVerifier.Single and a singleton Combined, must equal the
// reference's, and every verdict must be the reference's.
func TestCompactHDifferential(t *testing.T) {
	t.Run("F64", func(t *testing.T) { checkCompactHDifferential(t, field.NewF64()) })
	t.Run("F128", func(t *testing.T) { checkCompactHDifferential(t, field.NewF128()) })
	t.Run("FP87", func(t *testing.T) { checkCompactHDifferential(t, field.NewFP87()) })
}

func checkCompactHDifferential[Fd field.Field[E], E any](t *testing.T, f Fd) {
	const s = 3
	for si, sh := range proveShapes(t, f) {
		sys, err := NewSystem(f, sh.c, Params{Reps: 2})
		if err != nil {
			t.Fatal(err)
		}
		rnd := prg.New(prg.Seed{0xD1, byte(si)})
		ch, err := sys.NewChallenge(rnd)
		if err != nil {
			t.Fatal(err)
		}
		ev := sys.NewEvaluator(ch)
		rw := newRefWeights(sys, ch)

		bad := make([]E, len(sh.x))
		for i := range bad {
			bad[i] = f.FromUint64(3)
		}
		names := []string{"valid", "invalid", "bumped-odd-point"}
		xs := [][]E{sh.x, bad, sh.x}
		// xsh[k][i], pfsh[k][i]: server k's share of submission i.
		xsh, pfsh := make([][][]E, s), make([][]*Proof[E], s)
		for i, x := range xs {
			pf, err := sys.Prove(x, rnd)
			if err != nil {
				t.Fatal(err)
			}
			if i == 2 {
				last := len(pf.H) - 1
				pf.H[last] = f.Add(pf.H[last], f.One())
			}
			xp, err := share.Split(f, rnd, x, s)
			if err != nil {
				t.Fatal(err)
			}
			pp, err := sys.Split(pf, s, rnd)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < s; k++ {
				xsh[k] = append(xsh[k], xp[k])
				pfsh[k] = append(pfsh[k], pp[k])
			}
		}

		// The reference and the per-submission verifier, server by server.
		ref := make([][]*Round2[E], len(xs)) // [submission][server]
		for i := range xs {
			name := fmt.Sprintf("%s/%s", sh.name, names[i])
			refSt, refR1 := make([]*State[E], s), make([]*Round1[E], s)
			sts, r1s := make([]*State[E], s), make([]*Round1[E], s)
			for k := 0; k < s; k++ {
				refSt[k], refR1[k] = refRound1(sys, ch, rw, xsh[k][i], pfsh[k][i], k == 0)
				if sts[k], r1s[k], err = ev.Round1(xsh[k][i], pfsh[k][i], k == 0); err != nil {
					t.Fatalf("%s: Round1: %v", name, err)
				}
				if !field.EqualVec(f, sts[k].hr, refSt[k].hr) || !f.Equal(sts[k].tau, refSt[k].tau) ||
					!field.EqualVec(f, r1s[k].D, refR1[k].D) || !field.EqualVec(f, r1s[k].E, refR1[k].E) {
					t.Fatalf("%s: server %d's Round1 differs from the reference", name, k)
				}
			}
			opened := SumRound1(f, refR1)
			ref[i] = make([]*Round2[E], s)
			got := make([]*Round2[E], s)
			for k := 0; k < s; k++ {
				ref[i][k] = ev.Round2(refSt[k], opened, s)
				got[k] = ev.Round2(sts[k], opened, s)
			}
			want := ev.Decide(ref[i])
			if want != (i == 0) {
				t.Fatalf("%s: reference verdict %v", name, want)
			}
			if ev.Decide(got) != want {
				t.Fatalf("%s: per-submission verdict differs from the reference", name)
			}
		}

		// The batch verifier over the three submissions.
		bv := ev.Batch()
		bst := make([]*BatchState[E], s)
		r1 := make([][]*Round1[E], s)
		for k := 0; k < s; k++ {
			if bst[k], r1[k], err = bv.Round1(xsh[k], pfsh[k], k == 0); err != nil {
				t.Fatalf("%s: batch Round1: %v", sh.name, err)
			}
		}
		opened := make([]*Round1[E], len(xs))
		for i := range xs {
			opened[i] = SumRound1(f, []*Round1[E]{r1[0][i], r1[1][i], r1[2][i]})
		}
		for k := 0; k < s; k++ {
			if err := bv.SetOpened(bst[k], opened, s); err != nil {
				t.Fatal(err)
			}
		}
		lambda := RLCCoeffs(f, prg.Seed{0x1A, byte(si)}, 1)
		for i := range xs {
			name := fmt.Sprintf("%s/%s", sh.name, names[i])
			singles, combs := make([]*Round2[E], s), make([]*Round2[E], s)
			for k := 0; k < s; k++ {
				if singles[k], err = bv.Single(bst[k], i); err != nil {
					t.Fatal(err)
				}
				if combs[k], err = bv.Combined(bst[k], lambda, i, i+1); err != nil {
					t.Fatal(err)
				}
				want := ref[i][k]
				if !field.EqualVec(f, singles[k].Sigma, want.Sigma) || !f.Equal(singles[k].Tau, want.Tau) {
					t.Fatalf("%s: server %d's Single differs from the reference Round2", name, k)
				}
				for j := range want.Sigma {
					if !f.Equal(combs[k].Sigma[j], f.Mul(lambda[0], want.Sigma[j])) {
						t.Fatalf("%s: server %d's singleton Combined is not λ times the reference", name, k)
					}
				}
			}
			want := ev.Decide(ref[i])
			if ev.Decide(singles) != want || ev.Decide(combs) != want {
				t.Fatalf("%s: batch verdicts differ from the reference's %v", name, want)
			}
		}
		whole := make([]*Round2[E], s)
		lambda = RLCCoeffs(f, prg.Seed{0x1B, byte(si)}, len(xs))
		for k := 0; k < s; k++ {
			if whole[k], err = bv.Combined(bst[k], lambda, 0, len(xs)); err != nil {
				t.Fatal(err)
			}
		}
		if ev.Decide(whole) {
			t.Fatalf("%s: combined check accepted a batch with two bad submissions", sh.name)
		}
	}
}
