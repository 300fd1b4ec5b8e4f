package snip

import (
	"crypto/sha256"
	"encoding/hex"
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
// reference's, every server's whole-batch Combined must be Σ_i λ_i times
// the reference's Round2 shares, and every verdict must be the reference's.
// The whole run is seeded, so one SHA-256 over every server's batch D/E,
// Single and Combined output pins those bytes (compactHDigests).
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
		// digest hashes the batch verifier's outputs in a fixed order: per
		// submission every server's Single then singleton Combined, then per
		// server its D/E messages and its whole-batch Combined.
		digest := sha256.New()
		var buf []byte
		put := func(v ...E) {
			buf = buf[:0]
			for _, e := range v {
				buf = f.AppendElem(buf, e)
			}
			digest.Write(buf)
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
				put(singles[k].Tau)
				put(singles[k].Sigma...)
				put(combs[k].Tau)
				put(combs[k].Sigma...)
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
			tau := f.Zero()
			for i := range xs {
				tau = f.Add(tau, f.Mul(lambda[i], ref[i][k].Tau))
			}
			if !f.Equal(whole[k].Tau, tau) || len(whole[k].Sigma) != sys.Reps {
				t.Fatalf("%s: server %d's whole-batch Combined τ is not Σ λ_i·τ_i", sh.name, k)
			}
			for j := 0; j < sys.Reps; j++ {
				sigma := f.Zero()
				for i := range xs {
					sigma = f.Add(sigma, f.Mul(lambda[i], ref[i][k].Sigma[j]))
				}
				if !f.Equal(whole[k].Sigma[j], sigma) {
					t.Fatalf("%s: server %d's whole-batch Combined σ[%d] is not Σ λ_i·σ_i", sh.name, k, j)
				}
			}
		}
		if ev.Decide(whole) {
			t.Fatalf("%s: combined check accepted a batch with two bad submissions", sh.name)
		}
		for k := 0; k < s; k++ {
			for i := range xs {
				put(r1[k][i].D...)
				put(r1[k][i].E...)
			}
			put(whole[k].Tau)
			put(whole[k].Sigma...)
		}
		key := f.Name() + "/" + sh.name
		if got := hex.EncodeToString(digest.Sum(nil)); got != compactHDigests[key] {
			t.Errorf("%s: output digest %s, want %s", key, got, compactHDigests[key])
		}
	}
}

// compactHDigests are TestCompactHDifferential's output digests, keyed by
// field and shape. They were captured while Combined still folded
// Σ λ_i·H_i itself, so they pin that moving h(r_j) into Round1 changed no
// output byte.
var compactHDigests = map[string]string{
	"F64/sum8":           "2143e975f91557d210a1c8b69ecf289acc77a73ca8ed491791d9e6b638864c57",
	"F64/bits434":        "82bad1edf2544b6e7f597ebdd408c78fa129d3a585548b44e5d26b53ce011bf5",
	"F64/bits1024":       "61f3fc0947f80dd853e8bd6dc0a345fa5e078a34487b8b25036007cf0febb83c",
	"F64/linreg10x14":    "cc0d091b10dcdf78397629c8283398a0fd9c7d54b2adf31ed4360efd3465c1a6",
	"F64/countmin10/10":  "ba05da604029243d1e71211c4f26fc454707ac5f8ef68514675e8cd7b8f9d69b",
	"F128/sum8":          "e0fc5c6bceea3f2f73eb7f4b3663cb19333cb26a57e80dc2aab54b5f844cba71",
	"F128/bits434":       "57d9cae41c8b14bb8358b079bbe576c7f924747fafab56f00d51cb18afdf0831",
	"F128/bits1024":      "0bd66e814b3e622d5f90caddc253f567784cf854bcdb3a2e7ea7a6aa4678e31d",
	"F128/linreg10x14":   "b22c001f76ae5523dfd3f9e3afc05a34f61bebcf5b89e6542b9d4a350a7abd5e",
	"F128/countmin10/10": "0ab4ea58e34bd45d345ccee5f35f2cc6d4dcf52da4841d45b7562f8c313e7174",
	"FP87/sum8":          "3a85f62bc616a5136f2e497bf371458ec2065ba44e8ab78945c506936d47f4ad",
	"FP87/bits434":       "4fad980e5b1b17dadb60f822dd669988b1727f621112c9639e42287d89a177be",
	"FP87/bits1024":      "458c1b3d1708eff70acf8bf3730c9a58dded6d08dfdbd0bdadfdc1012027c6e3",
	"FP87/linreg10x14":   "6297d01771226507ff31b1c36588a3329eea9b08342364484e9ac106284f0a80",
	"FP87/countmin10/10": "badf7dc86f49436c0974737b0d1b530b46a0ddf64f8103921a0dc194378886f6",
}
