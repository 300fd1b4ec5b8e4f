package snip

import (
	"io"
	"sync"

	"prio/internal/circuit"
	"prio/internal/field"
)

// Challenge holds the verifier-side randomness for one verification batch:
// the identity-test points r (one per repetition, sampled outside the NTT
// domain so in-domain leakage cannot occur) and the coefficients of the
// random linear combination over assertion wires. Servers share a Challenge;
// clients must not learn it before submitting (Appendix I discusses reusing
// one challenge across a bounded batch of Q submissions, degrading soundness
// to (2M+1)Q/|F|).
type Challenge[E any] struct {
	R   []E // identity-test evaluation points, len Reps
	Rho []E // assertion combination coefficients, len(C.Asserts)
}

// NewChallenge samples a challenge from rnd.
func (sys *System[Fd, E]) NewChallenge(rnd io.Reader) (*Challenge[E], error) {
	f := sys.F
	ch := &Challenge[E]{}
	if sys.M > 0 {
		ch.R = make([]E, sys.Reps)
		for j := range ch.R {
		resample:
			r, err := f.SampleElem(rnd)
			if err != nil {
				return nil, err
			}
			// Exclude the 2N-point domain (r^2N == 1) and repeats: both are
			// negligible events, but excluding them keeps zero knowledge
			// unconditional (Appendix D.2 requires r outside {ω^t}).
			if f.Equal(field.Pow(f, r, uint64(2*sys.N)), f.One()) {
				goto resample
			}
			for k := 0; k < j; k++ {
				if f.Equal(ch.R[k], r) {
					goto resample
				}
			}
			ch.R[j] = r
		}
	}
	ch.Rho = make([]E, len(sys.C.Asserts))
	for k := range ch.Rho {
		rho, err := f.SampleElem(rnd)
		if err != nil {
			return nil, err
		}
		ch.Rho[k] = rho
	}
	return ch, nil
}

// Evaluator is the per-challenge verification engine: it owns the
// precomputed Lagrange evaluation weights for every identity-test point
// (Appendix I, optimization 2) and, through Batch, the Round1 rows those
// weights and the circuit fold into. Its own Round1 verifies one
// submission by a circuit walk plus a handful of O(N) inner products, the
// reference the batch verifier is tested against. Evaluators are immutable
// and safe for concurrent use.
type Evaluator[Fd field.Field[E], E any] struct {
	sys *System[Fd, E]
	ch  *Challenge[E]
	wN  [][]E // per rep: weights evaluating a share of f or g at r_j
	wH  [][]E // per rep: weights evaluating a share of Proof.H's h at r_j

	batchOnce sync.Once
	batch     *BatchVerifier[Fd, E] // lazily built by Batch()
}

// NewEvaluator precomputes the evaluation weights for ch. The h weights
// are the 2N-point domain's, in Proof.H's order, less those of the even
// points where h is zero: ⟨wH, H⟩ is h(r) with those zeros put back.
func (sys *System[Fd, E]) NewEvaluator(ch *Challenge[E]) *Evaluator[Fd, E] {
	ev := &Evaluator[Fd, E]{sys: sys, ch: ch}
	if sys.M > 0 {
		ne := sys.M + sys.Reps
		ev.wN = make([][]E, sys.Reps)
		ev.wH = make([][]E, sys.Reps)
		for j, r := range ch.R {
			ev.wN[j] = sys.dN.EvalWeights(r)
			w2N := sys.d2N.EvalWeights(r)
			wH := make([]E, sys.hLen())
			for t := 0; t < ne; t++ {
				wH[t] = w2N[2*t]
			}
			for t := 0; t < sys.N; t++ {
				wH[ne+t] = w2N[2*t+1]
			}
			ev.wH[j] = wH
		}
	}
	return ev
}

// State carries one server's intermediate values between the two
// verification rounds for a single submission.
type State[E any] struct {
	hr      []E         // shares of h(r_j)
	triples []Triple[E] // this server's triple shares
	tau     E           // share of Σ ρ_k · assert_k
}

// Round1 is the first server-to-server message of the Beaver multiplication:
// shares of d_j = f(r_j) − a_j and e_j = r_j·g(r_j) − b_j. The leader sums
// all servers' Round1 messages to open d and e (Appendix C.2).
type Round1[E any] struct {
	D, E []E
}

// Round2 is the second message: shares of the identity-test results σ_j and
// of the assertion combination τ. The submission is valid iff every σ_j and
// τ sum to zero across servers.
type Round2[E any] struct {
	Sigma []E
	Tau   E
}

// Round1 runs this server's local verification pass over its input share
// and proof share: the circuit walk of Section 4.2 step 2 and the polynomial
// evaluations of step 3a. constServer marks the one server that folds public
// circuit constants into its shares.
func (ev *Evaluator[Fd, E]) Round1(xShare []E, pf *Proof[E], constServer bool) (*State[E], *Round1[E], error) {
	sys := ev.sys
	f := sys.F
	if len(xShare) != sys.C.NumInputs {
		return nil, nil, ErrDimensions
	}
	if err := sys.checkDims(pf); err != nil {
		return nil, nil, err
	}

	// Multiplication gate t (0-based) lives at domain point ω_N^{t+1};
	// position 0 is the random anchor. Proof.H opens with h on the N-point
	// domain, so the gate outputs are H[1:M+1].
	var hAtMul []E
	if sys.M > 0 {
		hAtMul = pf.H[1 : sys.M+1]
	}
	st := circuit.EvalShares(f, sys.C, xShare, hAtMul, constServer)

	state := &State[E]{}
	// Assertion combination share.
	state.tau = f.Zero()
	for k, a := range sys.C.Asserts {
		state.tau = f.Add(state.tau, f.Mul(ev.ch.Rho[k], st.Wires[a]))
	}

	msg := &Round1[E]{}
	if sys.M == 0 {
		return state, msg, nil
	}

	// Assemble the point-value share tables for f and g.
	fv := make([]E, sys.N)
	gv := make([]E, sys.N)
	zero := f.Zero()
	for i := range fv {
		fv[i], gv[i] = zero, zero
	}
	fv[0], gv[0] = pf.F0, pf.G0
	copy(fv[1:], st.U)
	copy(gv[1:], st.V)
	for j := 0; j < sys.Reps-1; j++ {
		fv[sys.M+1+j] = pf.FPad[j]
		gv[sys.M+1+j] = pf.GPad[j]
	}

	state.hr = make([]E, sys.Reps)
	state.triples = pf.Triples
	msg.D = make([]E, sys.Reps)
	msg.E = make([]E, sys.Reps)
	for j := 0; j < sys.Reps; j++ {
		fr := field.InnerProduct(f, ev.wN[j], fv)
		gr := field.InnerProduct(f, ev.wN[j], gv)
		state.hr[j] = field.InnerProduct(f, ev.wH[j], pf.H)
		msg.D[j] = f.Sub(fr, pf.Triples[j].A)
		msg.E[j] = f.Sub(f.Mul(ev.ch.R[j], gr), pf.Triples[j].B)
	}
	return state, msg, nil
}

// SumRound1 opens the Beaver masks by summing every server's Round1 shares.
// The leader runs this and broadcasts the result.
func SumRound1[Fd field.Field[E], E any](f Fd, msgs []*Round1[E]) *Round1[E] {
	if len(msgs) == 0 {
		return &Round1[E]{}
	}
	out := &Round1[E]{
		D: append([]E(nil), msgs[0].D...),
		E: append([]E(nil), msgs[0].E...),
	}
	for _, m := range msgs[1:] {
		field.AddVec(f, out.D, m.D)
		field.AddVec(f, out.E, m.E)
	}
	return out
}

// Round2 completes the Beaver multiplication with the opened d and e values
// and produces this server's shares of the test results (Section 4.2, steps
// 3b and 4). s is the number of servers (the public constant in Beaver's
// σ_i = de/s + d·b_i + e·a_i + c_i).
func (ev *Evaluator[Fd, E]) Round2(state *State[E], opened *Round1[E], s int) *Round2[E] {
	sys := ev.sys
	f := sys.F
	out := &Round2[E]{Tau: state.tau}
	if sys.M == 0 {
		return out
	}
	invS := f.Inv(f.FromUint64(uint64(s)))
	out.Sigma = make([]E, sys.Reps)
	for j := 0; j < sys.Reps; j++ {
		d, e := opened.D[j], opened.E[j]
		// [f(r)·r·g(r)]_i = de/s + d·b_i + e·a_i + c_i
		prod := f.Mul(f.Mul(d, e), invS)
		prod = f.Add(prod, f.Mul(d, state.triples[j].B))
		prod = f.Add(prod, f.Mul(e, state.triples[j].A))
		prod = f.Add(prod, state.triples[j].C)
		// σ_i = [r·(f(r)g(r) − h(r))]_i
		out.Sigma[j] = f.Sub(prod, f.Mul(ev.ch.R[j], state.hr[j]))
	}
	return out
}

// Decide sums the servers' Round2 shares and accepts iff every identity test
// and the assertion combination are zero.
func (ev *Evaluator[Fd, E]) Decide(msgs []*Round2[E]) bool {
	f := ev.sys.F
	if len(msgs) == 0 {
		return false
	}
	tau := f.Zero()
	sigma := make([]E, len(msgs[0].Sigma))
	for i := range sigma {
		sigma[i] = f.Zero()
	}
	for _, m := range msgs {
		if len(m.Sigma) != len(sigma) {
			return false
		}
		tau = f.Add(tau, m.Tau)
		for j := range sigma {
			sigma[j] = f.Add(sigma[j], m.Sigma[j])
		}
	}
	if !f.IsZero(tau) {
		return false
	}
	for j := range sigma {
		if !f.IsZero(sigma[j]) {
			return false
		}
	}
	return true
}

// VerifyDistributed runs the entire two-round protocol locally across s
// simulated servers and returns the decision. It is the reference flow used
// by tests and by single-process deployments; networked deployments drive
// the same Round1/SumRound1/Round2/Decide sequence over a transport.
func (ev *Evaluator[Fd, E]) VerifyDistributed(xShares [][]E, pfShares []*Proof[E]) (bool, error) {
	s := len(xShares)
	if s == 0 || len(pfShares) != s {
		return false, ErrDimensions
	}
	states := make([]*State[E], s)
	r1 := make([]*Round1[E], s)
	for i := 0; i < s; i++ {
		st, m, err := ev.Round1(xShares[i], pfShares[i], i == 0)
		if err != nil {
			return false, err
		}
		states[i], r1[i] = st, m
	}
	opened := SumRound1(ev.sys.F, r1)
	r2 := make([]*Round2[E], s)
	for i := 0; i < s; i++ {
		r2[i] = ev.Round2(states[i], opened, s)
	}
	return ev.Decide(r2), nil
}
