package snip

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync/atomic"

	"prio/internal/circuit"
	"prio/internal/field"
	"prio/internal/prg"
)

// Batch SNIP verification. The per-submission protocol (verify.go) spends
// its cycles on (a) the circuit walk, (b) the Lagrange inner products that
// evaluate f, g and h shares at the challenge point, and (c) per-element
// generics dispatch. The batch path removes all three for same-shape
// submissions checked under one challenge:
//
//   - the circuit is walked gate-major over lane slabs, once per batch;
//   - the expensive h evaluation ⟨w2N, H_i⟩ is deferred out of Round1 and
//     amortized by a random linear combination: the servers publish a single
//     σ_comb = Σ_i λ_i·σ_i per repetition, which costs ONE 2N-length inner
//     product per repetition for the whole batch instead of one per
//     submission (Σ_i λ_i·⟨w2N, H_i⟩ = ⟨w2N, Σ_i λ_i·H_i⟩, and the fold
//     Σ λ_i·H_i is a reduction-free multiply-accumulate pass);
//   - over F64 all slab math runs through the monomorphic kernels in
//     internal/field.
//
// Soundness: with λ drawn after the submissions are fixed and never reused
// across batches, a range containing an invalid submission passes one
// repetition with probability ≤ (2N+1)/|F| + 1/(|F|−1) (identity-test
// slack plus the chance λ aligns with the kernel of the bad σ/τ vector).
// When the combined check fails, the leader bisects with fresh λ per probe;
// a singleton range with nonzero λ is exactly the per-submission test
// (λ·σ = 0 ⟺ σ = 0), so the accepted set equals the per-submission
// verifier's accepted set up to the negligible interior-probe error.
// docs/VERIFY.md develops the full argument.

// ErrBatchState is returned when BatchVerifier methods are invoked out of
// order or with arguments inconsistent with the batch: a missing SetOpened,
// an opened-mask count that does not match the batch, out-of-range probe
// bounds, or a λ vector of the wrong length.
var ErrBatchState = errors.New("snip: batch verifier state mismatch")

// ShapeKey identifies the circuit shape this system verifies: two systems
// with equal keys verify interchangeable submissions. It is the cache key
// deployments use to share per-shape verification precomputation.
func (sys *System[Fd, E]) ShapeKey() string {
	return fmt.Sprintf("%s/in%d/g%d/m%d/n%d/rep%d/as%d",
		sys.F.Name(), sys.C.NumInputs, len(sys.C.Gates), sys.M, sys.N, sys.Reps, len(sys.C.Asserts))
}

// evCacheCap bounds the challenge-keyed evaluator cache. Deployments rotate
// challenges on a window of two or three; eight leaves slack for overlap
// during rotation without letting a challenge flood grow the cache.
const evCacheCap = 8

// CachedEvaluator returns an Evaluator for ch, memoized by a digest of the
// challenge and the circuit shape, so every in-process server verifying the
// same batch shares one O(N·Reps) Lagrange-weight precomputation instead of
// each rebuilding it. The cache holds the evCacheCap most recent challenges.
func (sys *System[Fd, E]) CachedEvaluator(ch *Challenge[E]) *Evaluator[Fd, E] {
	shape := sys.ShapeKey()
	buf := make([]byte, 0, len(shape)+16*(len(ch.R)+len(ch.Rho)))
	buf = append(buf, shape...)
	buf = field.AppendVec(sys.F, buf, ch.R)
	buf = field.AppendVec(sys.F, buf, ch.Rho)
	sum := sha256.Sum256(buf)
	key := string(sum[:])

	sys.evMu.Lock()
	if ev, ok := sys.evCache[key]; ok {
		sys.evMu.Unlock()
		atomic.AddUint64(&sys.evHits, 1)
		return ev
	}
	sys.evMu.Unlock()
	// Build outside the lock: EvalWeights is O(N) per repetition and other
	// challenges' lookups should not wait on it.
	atomic.AddUint64(&sys.evMisses, 1)
	ev := sys.NewEvaluator(ch)
	sys.evMu.Lock()
	defer sys.evMu.Unlock()
	if cached, ok := sys.evCache[key]; ok {
		return cached
	}
	if sys.evCache == nil {
		sys.evCache = make(map[string]*Evaluator[Fd, E], evCacheCap)
	}
	for len(sys.evOrder) >= evCacheCap {
		delete(sys.evCache, sys.evOrder[0])
		sys.evOrder = sys.evOrder[1:]
	}
	sys.evCache[key] = ev
	sys.evOrder = append(sys.evOrder, key)
	return ev
}

// BatchVerifier checks many same-shape submissions under one challenge in a
// single polynomial pass. It is derived from (and shares the precomputed
// weights of) an Evaluator; like the Evaluator it is immutable and safe for
// concurrent use — all per-batch state lives in the BatchState.
type BatchVerifier[Fd field.Field[E], E any] struct {
	ev   *Evaluator[Fd, E]
	fast bool // F64: elements are canonical uint64, slab kernels engaged
}

// Batch returns the batch verifier for this evaluator, constructing it on
// first use.
func (ev *Evaluator[Fd, E]) Batch() *BatchVerifier[Fd, E] {
	ev.batchOnce.Do(func() {
		ev.batch = &BatchVerifier[Fd, E]{ev: ev}
		if _, ok := any(ev.sys.F).(field.F64); ok {
			ev.batch.fast = true
		}
	})
	return ev.batch
}

// BatchState carries one server's intermediate values for a whole batch
// between the verification rounds, in lane-major (slab) layout.
type BatchState[E any] struct {
	count   int
	taus    []E           // per submission: share of Σ ρ_k·assert_k
	triples [][]Triple[E] // per submission: this server's triple shares
	h       [][]E         // per submission: share of H (2N evals)
	p       [][]E         // [rep][submission]: Beaver-completed products, set by SetOpened
	opened  bool
}

// Count returns the number of submissions in the batch.
func (st *BatchState[E]) Count() int { return st.count }

// Round1 runs this server's local verification pass over a whole batch of
// input and proof shares, producing the same per-submission D/E messages as
// Evaluator.Round1 — the Beaver openings are inherently per-submission, so
// the wire format is unchanged — but deferring the h evaluations to the
// combined (or bisect) check. All shapes are validated before any
// arithmetic; a malformed share yields an error, never a panic.
func (bv *BatchVerifier[Fd, E]) Round1(xShares [][]E, pfs []*Proof[E], constServer bool) (*BatchState[E], []*Round1[E], error) {
	sys := bv.ev.sys
	if len(xShares) != len(pfs) {
		return nil, nil, ErrDimensions
	}
	b := len(xShares)
	for i := 0; i < b; i++ {
		if pfs[i] == nil || len(xShares[i]) != sys.C.NumInputs {
			return nil, nil, ErrDimensions
		}
		if err := sys.checkDims(pfs[i]); err != nil {
			return nil, nil, err
		}
	}
	st := &BatchState[E]{
		count:   b,
		taus:    make([]E, b),
		triples: make([][]Triple[E], b),
		h:       make([][]E, b),
	}
	for i, pf := range pfs {
		st.triples[i] = pf.Triples
		st.h[i] = pf.H
	}
	msgs := make([]*Round1[E], b)
	if b == 0 {
		return st, msgs, nil
	}
	if bv.fast {
		bv.round1Fast(st, xShares, pfs, constServer, msgs)
	} else {
		bv.round1Generic(st, xShares, pfs, constServer, msgs)
	}
	return st, msgs, nil
}

// round1Generic is the field-agnostic batch pass: per-submission circuit
// walks sharing scratch buffers, with the hr inner products (the dominant
// cost) deferred to Combined/Single.
func (bv *BatchVerifier[Fd, E]) round1Generic(st *BatchState[E], xShares [][]E, pfs []*Proof[E], constServer bool, msgs []*Round1[E]) {
	ev := bv.ev
	sys := ev.sys
	f := sys.F
	var fv, gv, hAt []E
	if sys.M > 0 {
		fv = make([]E, sys.N)
		gv = make([]E, sys.N)
		hAt = make([]E, sys.M)
	}
	zero := f.Zero()
	for i, pf := range pfs {
		for t := 0; t < sys.M; t++ {
			hAt[t] = pf.H[2*(t+1)]
		}
		tr := circuit.EvalShares(f, sys.C, xShares[i], hAt, constServer)
		tau := f.Zero()
		for k, a := range sys.C.Asserts {
			tau = f.Add(tau, f.Mul(ev.ch.Rho[k], tr.Wires[a]))
		}
		st.taus[i] = tau
		msg := &Round1[E]{}
		msgs[i] = msg
		if sys.M == 0 {
			continue
		}
		for t := range fv {
			fv[t], gv[t] = zero, zero
		}
		fv[0], gv[0] = pf.F0, pf.G0
		copy(fv[1:], tr.U)
		copy(gv[1:], tr.V)
		for j := 0; j < sys.Reps-1; j++ {
			fv[sys.M+1+j] = pf.FPad[j]
			gv[sys.M+1+j] = pf.GPad[j]
		}
		msg.D = make([]E, sys.Reps)
		msg.E = make([]E, sys.Reps)
		for j := 0; j < sys.Reps; j++ {
			fr := field.InnerProduct(f, ev.wN[j], fv)
			gr := field.InnerProduct(f, ev.wN[j], gv)
			msg.D[j] = f.Sub(fr, pf.Triples[j].A)
			msg.E[j] = f.Sub(f.Mul(ev.ch.R[j], gr), pf.Triples[j].B)
		}
	}
}

// round1Fast is the F64 slab pass: one gate-major circuit walk for the whole
// batch, then per-repetition multiply-accumulate folds of the Lagrange
// weights across all lanes with a single deferred reduction each.
func (bv *BatchVerifier[Fd, E]) round1Fast(st *BatchState[E], xShares [][]E, pfs []*Proof[E], constServer bool, msgs []*Round1[E]) {
	ev := bv.ev
	sys := ev.sys
	b := len(xShares)
	c64 := any(sys.C).(*circuit.Circuit[uint64])
	xs := make([][]uint64, b)
	for i := range xs {
		xs[i] = asU64s(xShares[i])
	}
	// Lane-major gather of the h shares at the multiplication points. The
	// walk copies these lanes into its own wires, so the backing goes back
	// to the pool right after.
	hAt := make([][]uint64, sys.M)
	hBack := field.GetSlabUninit(sys.M * b)
	for t := range hAt {
		hAt[t] = hBack[t*b : (t+1)*b]
	}
	// Gather lane-by-lane (t outer): writes stream through each lane and the
	// strided H reads stay cache-resident across consecutive t.
	hs := make([][]uint64, b)
	for i, pf := range pfs {
		hs[i] = asU64s(pf.H)
	}
	for t := 0; t < sys.M; t++ {
		lane, off := hAt[t], 2*(t+1)
		for i := range hs {
			lane[i] = hs[i][off]
		}
	}
	u, v, asserts, release := circuit.EvalSharesBatchF64(c64, xs, hAt, constServer)
	defer release()
	field.PutSlab(hBack)

	// τ_i = Σ_k ρ_k·assert_k[i]: one fused multiply-accumulate pass per
	// assertion wire across all lanes, one reduction per lane at the end.
	a0, a1, a2 := field.GetSlab(b), field.GetSlab(b), field.GetSlab(b)
	for k, aw := range asserts {
		field.MulAcc192(a0, a1, a2, aw, asU64(ev.ch.Rho[k]))
	}
	field.Reduce192Slice(asU64s(st.taus), a0, a1, a2)

	if sys.M == 0 {
		for i := range msgs {
			msgs[i] = &Round1[E]{}
		}
		field.PutSlab(a0)
		field.PutSlab(a1)
		field.PutSlab(a2)
		return
	}

	reps := sys.Reps
	// Lane gathers of the per-proof scalars: anchors, pads, triple parts.
	f0s, g0s := field.GetSlab(b), field.GetSlab(b)
	pads := make([][]uint64, 2*(reps-1)) // f pads then g pads
	for k := range pads {
		pads[k] = field.GetSlab(b)
	}
	for i, pf := range pfs {
		f0s[i] = asU64(pf.F0)
		g0s[i] = asU64(pf.G0)
		for k := 0; k < reps-1; k++ {
			pads[k][i] = asU64(pf.FPad[k])
			pads[reps-1+k][i] = asU64(pf.GPad[k])
		}
	}
	// One backing array for all D/E messages and one for the message structs
	// keep allocations flat in b.
	deBack := make([]E, 2*reps*b)
	msgBack := make([]Round1[E], b)
	for i := range msgs {
		msgBack[i].D = deBack[i*2*reps : i*2*reps+reps]
		msgBack[i].E = deBack[i*2*reps+reps : (i+1)*2*reps]
		msgs[i] = &msgBack[i]
	}
	res := field.GetSlab(b) // reduced f(r)/g(r) lanes
	ab := field.GetSlab(b)  // triple-share gather
	for j := 0; j < reps; j++ {
		wj := asU64s(ev.wN[j])
		// f(r_j) lanes: weights folded across anchor, U slabs, and pads.
		zero3(a0, a1, a2)
		field.MulAcc192(a0, a1, a2, f0s, wj[0])
		for t := 0; t < sys.M; t++ {
			field.MulAcc192(a0, a1, a2, u[t], wj[t+1])
		}
		for k := 0; k < reps-1; k++ {
			field.MulAcc192(a0, a1, a2, pads[k], wj[sys.M+1+k])
		}
		field.Reduce192Slice(res, a0, a1, a2)
		for i, pf := range pfs {
			ab[i] = asU64(pf.Triples[j].A)
		}
		field.SubSlice(res, res, ab) // D = f(r) − a
		for i := range msgs {
			msgs[i].D[j] = fromU64[E](res[i])
		}
		// r_j·g(r_j) lanes.
		zero3(a0, a1, a2)
		field.MulAcc192(a0, a1, a2, g0s, wj[0])
		for t := 0; t < sys.M; t++ {
			field.MulAcc192(a0, a1, a2, v[t], wj[t+1])
		}
		for k := 0; k < reps-1; k++ {
			field.MulAcc192(a0, a1, a2, pads[reps-1+k], wj[sys.M+1+k])
		}
		field.Reduce192Slice(res, a0, a1, a2)
		field.ScaleSlice(res, res, asU64(ev.ch.R[j]))
		for i, pf := range pfs {
			ab[i] = asU64(pf.Triples[j].B)
		}
		field.SubSlice(res, res, ab) // E = r·g(r) − b
		for i := range msgs {
			msgs[i].E[j] = fromU64[E](res[i])
		}
	}
	for _, s := range [][]uint64{a0, a1, a2, f0s, g0s, res, ab} {
		field.PutSlab(s)
	}
	for _, s := range pads {
		field.PutSlab(s)
	}
}

// SetOpened ingests the per-submission opened Beaver masks — the sum of all
// servers' Round1 messages, exactly as in the per-submission protocol — and
// completes this server's product shares [f(r)·r·g(r)]_i = de/s + d·b + e·a
// + c for every submission and repetition. s is the server count. It must be
// called once before Combined or Single.
func (bv *BatchVerifier[Fd, E]) SetOpened(st *BatchState[E], opened []*Round1[E], s int) error {
	sys := bv.ev.sys
	f := sys.F
	if len(opened) != st.count || s < 1 {
		return ErrBatchState
	}
	if sys.M > 0 {
		for _, o := range opened {
			if o == nil || len(o.D) != sys.Reps || len(o.E) != sys.Reps {
				return ErrBatchState
			}
		}
		invS := f.Inv(f.FromUint64(uint64(s)))
		st.p = make([][]E, sys.Reps)
		for j := range st.p {
			row := make([]E, st.count)
			for i := 0; i < st.count; i++ {
				d, e := opened[i].D[j], opened[i].E[j]
				prod := f.Mul(f.Mul(d, e), invS)
				prod = f.Add(prod, f.Mul(d, st.triples[i][j].B))
				prod = f.Add(prod, f.Mul(e, st.triples[i][j].A))
				prod = f.Add(prod, st.triples[i][j].C)
				row[i] = prod
			}
			st.p[j] = row
		}
	}
	st.opened = true
	return nil
}

// Combined produces this server's share of the random-linear-combination
// check over submissions [lo, hi):
//
//	σ_comb[j] = Σ_i λ_{i−lo}·[f(r_j)·r_j·g(r_j)]_i − r_j·⟨w2N_j, Σ_i λ_{i−lo}·H_i⟩
//	τ_comb    = Σ_i λ_{i−lo}·τ_i
//
// Summed across servers (Decide), both are zero when every submission in the
// range is valid. λ must have length hi−lo with every coefficient nonzero
// and must be freshly drawn (RLCCoeffs from a fresh seed) for every batch
// and every bisect probe: a singleton range under nonzero λ is then exactly
// the per-submission test, and independent challenges stop crafted
// submissions from cancelling each other.
func (bv *BatchVerifier[Fd, E]) Combined(st *BatchState[E], lambda []E, lo, hi int) (*Round2[E], error) {
	ev := bv.ev
	sys := ev.sys
	f := sys.F
	if !st.opened || lo < 0 || hi > st.count || lo >= hi || len(lambda) != hi-lo {
		return nil, ErrBatchState
	}
	out := &Round2[E]{}
	if bv.fast {
		l64 := asU64s(lambda)
		out.Tau = fromU64[E](field.DotSlice(l64, asU64s(st.taus)[lo:hi]))
		if sys.M == 0 {
			return out, nil
		}
		n2 := 2 * sys.N
		a0, a1, a2 := field.GetSlab(n2), field.GetSlab(n2), field.GetSlab(n2)
		for i := lo; i < hi; i++ {
			field.MulAcc192(a0, a1, a2, asU64s(st.h[i]), l64[i-lo])
		}
		hl := field.GetSlab(n2)
		field.Reduce192Slice(hl, a0, a1, a2)
		var g field.F64
		out.Sigma = make([]E, sys.Reps)
		for j := 0; j < sys.Reps; j++ {
			sp := field.DotSlice(l64, asU64s(st.p[j])[lo:hi])
			hr := field.DotSlice(asU64s(ev.w2N[j]), hl)
			out.Sigma[j] = fromU64[E](g.Sub(sp, g.Mul(asU64(ev.ch.R[j]), hr)))
		}
		for _, s := range [][]uint64{a0, a1, a2, hl} {
			field.PutSlab(s)
		}
		return out, nil
	}
	tau := f.Zero()
	for i := lo; i < hi; i++ {
		tau = f.Add(tau, f.Mul(lambda[i-lo], st.taus[i]))
	}
	out.Tau = tau
	if sys.M == 0 {
		return out, nil
	}
	hl := make([]E, 2*sys.N)
	for t := range hl {
		hl[t] = f.Zero()
	}
	for i := lo; i < hi; i++ {
		li := lambda[i-lo]
		for t, hv := range st.h[i] {
			hl[t] = f.Add(hl[t], f.Mul(li, hv))
		}
	}
	out.Sigma = make([]E, sys.Reps)
	for j := 0; j < sys.Reps; j++ {
		sp := f.Zero()
		for i := lo; i < hi; i++ {
			sp = f.Add(sp, f.Mul(lambda[i-lo], st.p[j][i]))
		}
		hr := field.InnerProduct(f, ev.w2N[j], hl)
		out.Sigma[j] = f.Sub(sp, f.Mul(ev.ch.R[j], hr))
	}
	return out, nil
}

// Single reproduces the per-submission Round2 message for submission i —
// the same values Evaluator.Round2 computes — from the batch state. It is
// the bisect fallback's singleton leaf without the λ scaling: Combined over
// [i, i+1) is Single(i) times a nonzero coefficient, which is how the
// differential tests tie the batch state to the reference verifier.
func (bv *BatchVerifier[Fd, E]) Single(st *BatchState[E], i int) (*Round2[E], error) {
	ev := bv.ev
	sys := ev.sys
	f := sys.F
	if !st.opened || i < 0 || i >= st.count {
		return nil, ErrBatchState
	}
	out := &Round2[E]{Tau: st.taus[i]}
	if sys.M == 0 {
		return out, nil
	}
	out.Sigma = make([]E, sys.Reps)
	for j := 0; j < sys.Reps; j++ {
		var hr E
		if bv.fast {
			hr = fromU64[E](field.DotSlice(asU64s(ev.w2N[j]), asU64s(st.h[i])))
		} else {
			hr = field.InnerProduct(f, ev.w2N[j], st.h[i])
		}
		out.Sigma[j] = f.Sub(st.p[j][i], f.Mul(ev.ch.R[j], hr))
	}
	return out, nil
}

// RLCCoeffs expands a PRG seed into n nonzero random-linear-combination
// coefficients. The leader draws a fresh crypto/rand seed for every batch
// and every bisect probe and ships only the 16-byte seed; deriving λ
// deterministically from it keeps all servers in lockstep without ever
// reusing a challenge. Coefficients are rejection-sampled to be nonzero: a
// zero λ would silently drop its submission from the check, and nonzero λ
// makes the singleton range exactly the per-submission test.
func RLCCoeffs[Fd field.Field[E], E any](f Fd, seed prg.Seed, n int) []E {
	g := prg.New(seed)
	out := make([]E, n)
	// Draw the missing tail in bulk, squeeze out the zeros, repeat: the
	// result is the first n nonzero elements of the seed's stream.
	for filled := 0; filled < n; {
		if err := field.SampleInto(f, g, out[filled:]); err != nil {
			// prg.PRG.Read never fails.
			panic("snip: PRG sampling failed: " + err.Error())
		}
		for _, e := range out[filled:] {
			if !f.IsZero(e) {
				out[filled] = e
				filled++
			}
		}
	}
	return out
}

// asU64s reinterprets a []E as []uint64. Valid only on the F64 fast path
// (Batch() sets fast only when the field's element type is uint64).
func asU64s[E any](v []E) []uint64 { return any(v).([]uint64) }

func asU64[E any](v E) uint64 { return any(v).(uint64) }

func fromU64[E any](v uint64) E { return any(v).(E) }

func zero3(a, b, c []uint64) {
	clear(a)
	clear(b)
	clear(c)
}
