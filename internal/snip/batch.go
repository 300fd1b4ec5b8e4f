package snip

import (
	"errors"
	"sync"

	"prio/internal/circuit"
	"prio/internal/field"
	"prio/internal/prg"
)

// Batch SNIP verification. A server answers a fixed set of linear queries
// on each submission's shares (x, π) — τ, and per repetition f(r_j),
// r_j·g(r_j) and h(r_j) — and the batch path answers all of them in Round1
// for same-shape submissions checked under one challenge:
//
//   - no circuit is walked per submission: a server's Round1 outputs are
//     linear in its shares (affine gates act share-wise, multiplication
//     gates' outputs are the proof's H[1:M+1]), so τ, f(r_j) and r_j·g(r_j)
//     are each one precomputed row of coefficients on (xShare, H[1:M+1]),
//     plus the anchor and pads and a public constant on the constant
//     server. The 1+2·Reps rows are built once per challenge by one reverse
//     pass over the circuit, and Round1 costs their inner products with each
//     submission's shares;
//   - h(r_j) is ⟨wH_j, H⟩, the same inner product Evaluator.Round1 takes,
//     run beside the rows while H is still in cache;
//   - after Round1 a submission is a few scalars per repetition (its τ,
//     h(r_j) and triple shares and, once the masks are opened, its
//     products), so the servers' one combined pair per batch,
//     σ_comb[j] = Σ_i λ_i·σ_i[j] and τ_comb = Σ_i λ_i·τ_i, is scalar
//     arithmetic on one path for every field.
//
// Soundness: with λ drawn after the submissions are fixed and never reused
// across batches, a batch containing an invalid submission passes one
// repetition with probability ≤ (2N+1)/|F| + 1/(|F|−1) (identity-test
// slack plus the chance λ aligns with the kernel of the bad σ/τ vector).
// When the combined check fails, the leader asks every server for each
// submission's own Round2 share (Single) and decides each one exactly as the
// per-submission verifier does; a batch of one needs no such reveal, since
// under nonzero λ its combined check is already exactly the per-submission
// test (λ·σ = 0 ⟺ σ = 0). docs/VERIFY.md develops the full argument.

// ErrBatchState is returned when BatchVerifier methods are invoked out of
// order or with arguments inconsistent with the batch: a missing SetOpened,
// an opened-mask count that does not match the batch, out-of-range probe
// bounds, or a λ vector of the wrong length.
var ErrBatchState = errors.New("snip: batch verifier state mismatch")

// evEntry is one cached challenge: its seed and its Evaluator, built once
// by whichever lookup inserted the entry.
type evEntry[Fd field.Field[E], E any] struct {
	seed prg.Seed
	once sync.Once
	ev   *Evaluator[Fd, E]
}

// CachedEvaluator returns the Evaluator for the challenge that seed expands
// to — NewChallenge reading prg.New(seed) — memoized by the seed itself. A
// hit costs one map lookup, so a server can look the challenge up on every
// Round1; a miss builds the O(N·Reps) Lagrange weights once (and the first
// Batch call its Round1 rows), shared by every server in the process and by
// concurrent lookups of the same seed.
//
// stream names the sequence the caller's seeds rotate along (in core, a
// leader session), and the cache keeps each stream's two most recently
// used seeds: its current challenge and, across a rotation, the one before
// it. Its size is therefore two per stream, whatever the number of
// streams, and a retired seed goes as soon as the one after it arrives. A
// stream that stops (a leader that lost its role) keeps its last two until
// the same stream resumes; core's streams are (leader index, session), so
// they number at most the roster size times 256.
func (sys *System[Fd, E]) CachedEvaluator(stream uint64, seed prg.Seed) *Evaluator[Fd, E] {
	sys.evMu.Lock()
	ways := sys.evCache[stream]
	if ways == nil {
		if sys.evCache == nil {
			sys.evCache = make(map[uint64]*[2]*evEntry[Fd, E])
		}
		ways = new([2]*evEntry[Fd, E])
		sys.evCache[stream] = ways
	}
	e := ways[0]
	switch {
	case e != nil && e.seed == seed:
		sys.evHits++
	case ways[1] != nil && ways[1].seed == seed:
		sys.evHits++
		e = ways[1]
		ways[0], ways[1] = e, ways[0]
	default:
		sys.evMisses++
		e = &evEntry[Fd, E]{seed: seed}
		ways[0], ways[1] = e, ways[0]
	}
	sys.evMu.Unlock()
	// Built outside the lock: lookups of other seeds need not wait on it.
	e.once.Do(func() {
		ch, err := sys.NewChallenge(prg.New(seed))
		if err != nil {
			// prg.PRG.Read never fails.
			panic("snip: PRG sampling failed: " + err.Error())
		}
		e.ev = sys.NewEvaluator(ch)
	})
	return e.ev
}

// BatchVerifier checks many same-shape submissions under one challenge. It
// is derived from (and shares the precomputed weights of) an Evaluator; like
// the Evaluator it is immutable and safe for concurrent use — all per-batch
// state lives in the BatchState.
type BatchVerifier[Fd field.Field[E], E any] struct {
	ev *Evaluator[Fd, E]

	// Every Round1 output as a row of coefficients on a server's shares:
	// rows[0] is τ's, rows[1+j] is f(r_j)'s and rows[1+Reps+j] is
	// r_j·g(r_j)'s (only τ's when M == 0).
	rows []row[Fd, E]
}

// row is one Round1 output as a fixed linear functional of one server's
// shares: ⟨x, xShare[xLo:]⟩ + ⟨h, H[1+hLo:]⟩, plus k on the constant
// server, plus pads[0]·F0 + ⟨pads[1:], FPad⟩ (G0 and GPad for a g row; τ's
// row has no pads). x and h are trimmed to the span of their nonzero
// coefficients.
type row[Fd field.Field[E], E any] struct {
	xLo, hLo int
	x, h     []E
	k        E
	pads     []E
}

// at is the row's value on one server's shares: x its input share, h its
// H[1:M+1], a0 and pads its anchor and pads for this row's polynomial.
func (rw *row[Fd, E]) at(f Fd, x, h []E, a0 E, pads []E, constServer bool) E {
	v := f.Add(field.InnerProduct(f, rw.x, x[rw.xLo:rw.xLo+len(rw.x)]),
		field.InnerProduct(f, rw.h, h[rw.hLo:rw.hLo+len(rw.h)]))
	if constServer {
		v = f.Add(v, rw.k)
	}
	if len(rw.pads) > 0 {
		v = f.Add(v, f.Add(f.Mul(rw.pads[0], a0), field.InnerProduct(f, rw.pads[1:], pads)))
	}
	return v
}

// Batch returns the batch verifier for this evaluator, constructing it —
// its rows included — on first use.
func (ev *Evaluator[Fd, E]) Batch() *BatchVerifier[Fd, E] {
	ev.batchOnce.Do(func() {
		ev.batch = &BatchVerifier[Fd, E]{ev: ev, rows: ev.rows()}
	})
	return ev.batch
}

// rows builds the Round1 rows in one reverse pass over the circuit. Affine
// gates act share-wise and every multiplication gate's output is the proof's
// H[1+t], so each wire is a fixed linear function of (xShare, H[1:M+1]) and
// of the public constants. Seeded with ρ_k on assertion k (τ), with
// wN_j[t+1] on multiplication gate t's A operand (f(r_j)) and r_j·wN_j[t+1]
// on its B operand (r_j·g(r_j)), each gate passes its coefficients back to
// its operands, an input into the x coefficients, a multiplication into the
// h coefficients and a constant into k.
func (ev *Evaluator[Fd, E]) rows() []row[Fd, E] {
	sys := ev.sys
	f := sys.F
	c := sys.C
	nr := 1
	if sys.M > 0 {
		nr += 2 * sys.Reps
	}
	zeros := func(n int) []E {
		v := make([]E, n)
		if n > 0 {
			v[0] = f.Zero()
			for i := 1; i < n; i *= 2 {
				copy(v[i:], v[:i])
			}
		}
		return v
	}
	// Wire w's coefficient in row r is coef[w·nr+r]; likewise xc for the
	// inputs and hc for the multiplication gates' outputs.
	coef, xc, hc, kc := zeros(len(c.Gates)*nr), zeros(c.NumInputs*nr), zeros(sys.M*nr), zeros(nr)
	add := func(v []E, i int, d E) { v[i] = f.Add(v[i], d) }
	for k, a := range c.Asserts {
		add(coef, a*nr, ev.ch.Rho[k])
	}
	for t, m := range c.MulGates {
		g := c.Gates[m]
		for j, r := range ev.ch.R {
			add(coef, g.A*nr+1+j, ev.wN[j][t+1])
			add(coef, g.B*nr+1+sys.Reps+j, f.Mul(r, ev.wN[j][t+1]))
		}
	}
	mul := sys.M
	for i := len(c.Gates) - 1; i >= 0; i-- {
		g := c.Gates[i]
		if g.Op == circuit.OpMul {
			mul--
		}
		for r, v := range coef[i*nr : (i+1)*nr] {
			if f.IsZero(v) {
				continue
			}
			switch g.Op {
			case circuit.OpInput:
				add(xc, g.A*nr+r, v)
			case circuit.OpConst:
				add(kc, r, f.Mul(v, g.K))
			case circuit.OpAdd:
				add(coef, g.A*nr+r, v)
				add(coef, g.B*nr+r, v)
			case circuit.OpSub:
				add(coef, g.A*nr+r, v)
				add(coef, g.B*nr+r, f.Neg(v))
			case circuit.OpMul:
				hc[mul*nr+r] = v
			case circuit.OpMulConst:
				add(coef, g.A*nr+r, f.Mul(v, g.K))
			}
		}
	}
	rows := make([]row[Fd, E], nr)
	for r := range rows {
		rw := &rows[r]
		rw.xLo, rw.x = trimmed(f, xc, r, nr)
		rw.hLo, rw.h = trimmed(f, hc, r, nr)
		rw.k = kc[r]
		if r == 0 {
			continue
		}
		j, scale := r-1, f.One()
		if j >= sys.Reps {
			j -= sys.Reps
			scale = ev.ch.R[j]
		}
		rw.pads = make([]E, sys.Reps)
		rw.pads[0] = f.Mul(scale, ev.wN[j][0])
		for k := 1; k < sys.Reps; k++ {
			rw.pads[k] = f.Mul(scale, ev.wN[j][sys.M+k])
		}
	}
	return rows
}

// trimmed returns row r of the interleaved coefficients v (nr rows) cut to
// the span of its nonzero entries, and the span's offset.
func trimmed[Fd field.Field[E], E any](f Fd, v []E, r, nr int) (int, []E) {
	n := len(v) / nr
	lo, hi := 0, n
	for lo < hi && f.IsZero(v[lo*nr+r]) {
		lo++
	}
	for hi > lo && f.IsZero(v[(hi-1)*nr+r]) {
		hi--
	}
	out := make([]E, hi-lo)
	for i := range out {
		out[i] = v[(lo+i)*nr+r]
	}
	return lo, out
}

// BatchState carries one server's intermediate values for a whole batch
// between the verification rounds.
type BatchState[E any] struct {
	count   int
	taus    []E           // per submission: share of Σ ρ_k·assert_k
	triples [][]Triple[E] // per submission: this server's triple shares
	hr      [][]E         // [rep][submission]: shares of h(r_j)
	p       [][]E         // [rep][submission]: Beaver-completed products, set by SetOpened
	opened  bool
}

// Count returns the number of submissions in the batch.
func (st *BatchState[E]) Count() int { return st.count }

// Round1 runs this server's local verification pass over a whole batch of
// input and proof shares, producing the same per-submission D/E messages as
// Evaluator.Round1 — the Beaver openings are inherently per-submission, so
// the wire format is unchanged. Each submission's τ share and D/E messages
// are its rows' inner products with its shares, and its h(r_j) shares its
// H's with wH_j; no circuit is walked. All shapes are validated before any
// arithmetic; a malformed share yields an error, never a panic.
func (bv *BatchVerifier[Fd, E]) Round1(xShares [][]E, pfs []*Proof[E], constServer bool) (*BatchState[E], []*Round1[E], error) {
	sys := bv.ev.sys
	f := sys.F
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
	}
	// One backing array for all D/E messages, one for the h(r_j) shares and
	// one for the message structs keep allocations flat in b.
	reps := sys.Reps
	msgs := make([]*Round1[E], b)
	msgBack := make([]Round1[E], b)
	var deBack []E
	if sys.M > 0 {
		deBack = make([]E, 2*reps*b)
		hrBack := make([]E, reps*b)
		st.hr = make([][]E, reps)
		for j := range st.hr {
			st.hr[j] = hrBack[j*b : (j+1)*b : (j+1)*b]
		}
	}
	var zero E
	for i, pf := range pfs {
		st.triples[i] = pf.Triples
		msgs[i] = &msgBack[i]
		x := xShares[i]
		var h []E // the gate outputs
		if sys.M > 0 {
			h = pf.H[1 : sys.M+1]
		}
		st.taus[i] = bv.rows[0].at(f, x, h, zero, nil, constServer)
		if sys.M == 0 {
			continue
		}
		m := &msgBack[i]
		m.D = deBack[i*2*reps : i*2*reps+reps : i*2*reps+reps]
		m.E = deBack[i*2*reps+reps : (i+1)*2*reps : (i+1)*2*reps]
		for j := 0; j < reps; j++ {
			fr := bv.rows[1+j].at(f, x, h, pf.F0, pf.FPad, constServer)
			m.D[j] = f.Sub(fr, pf.Triples[j].A)
			rg := bv.rows[1+reps+j].at(f, x, h, pf.G0, pf.GPad, constServer)
			m.E[j] = f.Sub(rg, pf.Triples[j].B)
			st.hr[j][i] = field.InnerProduct(f, bv.ev.wH[j], pf.H)
		}
	}
	return st, msgs, nil
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
//	σ_comb[j] = Σ_i λ_{i−lo}·[f(r_j)·r_j·g(r_j)]_i − r_j·Σ_i λ_{i−lo}·[h(r_j)]_i
//	τ_comb    = Σ_i λ_{i−lo}·τ_i
//
// Summed across servers (Decide), both are zero when every submission in the
// range is valid. λ must have length hi−lo with every coefficient nonzero
// and must be freshly drawn (RLCCoeffs from a fresh seed) for every batch:
// a singleton range under nonzero λ is then exactly the per-submission test,
// and independent challenges stop crafted submissions from cancelling each
// other. The deployment always probes the whole batch, [0, count).
func (bv *BatchVerifier[Fd, E]) Combined(st *BatchState[E], lambda []E, lo, hi int) (*Round2[E], error) {
	ev := bv.ev
	sys := ev.sys
	f := sys.F
	if !st.opened || lo < 0 || hi > st.count || lo >= hi || len(lambda) != hi-lo {
		return nil, ErrBatchState
	}
	out := &Round2[E]{Tau: field.InnerProduct(f, lambda, st.taus[lo:hi])}
	if sys.M == 0 {
		return out, nil
	}
	out.Sigma = make([]E, sys.Reps)
	for j := 0; j < sys.Reps; j++ {
		sp := field.InnerProduct(f, lambda, st.p[j][lo:hi])
		hr := field.InnerProduct(f, lambda, st.hr[j][lo:hi])
		out.Sigma[j] = f.Sub(sp, f.Mul(ev.ch.R[j], hr))
	}
	return out, nil
}

// Single reproduces the per-submission Round2 message for submission i —
// the same values Evaluator.Round2 computes — from the batch state. It is
// what a server reveals for every submission when the batch's combined
// check fails. Combined over [i, i+1) is Single(i) times a nonzero
// coefficient, which is how the differential tests tie the batch state to
// the reference verifier.
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
		out.Sigma[j] = f.Sub(st.p[j][i], f.Mul(ev.ch.R[j], st.hr[j][i]))
	}
	return out, nil
}

// RLCCoeffs expands a PRG seed into n nonzero random-linear-combination
// coefficients. Every server derives the same seed for a batch from its
// challenge seed and batch ID (internal/core), so λ costs no bytes on the
// wire, keeps all servers in lockstep and is never reused across batches.
// Coefficients are rejection-sampled to be nonzero: a zero λ would silently
// drop its submission from the check, and nonzero λ makes a batch of one
// exactly the per-submission test.
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
