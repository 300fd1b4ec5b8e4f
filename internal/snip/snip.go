package snip

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	"prio/internal/circuit"
	"prio/internal/field"
	"prio/internal/poly"
	"prio/internal/share"
)

// Params configures a SNIP system.
type Params struct {
	// Reps is the number of independent polynomial identity tests. One test
	// fails a cheating client with probability ≤ 2N/|F|; over F64 use 2 reps
	// for ≈2⁻⁹⁰ soundness, over F128 a single test already gives ≈2⁻¹¹⁴
	// (Section 4.3: take |F| ≈ 2^128 "or repeat Step 3 a few times").
	// Zero means 1.
	Reps int
}

// Errors returned by the prover and verifier.
var (
	ErrFieldTooSmall = errors.New("snip: field two-adicity insufficient for circuit size")
	ErrDimensions    = errors.New("snip: proof dimensions do not match system")
)

// Triple is an additive share (or clear value) of a Beaver multiplication
// triple a·b = c.
type Triple[E any] struct {
	A, B, C E
}

// System binds a field, a validation circuit and proof parameters, and
// precomputes the NTT domains shared by prover and verifiers. A System's
// parameters are immutable and it is safe for concurrent use; the only
// mutable state is the internal challenge-keyed evaluator cache, which is
// guarded by its own lock.
type System[Fd field.Field[E], E any] struct {
	F    Fd
	C    *circuit.Circuit[E]
	Reps int

	// M is the multiplication-gate count; N = 2^LogN is the interpolation
	// domain size, the least power of two with room for the M wire points,
	// the random anchor at position 0, and Reps-1 extra random anchors that
	// keep repeated identity tests zero-knowledge.
	M, N, LogN int

	dN  *poly.Domain[Fd, E] // nil when M == 0
	d2N *poly.Domain[Fd, E]

	// Challenge-keyed evaluator cache (CachedEvaluator): in-process servers
	// sharing a System and a challenge share one Lagrange precomputation.
	evMu    sync.Mutex
	evCache map[string]*Evaluator[Fd, E]
	evOrder []string

	// Cache outcome counters (atomic; see EvCacheStats). A healthy
	// deployment hits almost always — each challenge rotation costs one
	// miss shared by every in-process server.
	evHits, evMisses uint64
}

// EvCacheStats reports the evaluator cache's cumulative hits and misses —
// the telemetry layer exposes them as the cache hit-rate a mis-tuned
// rotation cadence (or a challenge flood) would degrade.
func (sys *System[Fd, E]) EvCacheStats() (hits, misses uint64) {
	return atomic.LoadUint64(&sys.evHits), atomic.LoadUint64(&sys.evMisses)
}

// NewSystem builds a SNIP system for circuit c over field f. It fails if
// the field's two-adicity cannot accommodate the required NTT sizes.
func NewSystem[Fd field.Field[E], E any](f Fd, c *circuit.Circuit[E], p Params) (*System[Fd, E], error) {
	reps := p.Reps
	if reps <= 0 {
		reps = 1
	}
	sys := &System[Fd, E]{F: f, C: c, Reps: reps, M: c.M()}
	if sys.M == 0 {
		// Purely affine circuit: no polynomial test needed, only the
		// assertion-wire check.
		return sys, nil
	}
	need := sys.M + reps // positions 1..M plus anchors {0, M+1..M+reps-1}
	logN := bits.Len(uint(need - 1))
	if 1<<uint(logN) < need {
		logN++
	}
	if logN+1 > f.TwoAdicity() {
		return nil, fmt.Errorf("%w: need 2^%d-point domain over %s", ErrFieldTooSmall, logN+1, f.Name())
	}
	sys.LogN = logN
	sys.N = 1 << uint(logN)
	sys.dN = poly.NewDomain(f, logN)
	sys.d2N = poly.NewDomain(f, logN+1)
	return sys, nil
}

// Proof is a SNIP proof — or, since sharing is component-wise, one additive
// share of a SNIP proof. H is in point-value form over the 2N-point domain;
// H[2t] is h(ω_N^t), the output of multiplication gate t.
type Proof[E any] struct {
	F0, G0     E
	FPad, GPad []E         // Reps-1 extra random anchors each
	H          []E         // 2N evaluations of h (empty when M == 0)
	Triples    []Triple[E] // one Beaver triple per repetition
}

// ProofLen returns the number of field elements in a proof (share): the
// client-to-server cost that grows linearly in M (Table 2, "Proof len").
func (sys *System[Fd, E]) ProofLen() int {
	if sys.M == 0 {
		return 0
	}
	return 2 + 2*(sys.Reps-1) + 2*sys.N + 3*sys.Reps
}

// Prove builds the SNIP proof for input x. The prover evaluates Valid(x),
// interpolates f and g through the multiplication-gate operands (with
// uniformly random anchors for zero knowledge), computes h = f·g by NTT, and
// deals itself Beaver triples (Section 4.2, step 1 and step 3b).
//
// Prove does not require Valid(x) to hold: dishonest inputs yield proofs the
// servers will reject, which the adversarial tests rely on.
func (sys *System[Fd, E]) Prove(x []E, rnd io.Reader) (*Proof[E], error) {
	f := sys.F
	if len(x) != sys.C.NumInputs {
		return nil, fmt.Errorf("snip: input has %d elements, circuit wants %d", len(x), sys.C.NumInputs)
	}
	pf := &Proof[E]{}
	if sys.M == 0 {
		return pf, nil
	}
	tr := circuit.Eval(f, sys.C, x)

	// Point-value tables for f and g over the N-domain: wire operands at
	// positions 1..M, random anchors at 0 and M+1..M+Reps-1, zero elsewhere.
	fv := make([]E, sys.N)
	gv := make([]E, sys.N)
	for i := range fv {
		fv[i] = f.Zero()
		gv[i] = f.Zero()
	}
	var err error
	if pf.F0, err = f.SampleElem(rnd); err != nil {
		return nil, err
	}
	if pf.G0, err = f.SampleElem(rnd); err != nil {
		return nil, err
	}
	fv[0], gv[0] = pf.F0, pf.G0
	copy(fv[1:], tr.U)
	copy(gv[1:], tr.V)
	pf.FPad = make([]E, sys.Reps-1)
	pf.GPad = make([]E, sys.Reps-1)
	for j := range pf.FPad {
		if pf.FPad[j], err = f.SampleElem(rnd); err != nil {
			return nil, err
		}
		if pf.GPad[j], err = f.SampleElem(rnd); err != nil {
			return nil, err
		}
		fv[sys.M+1+j] = pf.FPad[j]
		gv[sys.M+1+j] = pf.GPad[j]
	}

	// Interpolate (INTT), zero-pad to 2N, evaluate (NTT), multiply pointwise.
	sys.dN.INTT(fv)
	sys.dN.INTT(gv)
	f2 := make([]E, 2*sys.N)
	g2 := make([]E, 2*sys.N)
	zero := f.Zero()
	for i := range f2 {
		f2[i], g2[i] = zero, zero
	}
	copy(f2, fv)
	copy(g2, gv)
	sys.d2N.NTT(f2)
	sys.d2N.NTT(g2)
	pf.H = make([]E, 2*sys.N)
	for i := range pf.H {
		pf.H[i] = f.Mul(f2[i], g2[i])
	}

	pf.Triples = make([]Triple[E], sys.Reps)
	for j := range pf.Triples {
		a, err := f.SampleElem(rnd)
		if err != nil {
			return nil, err
		}
		b, err := f.SampleElem(rnd)
		if err != nil {
			return nil, err
		}
		pf.Triples[j] = Triple[E]{A: a, B: b, C: f.Mul(a, b)}
	}
	return pf, nil
}

// Split divides the proof into s additive shares (component-wise). The
// original proof is not modified.
func (sys *System[Fd, E]) Split(pf *Proof[E], s int, rnd io.Reader) ([]*Proof[E], error) {
	f := sys.F
	if s < 1 {
		return nil, share.ErrBadShareCount
	}
	// Flatten, split, unflatten: keeps the sharing logic in one place.
	flat := sys.flatten(pf)
	shares, err := share.Split(f, rnd, flat, s)
	if err != nil {
		return nil, err
	}
	out := make([]*Proof[E], s)
	for i := range shares {
		out[i] = sys.unflatten(shares[i])
	}
	return out, nil
}

// FlattenProof packs a proof into a single vector of ProofLen elements in a
// fixed layout; it is how the pipeline serializes proof shares and folds
// them into PRG-compressed bundles.
func (sys *System[Fd, E]) FlattenProof(pf *Proof[E]) []E { return sys.flatten(pf) }

// UnflattenProof is the inverse of FlattenProof. The returned proof's FPad,
// GPad and H are views of flat, not copies — the servers unflatten straight
// out of the pooled slab a share was expanded into — so flat must stay
// untouched for as long as the proof (or verifier state built on it) is in
// use.
func (sys *System[Fd, E]) UnflattenProof(flat []E) (*Proof[E], error) {
	if len(flat) != sys.ProofLen() {
		return nil, ErrDimensions
	}
	return sys.unflatten(flat), nil
}

// flatten packs a proof into a single vector in a fixed layout.
func (sys *System[Fd, E]) flatten(pf *Proof[E]) []E {
	if sys.M == 0 {
		return nil
	}
	flat := make([]E, 0, sys.ProofLen())
	flat = append(flat, pf.F0, pf.G0)
	flat = append(flat, pf.FPad...)
	flat = append(flat, pf.GPad...)
	flat = append(flat, pf.H...)
	for _, t := range pf.Triples {
		flat = append(flat, t.A, t.B, t.C)
	}
	return flat
}

// unflatten is the inverse of flatten; the vector fields alias flat.
func (sys *System[Fd, E]) unflatten(flat []E) *Proof[E] {
	pf := &Proof[E]{}
	if sys.M == 0 {
		return pf
	}
	pf.F0, pf.G0 = flat[0], flat[1]
	idx := 2
	pf.FPad = flat[idx : idx+sys.Reps-1 : idx+sys.Reps-1]
	idx += sys.Reps - 1
	pf.GPad = flat[idx : idx+sys.Reps-1 : idx+sys.Reps-1]
	idx += sys.Reps - 1
	pf.H = flat[idx : idx+2*sys.N : idx+2*sys.N]
	idx += 2 * sys.N
	pf.Triples = make([]Triple[E], sys.Reps)
	for j := range pf.Triples {
		pf.Triples[j] = Triple[E]{A: flat[idx], B: flat[idx+1], C: flat[idx+2]}
		idx += 3
	}
	return pf
}

// checkDims validates that a received proof share has the shape this system
// expects; malformed shapes are rejected before any arithmetic.
func (sys *System[Fd, E]) checkDims(pf *Proof[E]) error {
	if sys.M == 0 {
		if len(pf.H) != 0 || len(pf.Triples) != 0 {
			return ErrDimensions
		}
		return nil
	}
	if len(pf.FPad) != sys.Reps-1 || len(pf.GPad) != sys.Reps-1 ||
		len(pf.H) != 2*sys.N || len(pf.Triples) != sys.Reps {
		return ErrDimensions
	}
	return nil
}
