// Package poly provides the polynomial machinery behind SNIP proofs
// (Section 4.2 of the paper):
//
//   - radix-2 number-theoretic transforms over the 2^k root-of-unity domains
//     of an FFT-friendly field, and the coset transform (Coset) the prover
//     computes h = f·g with in O(M log M): h's even points over the 2N-point
//     domain are the gate products it already holds, and its odd points are
//     one N-point transform of each of f and g away. Over F64 the
//     butterflies run as monomorphic uint64 loops;
//   - precomputed Lagrange evaluation weights over those domains, which let
//     the verifiers evaluate a polynomial (or a share of one) at a fixed
//     random point r with a single O(N) inner product and no interpolation
//     (Appendix I, optimization 2);
//   - reference O(n²) interpolation/evaluation for tests and for fields with
//     no suitable roots of unity.
package poly

import (
	"sync"

	"prio/internal/field"
)

// Domain is the multiplicative subgroup of order N = 2^LogN generated by a
// primitive N-th root of unity, together with precomputed twiddle factors.
// Construct one per (field, size) pair and reuse it: construction is O(N).
type Domain[Fd field.Field[E], E any] struct {
	F    Fd
	LogN int
	N    int

	root    E   // w, primitive N-th root of unity
	invRoot E   // w^-1
	invN    E   // N^-1 in the field
	pow     []E // pow[i] = w^i, i < N
	invPow  []E // invPow[i] = w^-i, i < N

	twistOnce sync.Once
	twist     []E // twist[k] = N^-1·ω₂ₙ^rev(k), built by the first Coset
}

// NewDomain builds the size-2^logN NTT domain for field f. It panics if the
// field's two-adicity is insufficient.
func NewDomain[Fd field.Field[E], E any](f Fd, logN int) *Domain[Fd, E] {
	n := 1 << uint(logN)
	d := &Domain[Fd, E]{F: f, LogN: logN, N: n}
	d.root = f.RootOfUnity(logN)
	d.invRoot = f.Inv(d.root)
	d.invN = f.Inv(f.FromUint64(uint64(n)))
	d.pow = make([]E, n)
	d.invPow = make([]E, n)
	d.pow[0] = f.One()
	d.invPow[0] = f.One()
	for i := 1; i < n; i++ {
		d.pow[i] = f.Mul(d.pow[i-1], d.root)
		d.invPow[i] = f.Mul(d.invPow[i-1], d.invRoot)
	}
	return d
}

// Point returns w^i, the i-th evaluation point of the domain.
func (d *Domain[Fd, E]) Point(i int) E { return d.pow[i&(d.N-1)] }

// NTT transforms coefficients into evaluations in place:
// a[j] becomes Σ_i a[i]·w^(ij). len(a) must equal N.
func (d *Domain[Fd, E]) NTT(a []E) {
	d.butterflies(a, d.pow, true)
	bitReverse(a)
}

// INTT transforms evaluations back into coefficients in place. It is the
// exact inverse of NTT.
func (d *Domain[Fd, E]) INTT(a []E) {
	d.butterflies(a, d.invPow, true)
	bitReverse(a)
	for i := range a {
		a[i] = d.F.Mul(a[i], d.invN)
	}
}

// Coset takes the evaluations of a polynomial P of degree < N over the
// domain to its evaluations over the coset ω₂ₙ·D in place: a[t] becomes
// P(ω₂ₙ^(2t+1)), an odd point of the 2N-point domain. It interpolates
// (inverse DIF: natural order in, bit-reversed out), scales coefficient i
// by N^-1·ω₂ₙ^i in that order, and evaluates (forward DIT: bit-reversed
// in, natural out). It panics if the field has no 2N-th root of unity.
func (d *Domain[Fd, E]) Coset(a []E) {
	d.twistOnce.Do(func() {
		w := d.F.RootOfUnity(d.LogN + 1)
		d.twist = make([]E, d.N)
		d.twist[0] = d.invN
		for i := 1; i < d.N; i++ {
			d.twist[i] = d.F.Mul(d.twist[i-1], w)
		}
		bitReverse(d.twist)
	})
	d.butterflies(a, d.invPow, true)
	for i := range a {
		a[i] = d.F.Mul(a[i], d.twist[i])
	}
	d.butterflies(a, d.pow, false)
}

// bitReverse permutes a (of power-of-two length) into bit-reversed order.
func bitReverse[E any](a []E) {
	n := len(a)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
}

// butterflies runs the log N radix-2 stages of a transform with twiddle
// table tw (w^i forward, w^-i inverse): Gentleman-Sande decimation in
// frequency, natural order in and bit-reversed out, when dif is set, and
// Cooley-Tukey decimation in time, bit-reversed in and natural out,
// otherwise. Over F64 it runs as a monomorphic uint64 loop in which
// F64.Mul/Add/Sub inline; any other field goes through its methods.
func (d *Domain[Fd, E]) butterflies(a, tw []E, dif bool) {
	if len(a) != d.N {
		panic("poly: transform length does not match domain size")
	}
	if _, ok := any(d.F).(field.F64); ok {
		butterfliesF64(any(a).([]uint64), any(tw).([]uint64), dif)
		return
	}
	f, n := d.F, len(a)
	for s := 1; s < n; s <<= 1 {
		half, step := s, n/(2*s)
		if dif {
			half, step = step, half
		}
		for i := 0; i < n; i += 2 * half {
			x, y := a[i:i+half], a[i+half:i+2*half]
			if dif {
				for j := range x {
					u, v := x[j], y[j]
					x[j], y[j] = f.Add(u, v), f.Mul(f.Sub(u, v), tw[j*step])
				}
				continue
			}
			for j := range x {
				v := f.Mul(y[j], tw[j*step])
				x[j], y[j] = f.Add(x[j], v), f.Sub(x[j], v)
			}
		}
	}
}

func butterfliesF64(a, tw []uint64, dif bool) {
	var f field.F64
	n := len(a)
	for s := 1; s < n; s <<= 1 {
		half, step := s, n/(2*s)
		if dif {
			half, step = step, half
		}
		for i := 0; i < n; i += 2 * half {
			x, y := a[i:i+half], a[i+half:i+2*half]
			if dif {
				for j := range x {
					u, v := x[j], y[j]
					x[j], y[j] = f.Add(u, v), f.Mul(f.Sub(u, v), tw[j*step])
				}
				continue
			}
			for j := range x {
				v := f.Mul(y[j], tw[j*step])
				x[j], y[j] = f.Add(x[j], v), f.Sub(x[j], v)
			}
		}
	}
}

// EvalWeights returns the Lagrange weights c such that, for any polynomial P
// of degree < N given by its evaluations y_j = P(w^j) over the domain,
// P(r) = Σ_j c[j]·y_j. The weights depend only on (domain, r), so verifiers
// precompute them once per challenge point and evaluate each subsequent
// polynomial share with a single inner product.
//
// If r lies in the domain the weights degenerate to an indicator vector.
func (d *Domain[Fd, E]) EvalWeights(r E) []E {
	return d.EvalWeightsInto(r, make([]E, d.N), make([]E, d.N))
}

// EvalWeightsInto is EvalWeights with caller-supplied storage: the weights
// are written into dst and scratch is clobbered (both must have length N).
// Batch verification builds weight tables for every repetition of every
// challenge; routing those builds through pooled buffers keeps challenge
// rotation allocation-free.
func (d *Domain[Fd, E]) EvalWeightsInto(r E, dst, scratch []E) []E {
	f := d.F
	n := d.N
	if len(dst) != n || len(scratch) != n {
		panic("poly: EvalWeightsInto length mismatch")
	}
	// r^N == 1 iff r is in the domain.
	rN := field.Pow(f, r, uint64(n))
	if f.Equal(rN, f.One()) {
		for j := range dst {
			dst[j] = f.Zero()
			if f.Equal(r, d.pow[j]) {
				dst[j] = f.One()
			}
		}
		return dst
	}
	// L_j(r) = w^j (r^N - 1) / (N (r - w^j)).
	num := f.Mul(f.Sub(rN, f.One()), d.invN)
	for j := 0; j < n; j++ {
		dst[j] = f.Sub(r, d.pow[j])
	}
	BatchInvInPlace(f, dst, scratch)
	for j := 0; j < n; j++ {
		dst[j] = f.Mul(f.Mul(d.pow[j], num), dst[j])
	}
	return dst
}

// BatchInv inverts every element of a with a single field inversion and
// 3(n-1) multiplications (Montgomery's trick). Zero elements map to zero.
func BatchInv[Fd field.Field[E], E any](f Fd, a []E) []E {
	out := append([]E(nil), a...)
	BatchInvInPlace(f, out, make([]E, len(a)))
	return out
}

// BatchInvInPlace inverts every element of a in place using scratch (same
// length as a) for the prefix products. Zero elements map to zero.
func BatchInvInPlace[Fd field.Field[E], E any](f Fd, a, scratch []E) {
	n := len(a)
	if len(scratch) != n {
		panic("poly: BatchInvInPlace scratch length mismatch")
	}
	acc := f.One()
	for i := 0; i < n; i++ {
		scratch[i] = acc
		if !f.IsZero(a[i]) {
			acc = f.Mul(acc, a[i])
		}
	}
	inv := f.Inv(acc)
	for i := n - 1; i >= 0; i-- {
		if f.IsZero(a[i]) {
			a[i] = f.Zero()
			continue
		}
		v := f.Mul(inv, scratch[i])
		inv = f.Mul(inv, a[i])
		a[i] = v
	}
}

// Eval evaluates the coefficient-form polynomial at x by Horner's rule.
// coeffs[i] is the coefficient of x^i.
func Eval[Fd field.Field[E], E any](f Fd, coeffs []E, x E) E {
	acc := f.Zero()
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = f.Add(f.Mul(acc, x), coeffs[i])
	}
	return acc
}

// Interpolate returns the coefficients of the unique polynomial of degree
// < len(xs) passing through the points (xs[i], ys[i]). The xs must be
// distinct. It runs in O(n²) and exists as a reference implementation and
// for arbitrary (non-NTT) point sets.
func Interpolate[Fd field.Field[E], E any](f Fd, xs, ys []E) []E {
	n := len(xs)
	if n != len(ys) {
		panic("poly: Interpolate length mismatch")
	}
	if n == 0 {
		return nil
	}
	// master(x) = Π_k (x - xs[k])
	master := make([]E, n+1)
	master[0] = f.One()
	deg := 0
	for _, xk := range xs {
		// multiply master by (x - xk)
		master[deg+1] = master[deg]
		for i := deg; i > 0; i-- {
			master[i] = f.Sub(master[i-1], f.Mul(master[i], xk))
		}
		master[0] = f.Neg(f.Mul(master[0], xk))
		deg++
	}
	out := make([]E, n)
	for i := range out {
		out[i] = f.Zero()
	}
	q := make([]E, n)
	for j := 0; j < n; j++ {
		// q = master / (x - xs[j]) by synthetic division.
		carry := master[n]
		for i := n - 1; i >= 0; i-- {
			q[i] = carry
			carry = f.Add(master[i], f.Mul(carry, xs[j]))
		}
		// scale by ys[j] / q(xs[j])
		scale := f.Mul(ys[j], f.Inv(Eval(f, q, xs[j])))
		for i := 0; i < n; i++ {
			out[i] = f.Add(out[i], f.Mul(q[i], scale))
		}
	}
	return out
}

// MulNaive returns the coefficient-form product of two polynomials in
// O(deg_a · deg_b); it is the reference against which NTT multiplication is
// tested.
func MulNaive[Fd field.Field[E], E any](f Fd, a, b []E) []E {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]E, len(a)+len(b)-1)
	for i := range out {
		out[i] = f.Zero()
	}
	for i, ai := range a {
		for j, bj := range b {
			out[i+j] = f.Add(out[i+j], f.Mul(ai, bj))
		}
	}
	return out
}
