package snip

import (
	"fmt"
	"io"
	"testing"

	"prio/internal/afe"
	"prio/internal/circuit"
	"prio/internal/field"
	"prio/internal/poly"
	"prio/internal/prg"
)

// proveZeroPadded2N is the prover's original construction of a proof:
// interpolate f and g over the N-domain, zero-pad both coefficient vectors
// to 2N, evaluate them over the 2N-domain with two 2N-point NTTs and
// multiply pointwise. Prove must produce the same proof from the same rnd.
func proveZeroPadded2N[Fd field.Field[E], E any](sys *System[Fd, E], x []E, rnd io.Reader) (*Proof[E], error) {
	f := sys.F
	tr := circuit.Eval(f, sys.C, x)
	fv := make([]E, sys.N)
	gv := make([]E, sys.N)
	for i := range fv {
		fv[i], gv[i] = f.Zero(), f.Zero()
	}
	pf := &Proof[E]{FPad: make([]E, sys.Reps-1), GPad: make([]E, sys.Reps-1)}
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
	for j := range pf.FPad {
		if pf.FPad[j], err = f.SampleElem(rnd); err != nil {
			return nil, err
		}
		if pf.GPad[j], err = f.SampleElem(rnd); err != nil {
			return nil, err
		}
		fv[sys.M+1+j], gv[sys.M+1+j] = pf.FPad[j], pf.GPad[j]
	}
	dN, d2N := poly.NewDomain(f, sys.LogN), poly.NewDomain(f, sys.LogN+1)
	dN.INTT(fv)
	dN.INTT(gv)
	f2 := make([]E, 2*sys.N)
	g2 := make([]E, 2*sys.N)
	for i := range f2 {
		f2[i], g2[i] = f.Zero(), f.Zero()
	}
	copy(f2, fv)
	copy(g2, gv)
	d2N.NTT(f2)
	d2N.NTT(g2)
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

// proveShape is one benchmark scheme's circuit with a valid encoding.
type proveShape[E any] struct {
	name string
	c    *circuit.Circuit[E]
	x    []E
}

// proveShapes builds the benchmark's client shapes — sum8, bits434,
// bits1024, linreg10x14 and countmin10/10 — over f, each with one valid
// encoded input.
func proveShapes[Fd field.Field[E], E any](t *testing.T, f Fd) []proveShape[E] {
	t.Helper()
	sum := afe.NewSum(f, 8)
	bits434, bits1024 := afe.NewBitVector(f, 434), afe.NewBitVector(f, 1024)
	linreg := afe.NewLinRegUniform(f, 10, 14)
	cm := afe.NewCountMin(f, 0.1, 1.0/1024)
	pattern := func(n int) []bool {
		v := make([]bool, n)
		for i := range v {
			v[i] = i%3 == 0
		}
		return v
	}
	xs := make([]uint64, 10)
	for i := range xs {
		xs[i] = uint64(1000 * (i + 1))
	}
	var shapes []proveShape[E]
	add := func(name string, c *circuit.Circuit[E], x []E, err error) {
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		shapes = append(shapes, proveShape[E]{name, c, x})
	}
	x, err := sum.Encode(200)
	add("sum8", sum.Circuit(), x, err)
	x, err = bits434.Encode(pattern(434))
	add("bits434", bits434.Circuit(), x, err)
	x, err = bits1024.Encode(pattern(1024))
	add("bits1024", bits1024.Circuit(), x, err)
	x, err = linreg.Encode(xs, 4321)
	add("linreg10x14", linreg.Circuit(), x, err)
	x, err = cm.Encode([]byte("example.com"))
	add("countmin10/10", cm.Circuit(), x, err)
	return shapes
}

// TestProveMatchesZeroPadded2N pins Prove's proofs, bit for bit, to the
// zero-padded 2N-point construction under the same entropy stream, for
// every benchmark shape with a valid input and an invalid one (every
// element 3, which no bit or range check accepts), over F64 (the
// monomorphic butterflies) and over F128 and FP87 (the generic ones). The
// construction's h has all 2N points; Prove's must be it less the even
// points t ≥ M+Reps, each of which must be zero.
func TestProveMatchesZeroPadded2N(t *testing.T) {
	t.Run("F64", func(t *testing.T) { checkProveMatchesZeroPadded2N(t, field.NewF64()) })
	t.Run("F128", func(t *testing.T) { checkProveMatchesZeroPadded2N(t, field.NewF128()) })
	t.Run("FP87", func(t *testing.T) { checkProveMatchesZeroPadded2N(t, field.NewFP87()) })
}

func checkProveMatchesZeroPadded2N[Fd field.Field[E], E any](t *testing.T, f Fd) {
	for _, sh := range proveShapes(t, f) {
		sys, err := NewSystem(f, sh.c, Params{Reps: 2})
		if err != nil {
			t.Fatal(err)
		}
		bad := make([]E, len(sh.x))
		for i := range bad {
			bad[i] = f.FromUint64(3)
		}
		for _, in := range []struct {
			name string
			x    []E
		}{{"valid", sh.x}, {"invalid", bad}} {
			name := fmt.Sprintf("%s/%s", sh.name, in.name)
			seed := prg.Seed{byte(len(sh.x)), byte(len(in.name))}
			got, err := sys.Prove(in.x, prg.New(seed))
			if err != nil {
				t.Fatalf("%s: Prove: %v", name, err)
			}
			want, err := proveZeroPadded2N(sys, in.x, prg.New(seed))
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			for tt := sys.M + sys.Reps; tt < sys.N; tt++ {
				if !f.IsZero(want.H[2*tt]) {
					t.Fatalf("%s: dropped point h(ω_N^%d) is not zero", name, tt)
				}
			}
			if len(got.H) != sys.N+sys.M+sys.Reps || !field.EqualVec(f, expandH(sys, got.H), want.H) {
				t.Fatalf("%s: h differs from the zero-padded 2N construction's", name)
			}
			want.H = got.H // the rest of the proof must match too
			if !field.EqualVec(f, sys.FlattenProof(got), sys.FlattenProof(want)) {
				t.Fatalf("%s: proof differs from the zero-padded 2N construction", name)
			}
		}
	}
}
