package prio_test

import (
	"crypto/rand"
	"fmt"
	"testing"

	"prio/internal/field"
	"prio/internal/poly"
	"prio/internal/prg"
	"prio/internal/share"
)

// Ablation: the prover's h = f·g construction via NTT versus the schoolbook
// alternative (O(M²) naive interpolation + multiplication). This is the
// design decision behind using FFT-friendly fields (DESIGN.md §3); the paper
// offloaded the same step to FLINT's FFT. The NTT arm is the shipped path —
// h's even points are fv·gv, its odd points one N-point coset transform of
// each of f and g away — and NTT2N the zero-padded construction it
// replaced, an N-point inverse and a 2N-point forward transform of each.
func BenchmarkAblation_ProofPolynomials(b *testing.B) {
	f := field.NewF64()
	for _, m := range []int{64, 256} {
		// Wire values standing in for the mul-gate operands.
		u, err := field.SampleVec(f, rand.Reader, m+1)
		if err != nil {
			b.Fatal(err)
		}
		v, err := field.SampleVec(f, rand.Reader, m+1)
		if err != nil {
			b.Fatal(err)
		}
		logN := 0
		for 1<<logN < m+1 {
			logN++
		}
		dN := poly.NewDomain(f, logN)

		b.Run(fmt.Sprintf("NTT/M=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fv := make([]uint64, dN.N)
				gv := make([]uint64, dN.N)
				copy(fv, u)
				copy(gv, v)
				h := make([]uint64, 2*dN.N)
				for t := range fv {
					h[2*t] = f.Mul(fv[t], gv[t])
				}
				dN.Coset(fv)
				dN.Coset(gv)
				for t := range fv {
					h[2*t+1] = f.Mul(fv[t], gv[t])
				}
			}
		})

		b.Run(fmt.Sprintf("NTT2N/M=%d", m), func(b *testing.B) {
			d2N := poly.NewDomain(f, logN+1)
			for i := 0; i < b.N; i++ {
				fv := make([]uint64, dN.N)
				gv := make([]uint64, dN.N)
				copy(fv, u)
				copy(gv, v)
				dN.INTT(fv)
				dN.INTT(gv)
				f2 := make([]uint64, d2N.N)
				g2 := make([]uint64, d2N.N)
				copy(f2, fv)
				copy(g2, gv)
				d2N.NTT(f2)
				d2N.NTT(g2)
				for j := range f2 {
					f2[j] = f.Mul(f2[j], g2[j])
				}
			}
		})

		b.Run(fmt.Sprintf("Naive/M=%d", m), func(b *testing.B) {
			xs := make([]uint64, m+1)
			for i := range xs {
				xs[i] = uint64(i)
			}
			for i := 0; i < b.N; i++ {
				fc := poly.Interpolate(f, xs, u)
				gc := poly.Interpolate(f, xs, v)
				_ = poly.MulNaive(f, fc, gc)
			}
		})
	}
}

// Ablation: PRG share compression (Appendix I opt. 1) versus explicit
// shares — the client-side upload-size trade measured as time; the byte
// saving is s× by construction.
func BenchmarkAblation_ShareCompression(b *testing.B) {
	f := field.NewF64()
	x, err := field.SampleVec(f, rand.Reader, 4096)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Seeded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := shareSplitSeeded(f, x, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Explicit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := shareSplit(f, x, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// shareSplitSeeded and shareSplit adapt the share package to the ablation
// benchmarks above.
func shareSplitSeeded(f field.F64, x []uint64, s int) ([]prg.Seed, []uint64, error) {
	return share.SplitSeeded(f, x, s)
}

func shareSplit(f field.F64, x []uint64, s int) ([][]uint64, error) {
	return share.Split(f, rand.Reader, x, s)
}
