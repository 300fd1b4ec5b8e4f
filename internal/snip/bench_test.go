package snip

import (
	"crypto/rand"
	"fmt"
	"testing"

	"prio/internal/afe"
	"prio/internal/circuit"
	"prio/internal/field"
	"prio/internal/prg"
)

// benchShape is a circuit the repository benchmark verifies, with an
// encoder of its i-th valid input.
type benchShape struct {
	name   string
	c      *circuit.Circuit[uint64]
	encode func(i int) ([]uint64, error)
}

// benchShapes are linreg10x14 (a 980-gate circuit) and bits1024 (1,024
// multiplication gates).
func benchShapes() []benchShape {
	f := field.NewF64()
	linreg := afe.NewLinRegUniform(f, 10, 14)
	bits := afe.NewBitVector(f, 1024)
	return []benchShape{
		{"linreg10x14", linreg.Circuit(), func(i int) ([]uint64, error) {
			x := make([]uint64, 10)
			for j := range x {
				x[j] = uint64(i*31+j*7) % (1 << 14)
			}
			return linreg.Encode(x, uint64(i)%(1<<14))
		}},
		{"bits1024", bits.Circuit(), func(i int) ([]uint64, error) {
			v := make([]bool, 1024)
			for j := range v {
				v[j] = (i+j)%3 == 0
			}
			return bits.Encode(v)
		}},
	}
}

// BenchmarkBatchRound1 is one server's batch Round1 alone —
// BatchVerifier.Round1 over B submissions under one challenge, two
// repetitions — on the two shapes the repository benchmark verifies: per
// submission, 1+2·Reps inner products of its shares with the challenge's
// precomputed rows and one of its H with wH_j per repetition. ns/sub is the per-submission cost; allocs/op and B/op
// are the pass's own allocations.
//
//	go test -run '^$' -bench BatchRound1 -benchmem ./internal/snip/
func BenchmarkBatchRound1(b *testing.B) {
	f := field.NewF64()
	for _, shape := range benchShapes() {
		sys, err := NewSystem(f, shape.c, Params{Reps: 2})
		if err != nil {
			b.Fatal(err)
		}
		ch, err := sys.NewChallenge(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		bv := sys.NewEvaluator(ch).Batch()
		for _, batch := range []int{1, 16} {
			xs := make([][]uint64, batch)
			pfs := make([]*Proof[uint64], batch)
			for i := range xs {
				if xs[i], err = shape.encode(i); err != nil {
					b.Fatal(err)
				}
				if pfs[i], err = sys.Prove(xs[i], rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
			b.Run(fmt.Sprintf("%s/B=%d", shape.name, batch), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := bv.Round1(xs, pfs, true); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sub")
			})
		}
	}
}

// BenchmarkNewEvaluator is the cost of one challenge on the two shapes the
// repository benchmark verifies, two repetitions: the Lagrange weights and
// the batch verifier's Round1 rows, built once per challenge by whichever
// CachedEvaluator lookup misses.
//
//	go test -run '^$' -bench NewEvaluator -benchmem ./internal/snip/
func BenchmarkNewEvaluator(b *testing.B) {
	f := field.NewF64()
	for _, shape := range benchShapes() {
		sys, err := NewSystem(f, shape.c, Params{Reps: 2})
		if err != nil {
			b.Fatal(err)
		}
		ch, err := sys.NewChallenge(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys.NewEvaluator(ch).Batch()
			}
		})
	}
}

// BenchmarkBatchCombined is one server's combined check alone —
// BatchVerifier.Combined over a bits1024 batch of B = 16 under one
// challenge, two repetitions: τ's inner product with λ and, per
// repetition, the products' and the h(r_j) shares', each of length B (the
// h(r_j) shares themselves are Round1's). ns/sub is the per-submission
// cost.
//
//	go test -run '^$' -bench BatchCombined -benchmem ./internal/snip/
func BenchmarkBatchCombined(b *testing.B) {
	const batch = 16
	f := field.NewF64()
	bits := afe.NewBitVector(f, 1024)
	sys, err := NewSystem(f, bits.Circuit(), Params{Reps: 2})
	if err != nil {
		b.Fatal(err)
	}
	ch, err := sys.NewChallenge(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	bv := sys.NewEvaluator(ch).Batch()
	xs := make([][]uint64, batch)
	pfs := make([]*Proof[uint64], batch)
	for i := range xs {
		v := make([]bool, 1024)
		for j := range v {
			v[j] = (i+j)%3 == 0
		}
		if xs[i], err = bits.Encode(v); err != nil {
			b.Fatal(err)
		}
		if pfs[i], err = sys.Prove(xs[i], rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
	st, msgs, err := bv.Round1(xs, pfs, true)
	if err != nil {
		b.Fatal(err)
	}
	if err := bv.SetOpened(st, msgs, 1); err != nil {
		b.Fatal(err)
	}
	lambda := RLCCoeffs(f, prg.Seed{1}, batch)
	b.Run(fmt.Sprintf("bits1024/B=%d", batch), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bv.Combined(st, lambda, 0, batch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sub")
	})
}
