// BenchmarkBatchVerify measures the batched SNIP verification path against
// the per-submission baseline on equal terms: same circuit, same proofs,
// same single-server arithmetic, batch sizes swept past the pipeline's
// default. The headline metric is ns/verification (amortized per
// submission); allocs/op at equal batch size compares the two modes' memory
// traffic. See docs/VERIFY.md for why the batch path wins: shared Lagrange
// weights, Round1 as inner products with rows precomputed per challenge
// instead of a circuit walk per submission, and one inner product over h's
// N+M+Reps points per repetition for the whole batch instead of one per
// submission.
package prio_test

import (
	"crypto/rand"
	"fmt"
	"testing"

	"prio/internal/afe"
	"prio/internal/field"
	"prio/internal/prg"
	"prio/internal/snip"
)

// batchVerifyFixture proves `batch` honest 256-bit-vector submissions and
// returns everything a single verifying server needs.
func batchVerifyFixture(b *testing.B, batch int) (field.F64, *snip.Evaluator[field.F64, uint64], [][]uint64, []*snip.Proof[uint64]) {
	b.Helper()
	f := field.NewF64()
	const l = 256
	scheme := afe.NewBitVector(f, l)
	sys, err := snip.NewSystem(f, scheme.Circuit(), snip.Params{Reps: 1})
	if err != nil {
		b.Fatal(err)
	}
	ch, err := sys.NewChallenge(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	ev := sys.NewEvaluator(ch)
	xs := make([][]uint64, batch)
	pfs := make([]*snip.Proof[uint64], batch)
	bits := make([]bool, l)
	for i := range xs {
		for j := range bits {
			bits[j] = (i+j)%3 == 0
		}
		enc, err := scheme.Encode(bits)
		if err != nil {
			b.Fatal(err)
		}
		xs[i] = enc
		if pfs[i], err = sys.Prove(enc, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
	return f, ev, xs, pfs
}

// BenchmarkBatchVerify sweeps batch size for both verification modes. The
// interesting comparison is ns/verification and allocs/op between
// Mode=per-submission and Mode=batch at the same B. Run with:
//
//	go test -bench=BatchVerify -benchmem
func BenchmarkBatchVerify(b *testing.B) {
	for _, batch := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("Mode=per-submission/B=%d", batch), func(b *testing.B) {
			f, ev, xs, pfs := batchVerifyFixture(b, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch; j++ {
					st, m, err := ev.Round1(xs[j], pfs[j], true)
					if err != nil {
						b.Fatal(err)
					}
					op := snip.SumRound1(f, []*snip.Round1[uint64]{m})
					r2 := ev.Round2(st, op, 1)
					if !ev.Decide([]*snip.Round2[uint64]{r2}) {
						b.Fatal("honest submission rejected")
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/verification")
		})
		b.Run(fmt.Sprintf("Mode=batch/B=%d", batch), func(b *testing.B) {
			f, ev, xs, pfs := batchVerifyFixture(b, batch)
			bv := ev.Batch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, msgs, err := bv.Round1(xs, pfs, true)
				if err != nil {
					b.Fatal(err)
				}
				opened := make([]*snip.Round1[uint64], batch)
				for j := range opened {
					opened[j] = snip.SumRound1(f, []*snip.Round1[uint64]{msgs[j]})
				}
				if err := bv.SetOpened(st, opened, 1); err != nil {
					b.Fatal(err)
				}
				var seed prg.Seed
				if _, err := rand.Read(seed[:]); err != nil {
					b.Fatal(err)
				}
				r2, err := bv.Combined(st, snip.RLCCoeffs(f, seed, batch), 0, batch)
				if err != nil {
					b.Fatal(err)
				}
				if !ev.Decide([]*snip.Round2[uint64]{r2}) {
					b.Fatal("honest batch rejected")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/verification")
		})
	}
}
