// The paper's evaluation (Section 6) as testing.B targets: one family per
// table or figure, one sub-benchmark per series and size, named
// Family/Series/Param (e.g. BenchmarkFig4/Prio/L=1024). Each reports its
// figure's y-axis: subs/s for throughput, bytes/sub for server transfer,
// ns/op for client time and ns/bit for the NIZK baseline. README.md's
// "Benchmarks" table maps every table and figure to its -bench pattern and
// gives the formulas of the derived columns (the NIZK model, Table 9's cost
// factors). Run the paper's tables and figures with:
//
//	go test -run '^$' -bench 'Table|Fig' .
package prio_test

import (
	"crypto/rand"
	"fmt"
	"testing"
	"time"

	"prio"
	"prio/internal/baseline"
	"prio/internal/field"
	"prio/internal/nizk"
	"prio/internal/snarkcost"
	"prio/internal/snip"
)

// benchDeployment builds an in-process cluster for benchmarks.
func benchDeployment(tb testing.TB, scheme prio.Scheme, servers int, mode prio.Mode) (*prio.Cluster, *prio.Client) {
	tb.Helper()
	pro, err := prio.NewProtocol(prio.Config{
		Scheme:  scheme,
		Servers: servers,
		Mode:    mode,
		Reps:    1, // match the paper's single identity test
		Seal:    true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	cluster, err := prio.NewLocalCluster(pro)
	if err != nil {
		tb.Fatal(err)
	}
	client, err := prio.NewClient(pro, cluster.PublicKeys(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return cluster, client
}

// bitEncoding builds a random valid BitVector encoding.
func bitEncoding(tb testing.TB, scheme *prio.BitVector, l int) []uint64 {
	tb.Helper()
	bits := make([]bool, l)
	buf := make([]byte, (l+7)/8)
	if _, err := rand.Read(buf); err != nil {
		tb.Fatal(err)
	}
	for i := range bits {
		bits[i] = buf[i/8]&(1<<uint(i%8)) != 0
	}
	enc, err := scheme.Encode(bits)
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}

// buildSubs pre-builds n submissions of enc, as the paper's load generators
// pre-generate client packets.
func buildSubs(tb testing.TB, client *prio.Client, enc []uint64, n int) []*prio.Submission {
	tb.Helper()
	subs := make([]*prio.Submission, n)
	for i := range subs {
		sub, err := client.BuildSubmission(enc)
		if err != nil {
			tb.Fatal(err)
		}
		subs[i] = sub
	}
	return subs
}

// must returns v and panics on err: fixture inputs are fixed, so an error is
// a bug in the benchmark.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// throughputBench processes pre-built submissions in batches and reports
// submissions/s, and the bytes non-leader server 1 transmitted per
// submission (Figure 6's y-axis).
func throughputBench(b *testing.B, cluster *prio.Cluster, client *prio.Client, enc []uint64, batch int) {
	b.Helper()
	subs := buildSubs(b, client, enc, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Leader.ProcessBatch(subs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "subs/s")
	b.ReportMetric(float64(cluster.Leader.PeerStats(1).BytesRecv)/float64(b.N*batch), "bytes/sub")
}

// noPrivBench measures the no-privacy baseline: one server ingesting a
// sealed plaintext vector of length k per submission.
func noPrivBench(b *testing.B, k int) {
	srv := must(baseline.NewNoPrivServer(field.NewF64(), k))
	blob := must(baseline.BuildSubmission(field.NewF64(), srv.PublicKey(), make([]uint64, k)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Handle(baseline.MsgSubmit, blob); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "subs/s")
}

// snarkBench times one P-256 exponentiation per iteration and reports, as
// ns/op, the paper's SNARK proving-time estimate for a Valid circuit of
// mulGates gates over an inputLen-element submission on five servers. The
// paper ran no SNARK prover either; bytes/proof is its quoted proof size,
// and mul-gates scales the NIZK model.
func snarkBench(b *testing.B, mulGates, inputLen int) {
	var exp time.Duration
	for i := 0; i < b.N; i++ {
		exp += snarkcost.MeasureExpCost(1)
	}
	est := snarkcost.EstimateProofTime(mulGates, inputLen, 5, exp/time.Duration(b.N))
	b.ReportMetric(float64(est.Nanoseconds()), "ns/op")
	b.ReportMetric(snarkcost.ProofBytes, "bytes/proof")
	b.ReportMetric(float64(mulGates), "mul-gates")
}

// BenchmarkPipelineThroughput measures the sharded aggregation pipeline:
// submissions/s as the number of concurrent leader sessions grows, for the
// Figure 4/5 workload (1,024-bit submissions, three servers). On an N-core
// host throughput should scale near-linearly in min(shards, N); compare the
// subs/s metric across the Shards sub-benchmarks. Run with:
//
//	go test -bench=PipelineThroughput -benchmem
func BenchmarkPipelineThroughput(b *testing.B) {
	const l = 1024
	scheme := prio.NewBitVector(l)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("Shards=%d", shards), func(b *testing.B) {
			cluster, client := benchDeployment(b, scheme, 3, prio.ModePrio)
			// A pool of pre-built submissions recycles client work, as in
			// throughputBench; the servers verify each Submit from scratch.
			pool := buildSubs(b, client, bitEncoding(b, scheme, l), 32)
			pl, err := prio.NewPipeline(cluster.Leader, prio.PipelineConfig{
				Shards:   shards,
				MaxBatch: 16,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer pl.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pl.Submit(pool[i%len(pool)]); err != nil {
					b.Fatal(err)
				}
			}
			pl.Drain()
			b.StopTimer()
			if st := pl.Stats(); st.Failed > 0 {
				b.Fatalf("%d submissions failed", st.Failed)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "subs/s")
		})
	}
}

// BenchmarkTable2_SNIPClient measures SNIP proof generation for the 0/1
// vector statement of Table 2 (client side), and reports the proof's size.
// The SNIP's server transfer at M is BenchmarkFig6/Prio/L=M.
func BenchmarkTable2_SNIPClient(b *testing.B) {
	for _, m := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			scheme := prio.NewBitVector(m)
			_, client := benchDeployment(b, scheme, 5, prio.ModePrio)
			enc := bitEncoding(b, scheme, m)
			sys := must(snip.NewSystem(field.NewF64(), scheme.Circuit(), snip.Params{Reps: 1}))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.BuildSubmission(enc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sys.ProofLen()*field.NewF64().ElemSize()), "bytes/proof")
		})
	}
}

// BenchmarkTable2_NIZKClient measures the discrete-log NIZK client for the
// same statement (encrypt + prove per bit). Its cost is linear in M, so
// ns/bit is the NIZK model's client input.
func BenchmarkTable2_NIZKClient(b *testing.B) {
	ks, err := nizk.GenerateKeyShare()
	if err != nil {
		b.Fatal(err)
	}
	joint := nizk.JointKey([]nizk.Point{ks.Pub})
	for _, m := range []int{16, 64} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			bits := make([]bool, m)
			for i := range bits {
				bits[i] = i%2 == 0
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nizk.NewSubmission(joint, bits); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/bit")
		})
	}
}

// BenchmarkTable2_NIZKServer measures NIZK proof verification (server
// side); ns/bit is the NIZK model's server input.
func BenchmarkTable2_NIZKServer(b *testing.B) {
	ks, err := nizk.GenerateKeyShare()
	if err != nil {
		b.Fatal(err)
	}
	joint := nizk.JointKey([]nizk.Point{ks.Pub})
	for _, m := range []int{16, 64} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			bits := make([]bool, m)
			sub, err := nizk.NewSubmission(joint, bits)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !sub.Verify(joint) {
					b.Fatal("verify failed")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/bit")
		})
	}
}

// BenchmarkTable2_SNARKEstimate reports the paper's SNARK client estimate
// for the M-element 0/1 vector (see snarkBench).
func BenchmarkTable2_SNARKEstimate(b *testing.B) {
	for _, m := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) { snarkBench(b, m, m) })
	}
}
