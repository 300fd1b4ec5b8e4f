package prio_test

import (
	"crypto/rand"
	"fmt"
	"testing"

	"prio"
	"prio/internal/circuit"
	"prio/internal/core"
	"prio/internal/field"
	"prio/internal/poly"
	"prio/internal/prg"
	"prio/internal/share"
	"prio/internal/snip"
	"prio/internal/transport"
)

// Microbenchmarks of the substrates underneath every experiment: field
// multiplication (Table 3's "Mul. in field" row), the NTT, SNIP proving and
// the per-server verification work, and share expansion. These are the
// ablation handles for the design decisions in DESIGN.md (NTT domain,
// precomputed evaluation weights, PRG share compression).

func BenchmarkFieldMul(b *testing.B) {
	b.Run("F64", func(b *testing.B) {
		f := field.NewF64()
		x, _ := f.SampleElem(rand.Reader)
		y, _ := f.SampleElem(rand.Reader)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x = f.Mul(x, y)
		}
	})
	b.Run("F128", func(b *testing.B) {
		f := field.NewF128()
		x, _ := f.SampleElem(rand.Reader)
		y, _ := f.SampleElem(rand.Reader)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x = f.Mul(x, y)
		}
	})
	b.Run("FP87", func(b *testing.B) {
		f := field.NewFP87()
		x, _ := f.SampleElem(rand.Reader)
		y, _ := f.SampleElem(rand.Reader)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x = f.Mul(x, y)
		}
	})
	b.Run("FP265", func(b *testing.B) {
		f := field.NewFP265()
		x, _ := f.SampleElem(rand.Reader)
		y, _ := f.SampleElem(rand.Reader)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x = f.Mul(x, y)
		}
	})
}

func BenchmarkNTT(b *testing.B) {
	f := field.NewF64()
	for _, logN := range []int{8, 10, 12} {
		b.Run(fmt.Sprintf("N=%d", 1<<logN), func(b *testing.B) {
			d := poly.NewDomain(f, logN)
			a, err := field.SampleVec(f, rand.Reader, d.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.NTT(a)
			}
		})
	}
}

func BenchmarkEvalWeights(b *testing.B) {
	// The per-challenge precomputation of Appendix I optimization 2.
	f := field.NewF64()
	d := poly.NewDomain(f, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.EvalWeights(uint64(i + 2<<20))
	}
}

func bitCircuitF64(l int) *circuit.Circuit[uint64] {
	f := field.NewF64()
	bld := circuit.NewBuilder(f, l)
	for i := 0; i < l; i++ {
		bld.AssertBit(bld.Input(i))
	}
	return bld.Build()
}

func BenchmarkSNIPProve(b *testing.B) {
	f := field.NewF64()
	for _, m := range []int{64, 1024} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			sys, err := snip.NewSystem(f, bitCircuitF64(m), snip.Params{})
			if err != nil {
				b.Fatal(err)
			}
			x := make([]uint64, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Prove(x, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSNIPVerifyServer(b *testing.B) {
	// One server's local Round1+Round2 work per submission (the dominant
	// verification cost; network rounds are measured in Fig 4/6).
	f := field.NewF64()
	for _, m := range []int{64, 1024} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			sys, err := snip.NewSystem(f, bitCircuitF64(m), snip.Params{})
			if err != nil {
				b.Fatal(err)
			}
			x := make([]uint64, m)
			pf, err := sys.Prove(x, rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			ch, err := sys.NewChallenge(rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			ev := sys.NewEvaluator(ch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, r1, err := ev.Round1(x, pf, true)
				if err != nil {
					b.Fatal(err)
				}
				_ = ev.Round2(st, r1, 1)
			}
		})
	}
}

func BenchmarkShareExpand(b *testing.B) {
	// PRG share expansion (Appendix I optimization 1): the non-leader
	// servers' cost of materializing a seeded share.
	f := field.NewF64()
	seed, err := prgSeed()
	if err != nil {
		b.Fatal(err)
	}
	for _, l := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			b.SetBytes(int64(8 * l))
			for i := 0; i < b.N; i++ {
				_ = share.Expand(f, seed, l)
			}
		})
	}
}

// recordPeer keeps a copy of the last Round1 and Finish requests the leader
// sent through it, for BenchmarkServerRound1 to replay.
type recordPeer struct {
	transport.Peer
	round1, finish []byte
}

func (p *recordPeer) Call(msgType byte, payload []byte) ([]byte, error) {
	switch msgType {
	case core.MsgRound1:
		p.round1 = append([]byte(nil), payload...)
	case core.MsgFinish:
		p.finish = append([]byte(nil), payload...)
	}
	return p.Peer.Call(msgType, payload)
}

// BenchmarkServerRound1 is share materialisation end to end: what the three
// servers of the Figure 4/5 deployment do with one Round1 request of 16
// sealed 1,024-bit submissions — unseal, expand the seed or decode the
// explicit share, unflatten, batch SNIP pass — plus the finish that recycles
// the batch's slabs. One op is the whole batch on all three servers;
// scripts/alloc-gate.sh pins its allocs/op.
func BenchmarkServerRound1(b *testing.B) {
	const servers, batch, l = 3, 16, 1024
	scheme := prio.NewBitVector(l)
	pro, err := prio.NewProtocol(prio.Config{Scheme: scheme, Servers: servers, Mode: prio.ModePrio, Reps: 2, Seal: true})
	if err != nil {
		b.Fatal(err)
	}
	srvs := make([]*prio.Server, servers)
	recs := make([]*recordPeer, servers)
	peers := make([]transport.Peer, servers)
	keys := make([]*prio.ServerPublicKey, servers)
	for i := range srvs {
		if srvs[i], err = prio.NewServer(pro, i); err != nil {
			b.Fatal(err)
		}
		recs[i] = &recordPeer{Peer: &transport.LoopbackPeer{Handler: srvs[i].Handle}}
		peers[i], keys[i] = recs[i], srvs[i].PublicKey()
	}
	leader, err := core.NewLeader(srvs[0], peers)
	if err != nil {
		b.Fatal(err)
	}
	client, err := prio.NewClient(pro, keys, nil)
	if err != nil {
		b.Fatal(err)
	}
	enc := bitEncoding(b, scheme, l)
	subs := make([]*prio.Submission, batch)
	for i := range subs {
		if subs[i], err = client.BuildSubmission(enc); err != nil {
			b.Fatal(err)
		}
	}
	// One real batch leaves each peer holding the Round1 and Finish requests
	// to replay; the challenge they name stays installed on the servers.
	if _, err := leader.ProcessBatch(subs); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(recs[0].round1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, srv := range srvs {
			if _, err := srv.Handle(core.MsgRound1, recs[j].round1); err != nil {
				b.Fatal(err)
			}
			if _, err := srv.Handle(core.MsgFinish, recs[j].finish); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSplitSeeded(b *testing.B) {
	f := field.NewF64()
	x, err := field.SampleVec(f, rand.Reader, 4096)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := share.SplitSeeded(f, x, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// prgSeed draws a fresh PRG seed for the expansion benchmarks.
func prgSeed() (prg.Seed, error) { return prg.NewSeed() }
