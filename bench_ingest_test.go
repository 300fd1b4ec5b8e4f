// Benchmark for the streaming ingestion subsystem (internal/ingest) over
// real TCP, as a grid of concurrent client streams x per-stream credit
// window on two workloads that separate the two bottlenecks:
//
//   - FrontDoor: sum8 in no-robustness mode, unsealed, so per-submission
//     server work is a few field additions and the figure is how fast
//     submissions cross the wire. A credit window of one is a round trip
//     per submission; wider windows pipeline a window of framed submissions
//     per flush, and more streams overlap their windows.
//
//   - Verified: full Prio, sealed. Once the window covers a batch the rate
//     converges on the pipeline's verification rate whatever the stream
//     count: the front door is no longer the bottleneck.
//
// Run with:
//
//	go test -bench=StreamIngest -benchtime=2s .
package prio_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"prio/internal/afe"
	"prio/internal/core"
	"prio/internal/field"
	"prio/internal/ingest"
	"prio/internal/sealbox"
	"prio/internal/transport"
)

// ingestBench is a three-server TCP deployment with the ingest handler on
// the leader's listener, verifying on two pipeline shards.
type ingestBench struct {
	sub  *core.Submission
	addr string
	stop []func()
}

func newIngestBench(b *testing.B, mode core.Mode, seal bool, maxBatch, credits int) *ingestBench {
	b.Helper()
	f := field.NewF64()
	scheme := afe.NewSum(f, 8)
	pro, err := core.NewProtocol(core.Config[field.F64, uint64]{
		Field: f, Scheme: scheme, Servers: 3, Mode: mode, SnipReps: 1, Seal: seal,
	})
	if err != nil {
		b.Fatal(err)
	}
	d := &ingestBench{}
	srvs := make([]*core.Server[field.F64, uint64], 3)
	peers := make([]transport.Peer, 3)
	var keys []*sealbox.PublicKey
	for i := range srvs {
		if srvs[i], err = core.NewServer(pro, i, nil); err != nil {
			b.Fatal(err)
		}
		if seal {
			keys = append(keys, srvs[i].PublicKey())
		}
	}
	peers[0] = &transport.LoopbackPeer{Handler: srvs[0].Handle}
	for i := 1; i < 3; i++ {
		ln, err := transport.Listen("127.0.0.1:0", nil, srvs[i].Handle)
		if err != nil {
			b.Fatal(err)
		}
		d.stop = append(d.stop, func() { ln.Close() })
		peers[i] = transport.NewStreamPeer(ln.Addr().String(), nil)
	}
	leader, err := core.NewLeader(srvs[0], peers)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := core.NewPipeline(leader, core.PipelineConfig{Shards: 2, MaxBatch: maxBatch})
	if err != nil {
		b.Fatal(err)
	}
	d.stop = append(d.stop, func() { pl.Close() })
	ing := ingest.NewServer(pl, ingest.Config{Credits: credits, QueueDepth: 4096})
	d.stop = append(d.stop, ing.Close)
	ln, err := transport.Listen("127.0.0.1:0", nil, srvs[0].Handle)
	if err != nil {
		b.Fatal(err)
	}
	ln.OnStream(ing.Handler())
	d.addr = ln.Addr().String()
	d.stop = append(d.stop, func() { ln.Close() })

	client, err := core.NewClient(pro, keys, nil)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := scheme.Encode(1)
	if err != nil {
		b.Fatal(err)
	}
	if d.sub, err = client.BuildSubmission(enc); err != nil {
		b.Fatal(err)
	}
	return d
}

func (d *ingestBench) close() {
	for i := len(d.stop) - 1; i >= 0; i-- {
		d.stop[i]()
	}
}

// BenchmarkStreamIngest splits b.N submissions across `streams` concurrent
// ingest streams, each holding at most `credits` unacked, and waits for
// every ack.
func BenchmarkStreamIngest(b *testing.B) {
	for _, w := range []struct {
		name     string
		mode     core.Mode
		seal     bool
		maxBatch int
	}{
		{"FrontDoor", core.ModeNoRobust, false, 64},
		{"Verified", core.ModeSNIP, true, 16},
	} {
		for _, streams := range []int{1, 2, 4, 8} {
			for _, credits := range []int{1, 4, 16, 64, 128, 512} {
				b.Run(fmt.Sprintf("%s/streams=%d/credits=%d", w.name, streams, credits), func(b *testing.B) {
					d := newIngestBench(b, w.mode, w.seal, w.maxBatch, credits)
					defer d.close()
					subs := make([]*ingest.StreamSubmitter, streams)
					for k := range subs {
						s, err := ingest.Dial(d.addr, ingest.SubmitterConfig{})
						if err != nil {
							b.Fatal(err)
						}
						defer s.Close()
						subs[k] = s
					}
					var wg sync.WaitGroup
					var accepted atomic.Uint64
					b.ResetTimer()
					for k, s := range subs {
						wg.Add(1)
						go func(s *ingest.StreamSubmitter, n int) {
							defer wg.Done()
							for i := 0; i < n; i++ {
								if _, err := s.Submit(d.sub); err != nil {
									b.Error(err)
									return
								}
							}
							if err := s.Wait(); err != nil {
								b.Error(err)
							}
							accepted.Add(s.Stats().Accepted)
						}(s, (b.N+streams-1-k)/streams)
					}
					wg.Wait()
					b.StopTimer()
					if got := accepted.Load(); got != uint64(b.N) {
						b.Fatalf("accepted %d of %d", got, b.N)
					}
					b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "subs/s")
				})
			}
		}
	}
}
