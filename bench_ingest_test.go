// Benchmark for the streaming ingestion subsystem (internal/ingest) over
// real TCP.
//
// The workload is chosen so the front door is what gets measured: sum8 in
// no-robustness mode, unsealed, so per-submission server work is a few
// field additions and the figure is how fast submissions cross the wire:
//
//	go test -bench=Ingest -benchtime=2s .
package prio_test

import (
	"testing"

	"prio/internal/afe"
	"prio/internal/core"
	"prio/internal/field"
	"prio/internal/ingest"
	"prio/internal/transport"
)

// ingestBench is a three-server TCP deployment with the ingest handler on
// the leader's listener.
type ingestBench struct {
	pl   *core.Pipeline[field.F64, uint64]
	sub  *core.Submission
	addr string
	stop []func()
}

func newIngestBench(b *testing.B, shards int) *ingestBench {
	b.Helper()
	f := field.NewF64()
	scheme := afe.NewSum(f, 8)
	pro, err := core.NewProtocol(core.Config[field.F64, uint64]{
		Field: f, Scheme: scheme, Servers: 3, Mode: core.ModeNoRobust, SnipReps: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	d := &ingestBench{}
	srvs := make([]*core.Server[field.F64, uint64], 3)
	peers := make([]transport.Peer, 3)
	for i := range srvs {
		if srvs[i], err = core.NewServer(pro, i, nil); err != nil {
			b.Fatal(err)
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
	pl, err := core.NewPipeline(leader, core.PipelineConfig{Shards: shards, MaxBatch: 64})
	if err != nil {
		b.Fatal(err)
	}
	d.pl = pl
	d.stop = append(d.stop, func() { pl.Close() })
	ing := ingest.NewServer(pl, ingest.Config{Credits: 512, QueueDepth: 4096})
	d.stop = append(d.stop, ing.Close)
	ln, err := transport.Listen("127.0.0.1:0", nil, srvs[0].Handle)
	if err != nil {
		b.Fatal(err)
	}
	ln.OnStream(ing.Handler())
	d.addr = ln.Addr().String()
	d.stop = append(d.stop, func() { ln.Close() })

	client, err := core.NewClient(pro, nil, nil)
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

// BenchmarkStreamIngest pipelines b.N submissions over one ingest stream and
// waits for every ack.
func BenchmarkStreamIngest(b *testing.B) {
	d := newIngestBench(b, 2)
	defer d.close()
	s, err := ingest.Dial(d.addr, ingest.SubmitterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(d.sub); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Wait(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if st := s.Stats(); st.Accepted != uint64(b.N) {
		b.Fatalf("accepted %d of %d (%d shed)", st.Accepted, b.N, st.Shed)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "subs/s")
}
