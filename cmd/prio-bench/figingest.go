package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"prio/internal/afe"
	"prio/internal/core"
	"prio/internal/field"
	"prio/internal/ingest"
	"prio/internal/sealbox"
	"prio/internal/transport"
)

// figIngest measures the streaming ingestion subsystem over real TCP as a
// grid of concurrent client streams × per-stream credit window.
//
// Two workloads separate the two bottlenecks:
//
//   - Front door (no-robust, unsealed): verification is negligible, so the
//     grid isolates what the ingest path itself sustains. A credit window of
//     one is a round-trip per submission; wider windows pipeline a window of
//     framed submissions per flush, and more streams overlap their windows.
//   - Full verification (SNIP, sealed): once the window covers a batch the
//     rate converges to the pipeline's verification rate whatever the
//     stream count — the front door is no longer the bottleneck, which is
//     the point.
func figIngest() {
	fmt.Println("== Ingest: streamed submissions over TCP (sum8, s = 3), subs/s by streams x credits ==")
	streamCounts := []int{1, 2, 4}
	creditWindows := []int{1, 16, 128, 512}
	if *full {
		streamCounts = []int{1, 2, 4, 8}
		creditWindows = []int{1, 4, 16, 64, 128, 512}
	}
	grid := func(mode core.Mode, seal bool, maxBatch, perCell int) {
		fmt.Printf("%-8s", "credits")
		for _, streams := range streamCounts {
			fmt.Printf(" | %-14s", fmt.Sprintf("%d stream(s)", streams))
		}
		fmt.Println()
		for _, credits := range creditWindows {
			fmt.Printf("%-8d", credits)
			for _, streams := range streamCounts {
				d := newTCPDeployment(mode, seal, 2, maxBatch, credits)
				n := perCell
				if credits == 1 {
					n = perCell / 8 // a round-trip each: keep the cell short
				}
				fmt.Printf(" | %-14.1f", d.streamRate(d.buildSumSubs(64), n, streams))
				d.close()
			}
			fmt.Println()
		}
	}
	fmt.Println("\n-- front door (no-robust, unsealed): ingest is the bottleneck --")
	grid(core.ModeNoRobust, false, 64, 16000)
	fmt.Println("\n-- full verification (prio, sealed, 2 shards): the pipeline is --")
	grid(core.ModeSNIP, true, 16, 2000)
	fmt.Println("\nshape check: at the front door the rate climbs with the credit window (one")
	fmt.Println("round-trip amortized over a window) and with streams until the intake")
	fmt.Println("saturates; under full verification every cell past a batch-sized window")
	fmt.Println("sits at the pipeline rate.")
}

// tcpDeployment is a three-server deployment over real localhost TCP with a
// sharded pipeline and the ingest stream handler on the leader's listener.
type tcpDeployment struct {
	pro    *core.Protocol[field.F64, uint64]
	client *core.Client[field.F64, uint64]
	pl     *core.Pipeline[field.F64, uint64]
	addr   string
	closer []func()
}

func newTCPDeployment(mode core.Mode, seal bool, shards, maxBatch, credits int) *tcpDeployment {
	const servers = 3
	pro, err := core.NewProtocol(core.Config[field.F64, uint64]{
		Field:    f64,
		Scheme:   afe.NewSum(f64, 8),
		Servers:  servers,
		Mode:     mode,
		SnipReps: 1,
		Seal:     seal,
	})
	if err != nil {
		log.Fatalf("prio-bench: %v", err)
	}
	d := &tcpDeployment{pro: pro}
	srvs := make([]*core.Server[field.F64, uint64], servers)
	peers := make([]transport.Peer, servers)
	for i := 0; i < servers; i++ {
		srv, err := core.NewServer(pro, i, nil)
		if err != nil {
			log.Fatalf("prio-bench: %v", err)
		}
		srvs[i] = srv
	}
	peers[0] = &transport.LoopbackPeer{Handler: srvs[0].Handle}
	for i := 1; i < servers; i++ {
		ln, err := transport.Listen("127.0.0.1:0", nil, srvs[i].Handle)
		if err != nil {
			log.Fatalf("prio-bench: %v", err)
		}
		d.closer = append(d.closer, func() { ln.Close() })
		peers[i] = transport.NewStreamPeer(ln.Addr().String(), nil)
	}
	leader, err := core.NewLeader(srvs[0], peers)
	if err != nil {
		log.Fatalf("prio-bench: %v", err)
	}
	pl, err := core.NewPipeline(leader, core.PipelineConfig{Shards: shards, MaxBatch: maxBatch})
	if err != nil {
		log.Fatalf("prio-bench: %v", err)
	}
	d.pl = pl
	d.closer = append(d.closer, func() { pl.Close() })

	// The leader's public listener: stream opens go to the ingest handler.
	ing := ingest.NewServer(pl, ingest.Config{Credits: credits, QueueDepth: 4096})
	d.closer = append(d.closer, ing.Close)
	ln, err := transport.Listen("127.0.0.1:0", nil, srvs[0].Handle)
	if err != nil {
		log.Fatalf("prio-bench: %v", err)
	}
	ln.OnStream(ing.Handler())
	d.addr = ln.Addr().String()
	d.closer = append(d.closer, func() { ln.Close() })

	var keys []*sealbox.PublicKey
	if seal {
		keys = make([]*sealbox.PublicKey, servers)
		for i, srv := range srvs {
			keys[i] = srv.PublicKey()
		}
	}
	client, err := core.NewClient(pro, keys, nil)
	if err != nil {
		log.Fatalf("prio-bench: %v", err)
	}
	d.client = client
	return d
}

func (d *tcpDeployment) buildSumSubs(count int) []*core.Submission {
	enc, err := afe.NewSum(f64, 8).Encode(1)
	if err != nil {
		log.Fatalf("prio-bench: %v", err)
	}
	subs := make([]*core.Submission, count)
	for i := range subs {
		subs[i], err = d.client.BuildSubmission(enc)
		if err != nil {
			log.Fatalf("prio-bench: %v", err)
		}
	}
	return subs
}

// streamRate pushes n recycled submissions through the given number of
// concurrent ingest streams and returns acked submissions/second.
func (d *tcpDeployment) streamRate(subs []*core.Submission, n, streams int) float64 {
	per := n / streams
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < streams; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := ingest.Dial(d.addr, ingest.SubmitterConfig{})
			if err != nil {
				log.Fatalf("prio-bench: %v", err)
			}
			defer s.Close()
			for i := 0; i < per; i++ {
				if _, err := s.Submit(subs[i%len(subs)]); err != nil {
					log.Fatalf("prio-bench: %v", err)
				}
			}
			if err := s.Wait(); err != nil {
				log.Fatalf("prio-bench: %v", err)
			}
			if st := s.Stats(); st.Accepted != uint64(per) {
				log.Fatalf("prio-bench: %d of %d streamed submissions accepted (%d shed)",
					st.Accepted, per, st.Shed)
			}
		}()
	}
	wg.Wait()
	return float64(per*streams) / time.Since(start).Seconds()
}

func (d *tcpDeployment) close() {
	for i := len(d.closer) - 1; i >= 0; i-- {
		d.closer[i]()
	}
}
