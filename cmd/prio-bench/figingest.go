package main

import (
	"fmt"
	"log"
	"net"
	"strings"
	"sync"
	"time"

	"prio/internal/afe"
	"prio/internal/cluster"
	"prio/internal/core"
	"prio/internal/field"
	"prio/internal/ingest"
	"prio/internal/sealbox"
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

// tcpDeployment is a three-member roster over real localhost TCP, built as
// prio-server builds it; member 0 leads, and the client streams to it.
type tcpDeployment struct {
	client  *core.Client[field.F64, uint64]
	members []*cluster.Member[field.F64, uint64]
	addr    string
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
	lns := make([]net.Listener, servers)
	addrs := make([]string, servers)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			log.Fatalf("prio-bench: %v", err)
		}
		addrs[i] = lns[i].Addr().String()
	}
	ros, err := cluster.ParseRoster(strings.Join(addrs, ","))
	if err != nil {
		log.Fatalf("prio-bench: %v", err)
	}
	d := &tcpDeployment{addr: addrs[0]}
	var keys []*sealbox.PublicKey
	for i, ln := range lns {
		m, err := cluster.NewMember(cluster.MemberConfig[field.F64, uint64]{
			Listener: ln,
			Protocol: pro,
			// Every member starts at once, so no epoch gossip has to land
			// before member 0 may lead: a short grace keeps the cells short.
			Cluster:  cluster.Config{Roster: ros, Self: i, Grace: 50 * time.Millisecond},
			Pipeline: core.PipelineConfig{Shards: shards, MaxBatch: maxBatch},
			Ingest:   ingest.Config{Credits: credits, QueueDepth: 4096},
		})
		if err != nil {
			log.Fatalf("prio-bench: %v", err)
		}
		d.members = append(d.members, m)
		if seal {
			keys = append(keys, m.Server.PublicKey())
		}
	}
	for !d.members[0].Node.IsLeader() {
		time.Sleep(10 * time.Millisecond)
	}
	if d.client, err = core.NewClient(pro, keys, nil); err != nil {
		log.Fatalf("prio-bench: %v", err)
	}
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
	for _, m := range d.members {
		m.Close()
	}
}
