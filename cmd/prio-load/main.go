// Command prio-load floods a Prio deployment with streamed submissions and
// reports throughput plus ack-latency percentiles — the client-side half of
// the streaming ingest subsystem (internal/ingest), for any statistic
// prio.ParseScheme understands.
//
// Two generator disciplines:
//
//   - Closed loop (default): each stream keeps its credit window full, so
//     offered load tracks whatever the servers sustain. Measures capacity.
//   - Open loop (-rate): submissions are injected at a fixed aggregate rate
//     regardless of acks, as an external client population would. Measures
//     behavior at a given load: latency stays flat until the deployment
//     saturates, then the credit window makes queueing visible here rather
//     than as server memory.
//
// Every stream rides the failover layer, so a shed ack (transient
// backpressure) or a failed ack is retried up to -max-attempts rather than
// booked as terminal loss; the printed ledger separates those retries
// (shed_retried=, failed_retried=) from real outcomes and closes as
// submitted == accepted + rejected + abandoned.
//
// Streams find the leader through the roster (the members' addresses in
// index order, as the servers were given it) and re-resolve it after a
// stream dies, so a run rides out a leader failover. Example against a
// local three-member deployment:
//
//	prio-load -roster localhost:7000,localhost:7001,localhost:7002 \
//	    -scheme sum8 -streams 4 -duration 10s
//
// Submissions are pre-built (the paper's load generators do the same) so
// client-side proof generation does not cap the offered rate; -prebuild
// sizes the recycled pool.
package main

import (
	"crypto/tls"
	"flag"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"prio"
	"prio/internal/cli"
	"prio/internal/cluster"
	"prio/internal/ingest"
	"prio/internal/telemetry"
	"prio/internal/transport"
)

var (
	rosterFlag  = flag.String("roster", "", "roster file or comma-separated member addresses in index order")
	schemeFlag  = flag.String("scheme", "sum8", "statistic spec (must match the servers)")
	modeFlag    = flag.String("mode", "prio", "validation mode (must match the servers)")
	value       = flag.String("value", "", "private value to submit (default: a scheme-appropriate constant)")
	duration    = flag.Duration("duration", 10*time.Second, "how long to generate load")
	streams     = flag.Int("streams", 4, "concurrent ingest streams (connections)")
	rate        = flag.Float64("rate", 0, "open-loop aggregate submissions/s (0 = closed loop)")
	prebuild    = flag.Int("prebuild", 256, "pre-built submissions recycled by the generators")
	maxAttempts = flag.Int("max-attempts", 6, "delivery attempts per submission before abandoning it")
	useTLS      = flag.Bool("tls", true, "dial the servers over TLS")
	tlsCA       = flag.String("tls-ca", "", "PEM bundle to authenticate the servers against")
)

// collector accumulates final ack outcomes and latencies across all streams.
// Latencies land in a bounded-memory log-linear histogram (the same one
// the servers export), so a long high-rate run costs 15 KB instead of one
// slice entry per ack, and reported percentiles are upper bounds within
// ~3.1% of exact.
//
// Only terminal decisions reach the collector: the failover layer retries
// shed and failed acks internally, so the shed/failed columns here count
// abandoned submissions, not transient backpressure.
type collector struct {
	latencies *telemetry.DurationHistogram

	accepted uint64
	rejected uint64
	shed     uint64
	failed   uint64
}

func (c *collector) onAck(a prio.Ack) {
	switch a.Status {
	case prio.StatusAccepted:
		atomic.AddUint64(&c.accepted, 1)
	case prio.StatusRejected:
		atomic.AddUint64(&c.rejected, 1)
	case prio.StatusShed:
		atomic.AddUint64(&c.shed, 1)
	default:
		atomic.AddUint64(&c.failed, 1)
	}
	c.latencies.Observe(a.Latency)
}

// buildPool fetches every server's key and pre-builds the recycled
// submission pool the generators cycle through.
func buildPool(addrs []string, scheme prio.Scheme, mode prio.Mode, tlsCfg *tls.Config) []*prio.Submission {
	pro, err := prio.NewProtocol(prio.Config{Scheme: scheme, Servers: len(addrs), Mode: mode, Seal: true})
	if err != nil {
		log.Fatal(err)
	}
	keys := make([]*prio.ServerPublicKey, len(addrs))
	for i, addr := range addrs {
		k, err := prio.FetchPublicKeyTLS(addr, tlsCfg)
		if err != nil {
			log.Fatalf("prio-load: fetching key from %s: %v", addr, err)
		}
		keys[i] = k
	}
	client, err := prio.NewClient(pro, keys, nil)
	if err != nil {
		log.Fatal(err)
	}
	var enc []uint64
	if *value != "" {
		enc, err = cli.EncodeValue(scheme, *value)
	} else {
		enc, err = cli.DefaultEncoding(scheme)
	}
	if err != nil {
		log.Fatal(err)
	}
	pool := make([]*prio.Submission, *prebuild)
	for i := range pool {
		pool[i], err = client.BuildSubmission(enc)
		if err != nil {
			log.Fatal(err)
		}
	}
	return pool
}

func main() {
	flag.Parse()
	cli.InitLog()
	ros, err := cluster.LoadOrParseRoster(*rosterFlag)
	if err != nil {
		log.Fatalf("prio-load: bad -roster: %v", err)
	}
	scheme, err := prio.ParseScheme(*schemeFlag)
	if err != nil {
		log.Fatal(err)
	}
	mode, err := cli.ParseMode(*modeFlag)
	if err != nil {
		log.Fatal(err)
	}
	var tlsCfg *tls.Config
	if *useTLS {
		tlsCfg, err = transport.ClientTLS(*tlsCA)
		if err != nil {
			log.Fatal(err)
		}
	}
	pool := buildPool(ros.Addrs, scheme, mode, tlsCfg)

	dial := cluster.LeaderDial(ros, cluster.ResolveConfig{TLS: tlsCfg, Timeout: 2 * time.Second})
	runLoad(dial, pool, fmt.Sprintf("%d failover streams across %d members, %s scheme",
		*streams, ros.N(), scheme.Name()))
}

// runLoad drives the generators over failover-aware streams and prints the
// closed loss ledger. dial opens one stream to the (possibly re-resolved)
// leader; the failover layer retries shed and failed acks up to
// -max-attempts, so the printed shed/failed columns report real loss rather
// than transient backpressure, and retries appear on their own
// shed_retried=/failed_retried= line.
func runLoad(dial func(onAck func(ingest.Ack)) (*ingest.StreamSubmitter, error), pool []*prio.Submission, label string) {
	col := &collector{latencies: &telemetry.DurationHistogram{H: telemetry.NewHistogram()}}
	subs := make([]*ingest.FailoverSubmitter, *streams)
	var err error
	for i := range subs {
		subs[i], err = ingest.NewFailoverSubmitter(ingest.FailoverConfig{
			Dial:        dial,
			MaxAttempts: *maxAttempts,
			OnFinal:     func(a ingest.Ack) { col.onAck(a) },
		})
		if err != nil {
			log.Fatalf("prio-load: stream %d: %v", i, err)
		}
		defer subs[i].Close()
	}
	discipline := "closed"
	if *rate > 0 {
		discipline = fmt.Sprintf("open @ %.0f subs/s", *rate)
	}
	log.Printf("prio-load: %s, %s loop, %v", label, discipline, *duration)

	stopLedger := startWindowLedger(col)

	// Generate. Each stream has one generator goroutine; the open loop adds
	// a token feed shared by all of them.
	deadline := time.Now().Add(*duration)
	var overrun uint64 // open loop: tokens dropped because every stream was window-blocked
	var tokens chan struct{}
	if *rate > 0 {
		tokens = make(chan struct{}, 1024)
		interval := time.Duration(float64(time.Second) / *rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for time.Now().Before(deadline) {
				<-tick.C
				select {
				case tokens <- struct{}{}:
				default:
					atomic.AddUint64(&overrun, 1)
				}
			}
			close(tokens)
		}()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, s := range subs {
		wg.Add(1)
		go func(i int, s *ingest.FailoverSubmitter) {
			defer wg.Done()
			n := i // stagger the pool cursor across streams
			for time.Now().Before(deadline) {
				if tokens != nil {
					if _, ok := <-tokens; !ok {
						return
					}
				}
				if err := s.Submit(pool[n%len(pool)]); err != nil {
					log.Printf("prio-load: stream %d gave up: %v", i, err)
					return
				}
				n++
			}
		}(i, s)
	}
	wg.Wait()
	var total ingest.FailoverStats
	for _, s := range subs {
		s.Wait()
		st := s.Stats()
		total.Submitted += st.Submitted
		total.Accepted += st.Accepted
		total.Rejected += st.Rejected
		total.ShedRetried += st.ShedRetried
		total.FailedRetried += st.FailedRetried
		total.Failovers += st.Failovers
		total.Redials += st.Redials
		total.Abandoned += st.Abandoned
	}
	elapsed := time.Since(start)
	stopLedger()

	lat := col.latencies.Snapshot()
	fmt.Printf("submitted=%d acked=%d accepted=%d rejected=%d shed=0 failed=%d\n",
		total.Submitted, total.Accepted+total.Rejected,
		total.Accepted, total.Rejected, total.Abandoned)
	fmt.Printf("shed_retried=%d failed_retried=%d failovers=%d redials=%d abandoned=%d\n",
		total.ShedRetried, total.FailedRetried, total.Failovers, total.Redials, total.Abandoned)
	if total.Submitted == total.Accepted+total.Rejected+total.Abandoned {
		fmt.Println("ledger=closed")
	} else {
		fmt.Printf("ledger=OPEN (submitted=%d != accepted+rejected+abandoned=%d)\n",
			total.Submitted, total.Accepted+total.Rejected+total.Abandoned)
	}
	fmt.Printf("throughput=%.1f subs/s over %.2fs\n",
		float64(total.Accepted+total.Rejected)/elapsed.Seconds(), elapsed.Seconds())
	fmt.Printf("ack latency p50=%v p95=%v p99=%v\n",
		time.Duration(lat.Quantile(0.50)).Round(10*time.Microsecond),
		time.Duration(lat.Quantile(0.95)).Round(10*time.Microsecond),
		time.Duration(lat.Quantile(0.99)).Round(10*time.Microsecond))
	if ov := atomic.LoadUint64(&overrun); ov > 0 {
		fmt.Printf("open-loop overrun: %d tokens dropped (deployment slower than -rate)\n", ov)
	}
}
