// Command prio-server runs one Prio aggregation server over TLS.
//
// Every server in a deployment starts with the same statistic configuration
// and its own index. The server with index 0 additionally acts as leader: it
// accepts client submission streams (see internal/ingest), relays sealed
// shares, drives verification in batches across concurrent shards, and
// prints the decoded aggregate on an interval. Example three-server
// deployment of a 434-question survey:
//
//	prio-server -index 2 -listen :7002 -servers 3 -scheme bits434
//	prio-server -index 1 -listen :7001 -servers 3 -scheme bits434
//	prio-server -index 0 -listen :7000 -scheme bits434 \
//	    -peers localhost:7000,localhost:7001,localhost:7002 \
//	    -batch 16 -publish-every 30s
//
// Clients submit with prio-client (or flood with prio-load) pointed at the
// leader.
//
// TLS is on by default: without -tls-cert/-tls-key each server generates a
// self-signed certificate, giving channel confidentiality without a PKI
// (peers and clients then dial without authenticating the server; pin real
// certificates with -tls-cert/-tls-key and -tls-ca to authenticate, or pass
// -tls=false for plaintext benchmarking).
package main

import (
	"crypto/tls"
	"flag"
	"fmt"
	"log/slog"
	"math/big"
	"net"
	"strconv"
	"strings"
	"time"

	"prio"
	"prio/internal/cli"
	"prio/internal/ingest"
	"prio/internal/telemetry"
	"prio/internal/transport"
)

var (
	index         = flag.Int("index", 0, "this server's index (0 = leader)")
	listen        = flag.String("listen", ":7000", "address to listen on")
	peersFlag     = flag.String("peers", "", "comma-separated server addresses in index order (leader only)")
	schemeFlag    = flag.String("scheme", "sum8", "statistic spec (see prio.ParseScheme)")
	servers       = flag.Int("servers", 0, "server count (default: inferred from -peers)")
	modeFlag      = flag.String("mode", "prio", "validation mode: prio, prio-mpc, no-robust")
	batch         = flag.Int("batch", 16, "max submissions per verification round (leader)")
	shards        = flag.Int("shards", 0, "concurrent verification shards (leader; 0 = one per CPU)")
	queueDepth    = flag.Int("queue-depth", 0, "pipeline submission queue capacity (leader; 0 = 4 batches per shard)")
	ingestCredits = flag.Int("ingest-credits", ingest.DefaultCredits, "per-stream credit window for streamed submissions (leader)")
	ingestQueue   = flag.Int("ingest-queue", ingest.DefaultQueueDepth, "intake queue capacity buffering streamed submissions for the pipeline (leader)")
	ingestDynamic = flag.Bool("ingest-dynamic", true, "retune per-stream credit windows from intake-queue occupancy (leader)")
	publishEvery  = flag.Duration("publish-every", 30*time.Second, "aggregate publication interval (leader)")
	once          = flag.Bool("once", false, "leader: publish once after the first interval and exit (for scripting)")
	useTLS        = flag.Bool("tls", true, "serve and dial TLS (self-signed unless -tls-cert/-tls-key)")
	tlsCert       = flag.String("tls-cert", "", "PEM certificate file (with -tls-key; default: fresh self-signed)")
	tlsKey        = flag.String("tls-key", "", "PEM private key file (with -tls-cert)")
	tlsCA         = flag.String("tls-ca", "", "PEM bundle to authenticate peer servers against (default: encrypt without authenticating)")
	adminAddr     = flag.String("admin-addr", "", "operator endpoint address serving /metrics, /healthz, /debug/* (default: off; TLS per -tls)")
	traceSample   = flag.Int("trace-sample", 0, "sample 1-in-N submission lifecycles into /debug/trace (0 = off)")
)

func main() {
	flag.Parse()
	cli.InitLog()
	scheme, err := prio.ParseScheme(*schemeFlag)
	if err != nil {
		cli.Fatal("bad -scheme", "err", err)
	}
	var peers []string
	if *peersFlag != "" {
		peers = strings.Split(*peersFlag, ",")
	}
	n := *servers
	if n == 0 {
		n = len(peers)
	}
	if n == 0 && *rosterFlag == "" {
		cli.Fatal("set -servers, -peers, or -roster")
	}
	mode, err := cli.ParseMode(*modeFlag)
	if err != nil {
		cli.Fatal("bad -mode", "err", err)
	}
	var serverTLS, clientTLS *tls.Config
	if *useTLS {
		host, _, err := net.SplitHostPort(*listen)
		if err != nil || host == "" {
			host = "localhost"
		}
		serverTLS, err = transport.LoadServerTLS(*tlsCert, *tlsKey, host)
		if err != nil {
			cli.Fatal("loading server TLS", "err", err)
		}
		clientTLS, err = transport.ClientTLS(*tlsCA)
		if err != nil {
			cli.Fatal("loading client TLS", "err", err)
		}
	}
	// The operator endpoint serves the process-wide default registry, which
	// the pipeline and ingest subsystems below register into.
	tracer := telemetry.NewTracer(*traceSample, 256)
	if *adminAddr != "" {
		var adminTLS *tls.Config
		if serverTLS != nil {
			adminTLS = serverTLS.Clone()
		}
		aln, err := startAdmin(*adminAddr, adminTLS, tracer)
		if err != nil {
			cli.Fatal("starting admin endpoint", "err", err)
		}
		defer aln.Close()
		slog.Info("admin endpoint listening", "addr", aln.Addr().String(), "tls", *useTLS)
	}

	if *rosterFlag != "" {
		runCluster(scheme, mode, serverTLS, clientTLS, tracer)
		return
	}

	pro, err := prio.NewProtocol(prio.Config{Scheme: scheme, Servers: n, Mode: mode, Seal: true})
	if err != nil {
		cli.Fatal("building protocol", "err", err)
	}
	srv, err := prio.NewServer(pro, *index)
	if err != nil {
		cli.Fatal("building server", "err", err)
	}

	if *index != 0 {
		// Followers never publish, but they still window their shares, add
		// their own seal noise, and checkpoint durably.
		if svc := startWindowService(srv, nil, nil, nil); svc != nil {
			defer svc.Close()
		}
		ln, err := prio.ListenAndServeTLS(*listen, srv, serverTLS)
		if err != nil {
			cli.Fatal("listening", "err", err)
		}
		slog.Info("server listening", "index", *index, "scheme", scheme.Name(),
			"mode", mode.String(), "tls", *useTLS, "addr", ln.Addr().String())
		select {} // serve until killed
	}

	// Leader path. The peers dial lazily, so the verification stack is built
	// first and the listener opens onto a pipeline that already exists: the
	// protocol handler for the other servers' rounds and key fetches, and
	// the streaming ingest handler for client submissions.
	if len(peers) != n {
		cli.Fatal("leader needs -peers with one entry per server", "want", n)
	}
	leader, err := prio.ConnectLeaderTLS(srv, peers, clientTLS)
	if err != nil {
		cli.Fatal("building leader", "err", err)
	}
	registerPeerStats(leader, n)
	pl, err := prio.NewPipeline(leader, prio.PipelineConfig{
		Shards:     *shards,
		MaxBatch:   *batch,
		QueueDepth: *queueDepth,
		Registry:   telemetry.Default,
	})
	if err != nil {
		cli.Fatal("building pipeline", "err", err)
	}
	defer pl.Close()
	// The window service recovers from any checkpoint before intake starts,
	// and closes windows inside the pipeline's quiesce so a seal never races
	// a committing batch.
	if svc := startWindowService(srv, leader, pl.Quiesce, nil); svc != nil {
		defer svc.Close()
	}
	ln, err := prio.ListenAndServeTLS(*listen, srv, serverTLS)
	if err != nil {
		cli.Fatal("listening", "err", err)
	}
	defer ln.Close()
	ing := prio.ServeIngest(ln, pl, ingestConfig(tracer, nil))
	defer ing.Close()
	ld := &leaderLoop{scheme: scheme, pipeline: pl, ingest: ing}
	slog.Info("leader listening", "scheme", scheme.Name(), "mode", mode.String(),
		"tls", *useTLS, "addr", ln.Addr().String(), "servers", n,
		"shards", pl.Shards(), "stream_credits", *ingestCredits)

	ticker := time.NewTicker(*publishEvery)
	defer ticker.Stop()
	for range ticker.C {
		ld.publish()
		if *once {
			return
		}
	}
}

// registerPeerStats exports the leader's per-peer RPC traffic counters:
// one labeled series per server, read live at scrape time. The leader's own
// slot is a loopback: its series count the bytes a network would have
// carried, none of which crossed one.
func registerPeerStats(leader *prio.Leader, n int) {
	for i := 0; i < n; i++ {
		i := i
		lbl := telemetry.Label{Key: "peer", Value: strconv.Itoa(i)}
		telemetry.Default.CounterFunc("prio_peer_bytes_sent_total",
			"framed bytes sent to each server over the leader's RPC connection",
			func() uint64 { return leader.PeerStats(i).BytesSent }, lbl)
		telemetry.Default.CounterFunc("prio_peer_bytes_recv_total",
			"framed bytes received from each server over the leader's RPC connection",
			func() uint64 { return leader.PeerStats(i).BytesRecv }, lbl)
		telemetry.Default.CounterFunc("prio_peer_msgs_sent_total",
			"messages sent to each server over the leader's RPC connection",
			func() uint64 { return leader.PeerStats(i).MsgsSent }, lbl)
		telemetry.Default.CounterFunc("prio_peer_msgs_recv_total",
			"messages received from each server over the leader's RPC connection",
			func() uint64 { return leader.PeerStats(i).MsgsRecv }, lbl)
	}
}

// ingestConfig is the ingest server configuration the flags describe; gate
// is the cluster's leadership check (nil: always admit).
func ingestConfig(tracer *telemetry.Tracer, gate func() error) prio.IngestConfig {
	return prio.IngestConfig{
		Credits:        *ingestCredits,
		QueueDepth:     *ingestQueue,
		DynamicCredits: *ingestDynamic,
		Registry:       telemetry.Default,
		Tracer:         tracer,
		Gate:           gate,
	}
}

// leaderLoop publishes a leader's aggregate and interval counters. publish
// runs on the one ticker goroutine, so the last-interval marks need no lock.
type leaderLoop struct {
	scheme   prio.Scheme
	pipeline *prio.Pipeline
	ingest   *prio.IngestServer

	lastStat   prio.ShardStats
	lastIngest prio.IngestStats
}

// publish quiesces the pipeline and prints the decoded aggregate plus the
// interval's verification and ingest counters. Pipeline.Aggregate pauses
// intake for the duration, so the published aggregate is a consistent
// snapshot even under sustained submission traffic.
func (ld *leaderLoop) publish() {
	agg, n, err := ld.pipeline.Aggregate()
	st := ld.pipeline.Stats()
	ist := ld.ingest.Stats()
	delta := st
	delta.Batches -= ld.lastStat.Batches
	delta.Processed -= ld.lastStat.Processed
	delta.Accepted -= ld.lastStat.Accepted
	delta.Rejected -= ld.lastStat.Rejected
	delta.Failed -= ld.lastStat.Failed
	streamed := ist.Received - ld.lastIngest.Received
	// The ingest layer's count is the authoritative client-visible shed
	// number; pipeline Refused entries were re-queued through the intake
	// buffer, not necessarily lost.
	shed := ist.Shed - ld.lastIngest.Shed
	ld.lastStat = st
	ld.lastIngest = ist
	if delta.Processed+delta.Failed+shed > 0 {
		slog.Info("interval",
			"accepted", delta.Accepted, "rejected", delta.Rejected,
			"failed", delta.Failed, "shed", shed,
			"rounds", delta.Batches, "streamed", streamed)
	}
	if err != nil {
		slog.Warn("aggregate error", "err", err)
		return
	}
	fmt.Printf("aggregate over %d clients: %s\n", n, describeAggregate(ld.scheme, agg, int(n)))
}

// describeAggregate renders the aggregate with the scheme's own decoder
// where the type is known, falling back to the raw vector.
func describeAggregate(scheme prio.Scheme, agg []uint64, n int) string {
	switch s := scheme.(type) {
	case *prio.Sum:
		if v, err := s.Decode(agg, n); err == nil {
			return "sum=" + v.String()
		}
	case *prio.Variance:
		if mean, v, err := s.Decode(agg, n); err == nil {
			return fmt.Sprintf("mean=%.3f variance=%.3f", mean, v)
		}
	case *prio.FreqCount:
		if h, err := s.Decode(agg, n); err == nil {
			return fmt.Sprintf("histogram=%v", h)
		}
	case *prio.BitVector:
		if c, err := s.Decode(agg, n); err == nil {
			return fmt.Sprintf("counts=%v", c)
		}
	case *prio.IntVector:
		if c, err := s.Decode(agg, n); err == nil {
			return fmt.Sprintf("sums=%v", bigs(c))
		}
	case *prio.LinReg:
		if coef, err := s.Decode(agg, n); err == nil {
			return fmt.Sprintf("coefficients=%v", coef)
		}
	}
	return fmt.Sprintf("raw=%v", agg)
}

func bigs(v []*big.Int) []string {
	out := make([]string, len(v))
	for i, b := range v {
		out[i] = b.String()
	}
	return out
}
