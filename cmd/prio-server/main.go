// Command prio-server runs one member of a Prio deployment over TLS.
//
// Every member starts with the same statistic configuration, the same
// roster (the members' addresses in index order) and its own index. Each
// runs the full server stack: it holds its share of every submission,
// answers the verification rounds, and keeps a pipeline and a client ingest
// endpoint warm. One member at a time leads: it accepts client submission
// streams (see internal/ingest), drives verification in batches across
// concurrent shards, and publishes each closed collection window's aggregate
// (see window.go). The others refuse client streams, naming the leader.
// Leadership starts at index 0 and moves to the next live member when the
// leader fails (see docs/CLUSTER.md). Example three-member deployment of a
// 434-question survey:
//
//	R=localhost:7000,localhost:7001,localhost:7002
//	prio-server -roster $R -index 2 -listen :7002 -scheme bits434
//	prio-server -roster $R -index 1 -listen :7001 -scheme bits434
//	prio-server -roster $R -index 0 -listen :7000 -scheme bits434 \
//	    -batch 16 -window 30s
//
// Clients submit with prio-client (or flood with prio-load) given the same
// roster; they find the leader themselves.
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
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"prio"
	"prio/internal/cli"
	"prio/internal/cluster"
	"prio/internal/ingest"
	"prio/internal/sealbox"
	"prio/internal/telemetry"
	"prio/internal/transport"
)

var (
	rosterFlag    = flag.String("roster", "", "roster file or comma-separated member addresses in index order (required)")
	index         = flag.Int("index", 0, "this member's roster index")
	listen        = flag.String("listen", ":7000", "address to listen on")
	schemeFlag    = flag.String("scheme", "sum8", "statistic spec (see prio.ParseScheme)")
	modeFlag      = flag.String("mode", "prio", "validation mode: prio, prio-mpc, no-robust")
	batch         = flag.Int("batch", 16, "max submissions per verification round (leader)")
	shards        = flag.Int("shards", 0, "concurrent verification shards (leader; 0 = one per CPU)")
	queueDepth    = flag.Int("queue-depth", 0, "pipeline submission queue capacity (leader; 0 = 4 batches per shard)")
	ingestCredits = flag.Int("ingest-credits", ingest.DefaultCredits, "per-stream credit window for streamed submissions (leader)")
	ingestQueue   = flag.Int("ingest-queue", ingest.DefaultQueueDepth, "intake queue capacity buffering streamed submissions for the pipeline (leader)")
	useTLS        = flag.Bool("tls", true, "serve and dial TLS (self-signed unless -tls-cert/-tls-key)")
	tlsCert       = flag.String("tls-cert", "", "PEM certificate file (with -tls-key; default: fresh self-signed)")
	tlsKey        = flag.String("tls-key", "", "PEM private key file (with -tls-cert)")
	tlsCA         = flag.String("tls-ca", "", "PEM bundle to authenticate peer servers against (default: encrypt without authenticating)")
	adminAddr     = flag.String("admin-addr", "", "operator endpoint address serving /metrics, /healthz, /debug/* (default: off; TLS per -tls)")
	traceSample   = flag.Int("trace-sample", 0, "sample 1-in-N submission lifecycles into /debug/trace (0 = off)")
	keyFile       = flag.String("key-file", "", "persist the sealbox private key at this path (created 0600), so sealed submissions survive a restart")
	pingEvery     = flag.Duration("ping-interval", 250*time.Millisecond, "peer health probe cadence")
	pingTO        = flag.Duration("ping-timeout", 0, "per-probe timeout (default: ping interval)")
	failAfter     = flag.Int("fail-after", 3, "consecutive probe failures that mark a peer down")
	rotateFlag    = flag.Duration("rotate-every", 0, "timed leadership rotation interval (0 = rotate only on failover)")
	retriesFl     = flag.Int("batch-retries", 2, "re-run attempts for a verification batch that failed mid-round, and re-sends of a commit that failed on some members")
)

func main() {
	flag.Parse()
	cli.InitLog()
	scheme, err := prio.ParseScheme(*schemeFlag)
	if err != nil {
		cli.Fatal("bad -scheme", "err", err)
	}
	ros, err := cluster.LoadOrParseRoster(*rosterFlag)
	if err != nil {
		cli.Fatal("bad -roster", "err", err)
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
	// every subsystem of the member registers into.
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

	priv, err := loadOrCreateKey(*keyFile)
	if err != nil {
		cli.Fatal("loading sealbox key", "err", err)
	}
	pro, err := prio.NewProtocol(prio.Config{Scheme: scheme, Servers: ros.N(), Mode: mode, Seal: true})
	if err != nil {
		cli.Fatal("building protocol", "err", err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		cli.Fatal("listening", "err", err)
	}
	if serverTLS != nil {
		ln = tls.NewListener(ln, serverTLS)
	}
	self := *index
	m, err := cluster.NewMember(cluster.MemberConfig[prio.Field, prio.Element]{
		Listener: ln,
		Protocol: pro,
		Key:      priv,
		Registry: telemetry.Default,
		Cluster: cluster.Config{
			Roster:       ros,
			Self:         self,
			TLS:          clientTLS,
			PingInterval: *pingEvery,
			PingTimeout:  *pingTO,
			FailAfter:    *failAfter,
			RotateEvery:  *rotateFlag,
			OnLeaderChange: func(epoch uint64, leader int) {
				slog.Info("leadership change", "epoch", epoch, "leader", leader, "self", self)
			},
			OnPeerDown: func(peer int) { slog.Warn("peer down; its verification state released", "peer", peer) },
			OnPeerUp:   func(peer int) { slog.Info("peer up", "peer", peer) },
		},
		Pipeline: prio.PipelineConfig{
			Shards:     *shards,
			MaxBatch:   *batch,
			QueueDepth: *queueDepth,
			Retries:    *retriesFl,
		},
		Ingest: prio.IngestConfig{
			Credits:        *ingestCredits,
			QueueDepth:     *ingestQueue,
			DynamicCredits: true,
			Tracer:         tracer,
		},
		Window: windowConfig(scheme),
	})
	if err != nil {
		cli.Fatal("starting member", "err", err)
	}
	defer m.Close()
	reportWindow(m.Window)
	slog.Info("member listening", "self", self, "members", ros.N(),
		"scheme", scheme.Name(), "mode", mode.String(), "tls", *useTLS,
		"addr", m.Listener.Addr().String(), "shards", m.Pipeline.Shards(),
		"stream_credits", *ingestCredits,
		"ping_interval", pingEvery.String(), "rotate_every", rotateFlag.String())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	slog.Info("shutting down", "signal", (<-sig).String())
}

// loadOrCreateKey returns the sealbox key at path, generating and persisting
// one (mode 0600) when the file does not exist. An empty path yields nil:
// the member then generates an ephemeral key.
func loadOrCreateKey(path string) (*sealbox.PrivateKey, error) {
	if path == "" {
		return nil, nil
	}
	if raw, err := os.ReadFile(path); err == nil {
		return sealbox.ParsePrivateKey(raw)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	_, priv, err := sealbox.GenerateKey()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, priv.Bytes(), 0o600); err != nil {
		return nil, err
	}
	return priv, nil
}
