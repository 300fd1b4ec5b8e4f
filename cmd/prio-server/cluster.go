package main

import (
	"crypto/tls"
	"flag"
	"log/slog"
	"os"
	"time"

	"prio"
	"prio/internal/cli"
	"prio/internal/cluster"
	"prio/internal/core"
	"prio/internal/field"
	"prio/internal/sealbox"
	"prio/internal/telemetry"
	"prio/internal/transport"
)

var (
	rosterFlag = flag.String("roster", "", "roster file or comma-separated member addresses in index order; enables cluster mode (any member may lead)")
	keyFile    = flag.String("key-file", "", "persist the sealbox private key at this path (created 0600), so sealed submissions survive a restart")
	pingEvery  = flag.Duration("ping-interval", 250*time.Millisecond, "peer health probe cadence (cluster mode)")
	pingTO     = flag.Duration("ping-timeout", 0, "per-probe timeout (cluster mode; default: ping interval)")
	failAfter  = flag.Int("fail-after", 3, "consecutive probe failures that mark a peer down (cluster mode)")
	rotateFlag = flag.Duration("rotate-every", 0, "timed leadership rotation interval (cluster mode; 0 = rotate only on failover)")
	retriesFl  = flag.Int("batch-retries", 2, "re-run attempts for a verification batch that failed mid-round, and re-sends of a commit that failed on some members (cluster mode)")
)

// loadOrCreateKey returns the sealbox key at path, generating and persisting
// one (mode 0600) when the file does not exist. An empty path yields a fresh
// ephemeral key, as in non-cluster mode.
func loadOrCreateKey(path string) (*sealbox.PrivateKey, error) {
	if path == "" {
		_, priv, err := sealbox.GenerateKey()
		return priv, err
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

// runCluster is the roster-mode server: every member runs the same stack —
// protocol handler, gated ingest endpoint, health-checked cluster node, and
// a full verification pipeline — and the cluster node decides which member's
// pipeline is actually fed. Leadership moves on failover (and on
// -rotate-every); peers ride re-dialing connections so a restarted member is
// picked back up without operator action.
func runCluster(scheme prio.Scheme, mode prio.Mode, serverTLS, clientTLS *tls.Config, tracer *telemetry.Tracer) {
	ros, err := cluster.LoadOrParseRoster(*rosterFlag)
	if err != nil {
		cli.Fatal("bad -roster", "err", err)
	}
	self := *index
	if self < 0 || self >= ros.N() {
		cli.Fatal("-index outside the roster", "index", self, "members", ros.N())
	}
	priv, err := loadOrCreateKey(*keyFile)
	if err != nil {
		cli.Fatal("loading sealbox key", "err", err)
	}
	pro, err := prio.NewProtocol(prio.Config{Scheme: scheme, Servers: ros.N(), Mode: mode, Seal: true})
	if err != nil {
		cli.Fatal("building protocol", "err", err)
	}
	srv, err := core.NewServer[field.F64, uint64](pro, self, priv)
	if err != nil {
		cli.Fatal("building server", "err", err)
	}

	node, err := cluster.New(cluster.Config{
		Roster:       ros,
		Self:         self,
		TLS:          clientTLS,
		PingInterval: *pingEvery,
		PingTimeout:  *pingTO,
		FailAfter:    *failAfter,
		RotateEvery:  *rotateFlag,
		Registry:     telemetry.Default,
		OnLeaderChange: func(epoch uint64, leader int) {
			slog.Info("leadership change", "epoch", epoch, "leader", leader, "self", self)
		},
		OnPeerDown: func(peer int) {
			// Drop whatever half-finished verification state the dead member
			// seeded here as coordinator: its batches will be re-run under
			// fresh IDs by whoever leads next.
			batches, challenges := srv.ReleaseLeader(peer)
			slog.Warn("peer down", "peer", peer,
				"released_batches", batches, "released_challenges", challenges)
		},
		OnPeerUp: func(peer int) { slog.Info("peer up", "peer", peer) },
	})
	if err != nil {
		cli.Fatal("building cluster node", "err", err)
	}

	// The verification stack every member keeps warm: peers on lazily
	// dialed, re-dialing streamed connections (boot order does not matter,
	// and a restarted member is picked back up on the next call), a leader
	// namespace of our own index, and a pipeline with in-place batch retry
	// for rounds interrupted by a peer restart.
	leader, err := prio.ConnectLeaderTLS(srv, ros.Addrs, clientTLS)
	if err != nil {
		cli.Fatal("building leader", "err", err)
	}
	pl, err := prio.NewPipeline(leader, prio.PipelineConfig{
		Shards:     *shards,
		MaxBatch:   *batch,
		QueueDepth: *queueDepth,
		Retries:    *retriesFl,
		Registry:   telemetry.Default,
	})
	if err != nil {
		cli.Fatal("building pipeline", "err", err)
	}
	defer pl.Close()
	// Every member runs the window service: all of them window shares, add
	// their own seal noise, and checkpoint; the IsLeader gate means only the
	// sitting leader drives window closes, and that duty moves with the
	// leadership on failover (sealing is idempotent, so a close retried by a
	// successor republishes bit-identical bytes).
	if svc := startWindowService(srv, leader, pl.Quiesce, node.IsLeader); svc != nil {
		defer svc.Close()
	}

	// Every member terminates client traffic: ingest streams feed the
	// pipeline while this member leads; followers refuse at the gate, naming
	// the leader so clients re-resolve.
	base := srv.Handler()
	ln, err := transport.Listen(*listen, serverTLS, func(msgType byte, payload []byte) ([]byte, error) {
		if msgType == cluster.MsgClusterInfo {
			return node.HandleInfo(payload)
		}
		return base(msgType, payload)
	})
	if err != nil {
		cli.Fatal("listening", "err", err)
	}
	defer ln.Close()
	ing := prio.ServeIngest(ln, pl, ingestConfig(tracer, node.LeaderGate()))
	defer ing.Close()
	ld := &leaderLoop{scheme: scheme, pipeline: pl, ingest: ing}

	node.Start()
	defer node.Stop()
	slog.Info("cluster member listening", "self", self, "members", ros.N(),
		"scheme", scheme.Name(), "mode", mode.String(), "tls", serverTLS != nil,
		"addr", ln.Addr().String(), "shards", pl.Shards(),
		"ping_interval", pingEvery.String(), "rotate_every", rotateFlag.String())

	ticker := time.NewTicker(*publishEvery)
	defer ticker.Stop()
	for range ticker.C {
		if node.IsLeader() {
			ld.publish()
			if *once {
				return
			}
		}
	}
}
