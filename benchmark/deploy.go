package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"prio"
	"prio/internal/core"
	"prio/internal/field"
	"prio/internal/ingest"
	"prio/internal/telemetry"
	"prio/internal/transport"
	"prio/internal/window"
)

// published is one window release as the leader's OnPublish saw it.
type published struct {
	rec window.Record
	at  int64 // clock() when OnPublish ran
}

// deployment is every server of one workload, in this process: server 0
// leads over streamed prio-rounds/1 peers, servers 1…s-1 sit behind real
// loopback TCP listeners (plaintext), optionally behind a delay proxy each.
type deployment struct {
	prep    *prepared
	servers []*prio.Server
	lns     []*transport.Server // lns[0] is the leader's ingest listener
	proxies []*delayProxy
	peers   []transport.Peer // traced deployments only: the peers we built
	leader  *prio.Leader
	pl      *prio.Pipeline
	ing     *prio.IngestServer
	ingReg  *telemetry.Registry
	svcs    []*window.Service[field.F64, uint64]
	tmp     string

	pubMu  sync.Mutex
	pubs   []published
	pubSig chan struct{} // one token per OnPublish burst; see waitPublished
}

// deploy boots the servers of prep's workload. tr, when non-nil, interposes
// the tracer at every seam; nil deploys the program exactly as shipped.
func deploy(prep *prepared, tr *tracer) (d *deployment, err error) {
	w := prep.w
	d = &deployment{prep: prep, pubSig: make(chan struct{}, 1)}
	defer func() {
		if err != nil {
			d.close()
		}
	}()

	d.servers = make([]*prio.Server, w.servers)
	d.lns = make([]*transport.Server, w.servers)
	addrs := make([]string, w.servers)
	for i := range d.servers {
		if d.servers[i], err = core.NewServer[field.F64, uint64](prep.pro, i, prep.privs[i]); err != nil {
			return d, err
		}
	}
	handler := func(i int) transport.Handler {
		h := d.servers[i].Handler()
		if tr != nil {
			h = tr.wrapHandler(i, h)
		}
		return h
	}
	for i := 1; i < w.servers; i++ {
		if d.lns[i], err = transport.Listen("127.0.0.1:0", nil, handler(i)); err != nil {
			return d, err
		}
		addrs[i] = d.lns[i].Addr().String()
		if w.delay > 0 {
			px, err := newDelayProxy(addrs[i], w.delay)
			if err != nil {
				return d, err
			}
			d.proxies = append(d.proxies, px)
			addrs[i] = px.addr()
		}
	}

	if tr == nil {
		d.leader, err = prio.ConnectLeader(d.servers[0], addrs)
	} else {
		// prio.ConnectLeader's own wiring, with each peer (and the
		// loopback's handler) wrapped.
		d.peers = make([]transport.Peer, w.servers)
		d.peers[0] = &tracedPeer{Peer: &transport.LoopbackPeer{Handler: handler(0)}, t: tr}
		for i := 1; i < w.servers; i++ {
			d.peers[i] = &tracedPeer{Peer: transport.NewStreamPeer(addrs[i], nil), idx: int8(i), t: tr}
		}
		d.leader, err = core.NewLeader(d.servers[0], d.peers)
	}
	if err != nil {
		return d, err
	}
	if d.pl, err = prio.NewPipeline(d.leader, prio.PipelineConfig{Shards: pipeShards, MaxBatch: pipeMaxBatch}); err != nil {
		return d, err
	}

	if d.lns[0], err = prio.ListenAndServe("127.0.0.1:0", d.servers[0]); err != nil {
		return d, err
	}
	d.ingReg = telemetry.New()
	icfg := prio.IngestConfig{Credits: ingestCredits, QueueDepth: ingestQueue, DynamicCredits: true, Registry: d.ingReg}
	if tr == nil {
		d.ing = prio.ServeIngest(d.lns[0], d.pl, icfg)
	} else {
		d.ing = ingest.NewServer(&tracedSink{sink: d.pl, t: tr}, icfg)
		d.lns[0].OnStream(d.ing.Handler())
	}

	if w.window > 0 {
		if d.tmp, err = os.MkdirTemp("", "prio-bench-"); err != nil {
			return d, err
		}
		// One service per member, as prio-server runs them: every member
		// windows and checkpoints its shares, only the leader publishes. DP
		// noise stays off so releases can be checked exactly.
		for i, srv := range d.servers {
			store, err := window.NewStore(filepath.Join(d.tmp, fmt.Sprintf("member%d", i)))
			if err != nil {
				return d, err
			}
			cfg := window.Config[field.F64, uint64]{
				Field:  prio.DefaultField(),
				Width:  w.window,
				Server: srv,
				Store:  store,
			}
			if i == 0 {
				cfg.Leader = d.leader
				cfg.Quiesce = d.pl.Quiesce
				cfg.OnPublish = d.onPublish
			}
			svc, err := window.New(cfg)
			if err != nil {
				return d, err
			}
			svc.Start()
			d.svcs = append(d.svcs, svc)
		}
	}
	return d, nil
}

func (d *deployment) onPublish(rec window.Record) {
	d.pubMu.Lock()
	d.pubs = append(d.pubs, published{rec: rec, at: clock()})
	d.pubMu.Unlock()
	select {
	case d.pubSig <- struct{}{}:
	default:
	}
}

// waitPublished blocks until the window holding instant t has been released,
// and returns every release so far.
func (d *deployment) waitPublished(t time.Time, timeout time.Duration) ([]published, error) {
	want := window.ID(t, d.prep.w.window)
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		d.pubMu.Lock()
		pubs := append([]published(nil), d.pubs...)
		d.pubMu.Unlock()
		if n := len(pubs); n > 0 && pubs[n-1].rec.ID >= want {
			return pubs, nil
		}
		select {
		case <-d.pubSig:
		case <-deadline.C:
			return pubs, fmt.Errorf("window %d not published within %v", want, timeout)
		}
	}
}

// addr is where clients open ingest streams.
func (d *deployment) addr() string { return d.lns[0].Addr().String() }

// close tears the deployment down in dependency order, so the next one can
// start in the same process: window services, ingest, pipeline, peers,
// proxies, listeners, temp dir. Safe on a partly built deployment.
func (d *deployment) close() {
	for _, svc := range d.svcs {
		svc.Close()
	}
	if d.ing != nil {
		d.ing.Close()
	}
	if d.pl != nil {
		d.pl.Close() // a batch error is already counted as failed acks
	}
	for _, p := range d.peers {
		p.Close()
	}
	for _, px := range d.proxies {
		px.close()
	}
	// Closing a listener severs its connections, which is also what ends
	// the untraced leader's stream peers (prio.ConnectLeader keeps them).
	for _, ln := range d.lns {
		if ln != nil {
			ln.Close()
		}
	}
	if d.tmp != "" {
		os.RemoveAll(d.tmp)
	}
}
