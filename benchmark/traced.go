package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"prio"
	"prio/internal/core"
	"prio/internal/transport"
	"prio/internal/window"
)

// runServerTraced is the --trace 1 run of a server workload: one set-up,
// then the workload twice over it, first as shipped (the baseline rate) and
// then with the tracer at every seam. The measured seconds are split between
// the two passes.
func runServerTraced(cfg *runConfig) (*result, error) {
	prep, err := prepare(cfg.w, cfg.seed, cfg.pool)
	if err != nil {
		return nil, err
	}
	half := *cfg
	half.seconds, half.warmup = cfg.seconds/2, cfg.warmup/2

	d, l, err := boot(cfg, prep, nil)
	if err != nil {
		return nil, err
	}
	base, err := measure(&half, d, l)
	shutdown(d, l)
	if err != nil {
		return nil, err
	}

	tr := newTracer(prep.pool.byKey)
	if d, l, err = boot(cfg, prep, tr); err != nil {
		return nil, err
	}
	defer func() { shutdown(d, l) }()
	p, err := measure(&half, d, l)
	if err != nil {
		return nil, err
	}
	p.problems = append(p.problems, base.problems...)
	for _, pub := range p.pubs {
		tr.add(span{kind: spanPublish, id: pub.rec.ID, start: int64(pub.rec.End.Sub(epoch)), end: pub.at})
	}

	vals := layerMetrics(prep, p, tr.snapshot())
	vals["trace.overhead_frac"] = 1 - ratio(ratio(p.decided, p.seconds), ratio(base.decided, base.seconds))
	if cfg.w.window > 0 {
		if vals["window.checkpoint_save_ms"], err = checkpointSaveMS(d); err != nil {
			return nil, err
		}
	}
	if vals["transport.rtt_us"], err = bareRTT(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	sk, err := serverKernels(prep, rng)
	if err != nil {
		return nil, err
	}
	pubs := make([]*prio.ServerPublicKey, len(prep.privs))
	for i, priv := range prep.privs {
		pubs[i] = priv.Public()
	}
	ck, err := clientKernels(prep.scheme, prep.pro, pubs, rng)
	if err != nil {
		return nil, err
	}
	for _, k := range []map[string]float64{sk, ck} {
		for name, v := range k {
			vals[name] = v
		}
	}
	nSpans, err := tr.write(cfg.spans)
	if err != nil {
		return nil, err
	}
	cfg.notef("window %.2fs: %d attempted, %d decided (baseline %.1f/s over %.2fs); %d spans in %s",
		p.seconds, p.attempted, p.win.decided(), ratio(base.decided, base.seconds), base.seconds, nSpans, cfg.spans)
	for _, msg := range p.problems {
		cfg.notef("INCORRECT: %s", msg)
	}
	return &result{
		Correct:   len(p.problems) == 0,
		Attempted: int64(max(p.attempted, 1)),
		Failed:    int64(p.win.bad()),
		Metrics:   fill(perLayer, vals),
	}, nil
}

// batchCalls is what the leader's calls to one non-leader server say about
// one verification batch.
type batchCalls struct {
	inWindow bool // its Round1 call started inside the measured window
	probes   int  // Round2 calls: 1 when the combined check passed, more when it bisected
	callNS   int64
}

// layerMetrics derives the per-layer metrics of one traced pass from its
// spans and counter deltas. Spans are attributed to the measured window by
// their start; a batch by the start of its Round1 call.
func layerMetrics(prep *prepared, p *pass, spans []span) map[string]float64 {
	in := func(s *span) bool { return s.start >= p.t0 && s.start < p.t1 }
	wallNS := float64(p.t1 - p.t0)

	var (
		ackNS, sinkNS             []float64
		callN, callSum            [256]float64 // non-leader peers, by message type
		handleSum                 [256]float64 // every server, by message type
		remoteCalls, remoteCallNS float64
		remoteHandleNS, allCalls  float64
		busyNS                    float64
		lagMS                     []float64
		batches                   = map[uint64]*batchCalls{}
		batch                     = func(id uint64) *batchCalls {
			b := batches[id]
			if b == nil {
				b = &batchCalls{}
				batches[id] = b
			}
			return b
		}
	)
	for i := range spans {
		s := &spans[i]
		dur := float64(s.end - s.start)
		switch s.kind {
		case spanSubmission:
			if in(s) {
				ackNS = append(ackNS, dur)
			}
		case spanSink:
			if in(s) {
				sinkNS = append(sinkNS, dur)
			}
		case spanCall:
			if in(s) {
				allCalls++
				if s.peer > 0 {
					remoteCalls++
					remoteCallNS += dur
					callN[s.msg]++
					callSum[s.msg] += dur
				}
			}
			// One non-leader server stands for the batch: the leader
			// broadcasts every round to all of them at once.
			if s.peer == 1 {
				switch s.msg {
				case core.MsgRound1:
					b := batch(s.id)
					b.inWindow = in(s)
					b.callNS += s.end - s.start
				case core.MsgRound2, core.MsgRound2Batch:
					b := batch(s.id)
					b.probes++
					b.callNS += s.end - s.start
				case core.MsgFinish:
					batch(s.id).callNS += s.end - s.start
				}
			}
		case spanHandle:
			if in(s) {
				handleSum[s.msg] += dur
				busyNS += dur
				if s.peer > 0 {
					remoteHandleNS += dur
				}
			}
		case spanPublish:
			if in(s) {
				lagMS = append(lagMS, dur/1e6)
			}
		}
	}
	var nBatches, probes, batchCallNS float64
	for _, b := range batches {
		if b.inWindow {
			nBatches++
			probes += float64(b.probes)
			batchCallNS += float64(b.callNS)
		}
	}

	decided := p.decided
	pipe := func(f func(prio.ShardStats) uint64) float64 { return float64(f(p.to.pipe) - f(p.from.pipe)) }
	processed := pipe(func(s prio.ShardStats) uint64 { return s.Processed })
	meanAck, meanSink := mean(ackNS), mean(sinkNS)
	meanBlock := mean(p.blockUS) * 1e3
	perCall := func(msgs ...byte) float64 {
		var n, sum float64
		for _, m := range msgs {
			n += callN[m]
			sum += callSum[m]
		}
		return ratio(sum, n) / 1e3
	}
	hits, misses := float64(p.to.evHit-p.from.evHit), float64(p.to.evMiss-p.from.evMiss)

	vals := map[string]float64{
		"ack_p99_ms":                quantile(append([]float64(nil), p.latMS...), 0.99),
		"ingest.submit_block_us":    meanBlock / 1e3,
		"ingest.self_us":            (meanAck - meanSink) / 1e3,
		"ingest.shed_frac":          ratio(float64(p.win.shed), float64(p.attempted)),
		"ingest.wire_bytes_per_sub": ratio(float64(p.to.ingWire-p.from.ingWire), decided),
		"gen.late_p99_ms":           quantile(append([]float64(nil), p.lateMS...), 0.99),

		"core.pipeline.decision_us_p50": quantile(sinkNS, 0.50) / 1e3,
		"core.pipeline.decision_us_p99": quantile(sinkNS, 0.99) / 1e3,
		"core.pipeline.batch_size_mean": ratio(processed, pipe(func(s prio.ShardStats) uint64 { return s.Batches })),
		"core.pipeline.refused_frac":    ratio(pipe(func(s prio.ShardStats) uint64 { return s.Refused }), processed),
		"core.pipeline.queue_wait_us":   (meanSink - ratio(batchCallNS, nBatches)) / 1e3,

		"core.leader.round1_call_us":          perCall(core.MsgRound1),
		"core.leader.round2_call_us":          perCall(core.MsgRound2, core.MsgRound2Batch),
		"core.leader.finish_call_us":          perCall(core.MsgFinish),
		"core.leader.round2_probes_per_batch": ratio(probes, nBatches),
		"core.leader.calls_per_sub":           ratio(allCalls, decided),

		"core.server.round1_us_per_sub": ratio(handleSum[core.MsgRound1], decided) / 1e3,
		"core.server.round2_us_per_sub": ratio(handleSum[core.MsgRound2]+handleSum[core.MsgRound2Batch], decided) / 1e3,
		"core.server.finish_us_per_sub": ratio(handleSum[core.MsgFinish], decided) / 1e3,
		"core.server.busy_frac":         ratio(busyNS, wallNS*maxProcs),

		"transport.rounds.wire_us_per_call":   ratio(remoteCallNS-remoteHandleNS, remoteCalls) / 1e3,
		"transport.rounds.msgs_per_sub":       ratio(float64(p.to.peers.MsgsSent-p.from.peers.MsgsSent+p.to.peers.MsgsRecv-p.from.peers.MsgsRecv), decided),
		"transport.rounds.sent_bytes_per_sub": ratio(float64(p.to.peers.BytesSent-p.from.peers.BytesSent), decided),
		"transport.rounds.recv_bytes_per_sub": ratio(float64(p.to.peers.BytesRecv-p.from.peers.BytesRecv), decided),

		"snip.evcache_hit_frac": ratio(hits, hits+misses),
		"window.publish_lag_ms": quantile(lagMS, 0.5),

		"proc.allocs_per_sub":      ratio(float64(p.to.mem.Mallocs-p.from.mem.Mallocs), decided),
		"proc.alloc_bytes_per_sub": ratio(float64(p.to.mem.TotalAlloc-p.from.mem.TotalAlloc), decided),
		"proc.gc_pause_ms_per_s":   ratio(float64(p.to.mem.PauseTotalNs-p.from.mem.PauseTotalNs)/1e6, p.seconds),

		// The share of the mean ack no span but the root covers: what is
		// left of generator → ack after the Submit call and the pipeline's
		// decision. From outside the program that is the stream's wire, the
		// intake queue and the ack path, which no seam separates.
		"budget.unattributed_frac": max(0, 1-ratio(meanBlock+meanSink, meanAck)),
		"failed_frac":              ratio(float64(p.win.bad()), float64(p.attempted)),
	}
	// Reported only when the workload's shape is one of the mix's: fill
	// drops names the catalogue does not have.
	name := mixMetric(prep.w.scheme)
	vals["core.client.build_us."+name] = quantile(append([]float64(nil), prep.pool.buildUS...), 0.5)
	vals["core.client.upload_bytes."+name] = p.uploadBytesPerSub
	return vals
}

// checkpointSaveMS times window.Save of the leader's accumulator state, as
// the window service writes it at every boundary: marshal, write, fsync,
// rename, directory fsync.
func checkpointSaveMS(d *deployment) (float64, error) {
	store, err := window.NewStore(filepath.Join(d.tmp, "kernel"))
	if err != nil {
		return 0, err
	}
	snap := &window.Snapshot[uint64]{Acc: d.servers[0].AccState()}
	ns := medianNS(func() {
		if _, e := window.Save(store, prio.DefaultField(), snap); e != nil {
			err = e
		}
	})
	return ns / 1e6, err
}

// bareRTT is the median round trip of an empty call over a streamed rounds
// peer on loopback, with a handler that does nothing: the floor under every
// leader call.
func bareRTT() (float64, error) {
	ln, err := transport.Listen("127.0.0.1:0", nil, func(byte, []byte) ([]byte, error) { return nil, nil })
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	peer := transport.NewStreamPeer(ln.Addr().String(), nil)
	defer peer.Close()
	call := func() error {
		_, err := peer.Call(core.MsgReset, nil)
		return err
	}
	if err := call(); err != nil { // dials
		return 0, fmt.Errorf("rtt probe: %w", err)
	}
	ns := make([]float64, 201)
	for i := range ns {
		t0 := time.Now()
		if err := call(); err != nil {
			return 0, fmt.Errorf("rtt probe: %w", err)
		}
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	return quantile(ns, 0.5) / 1e3, nil
}
