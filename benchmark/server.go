package main

import (
	"fmt"
	"math/big"
	"runtime"
	"slices"
	"time"

	"prio"
	"prio/internal/transport"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	w            *workload
	seed         int64
	seconds      float64 // measured window
	warmup       float64
	trace        bool
	pool         int     // pool size
	setups       int     // set-ups before the window of an untraced run
	lateSetups   int     // and after it
	buildSeconds float64 // further builds on either side of the window, each
	spans        string  // span file of a traced run
	calibrate    bool    // run an open-loop workload closed, to measure capacity
	notef        func(format string, args ...any)
}

// snapshot is the state of every counter the benchmark reads at a window
// edge.
type snapshot struct {
	cpu     time.Duration
	mem     runtime.MemStats
	pipe    prio.ShardStats
	peers   transport.Stats // summed over non-leader peers
	ingWire uint64
	evHit   uint64
	evMiss  uint64
}

func takeSnapshot(d *deployment) snapshot {
	s := snapshot{cpu: cpuTime(), pipe: d.pl.Stats()}
	runtime.ReadMemStats(&s.mem)
	for i := 1; i < len(d.servers); i++ {
		ps := d.leader.PeerStats(i)
		s.peers.BytesSent += ps.BytesSent
		s.peers.BytesRecv += ps.BytesRecv
		s.peers.MsgsSent += ps.MsgsSent
		s.peers.MsgsRecv += ps.MsgsRecv
	}
	reg := d.ingReg.Snapshot()
	for _, k := range []string{"prio_ingest_wire_bytes_in_total", "prio_ingest_wire_bytes_out_total"} {
		if v, ok := reg[k].(uint64); ok {
			s.ingWire += v
		}
	}
	s.evHit, s.evMiss = d.prep.pro.ValidSys.EvCacheStats()
	return s
}

// pass is one measured window over one deployment, with everything the
// metrics need.
type pass struct {
	seconds           float64
	t0, t1            int64
	from, to          snapshot
	life, win         tally
	submitted         uint64
	attempted         uint64
	latMS             []float64
	ackP50MS          float64 // steadyMedian over each stream's latMS
	blockUS           []float64
	lateMS            []float64
	pubs              []published
	problems          []string // correctness failures
	decided           float64  // acks decided inside the window
	slices            sliceSeries
	uploadBytesPerSub float64
}

// measure drives one deployment through warm-up, the measured window and
// the drain, then checks every output.
func measure(cfg *runConfig, d *deployment, l *load) (*pass, error) {
	l.start(cfg.calibrate)
	time.Sleep(time.Duration(cfg.warmup * float64(time.Second)))
	p := &pass{}
	p.from = takeSnapshot(d)
	l.phase.Store(phaseMeasure)
	p.t0 = clock()
	p.slices = sliceWindow(cfg.seconds, l.decidedSoFar)
	p.t1 = clock()
	l.phase.Store(phaseDrain)
	p.to = takeSnapshot(d)
	p.seconds = float64(p.t1-p.t0) / 1e9
	if err := l.finish(); err != nil {
		return nil, err
	}
	drained := time.Now() // every submission was stamped with a window before this

	var accepted []uint64
	p.life, p.win, p.submitted, p.attempted, accepted = l.totals()
	p.decided = float64(p.win.decided())
	var perStream [][]float64
	for _, s := range l.streams {
		p.latMS = append(p.latMS, s.latMS...)
		p.blockUS = append(p.blockUS, s.blockUS...)
		p.lateMS = append(p.lateMS, s.lateMS...)
		perStream = append(perStream, s.latMS)
	}
	p.ackP50MS = steadyMedian(sampleBlock, perStream...)
	// The generators walk the whole pool, so the pool's mean framed size is
	// the mean upload (and every entry of one scheme has the same size).
	p.uploadBytesPerSub = mean(d.prep.pool.upload)

	// Correctness. Every ack carried the decision its pool entry demands…
	fail := func(format string, args ...any) { p.problems = append(p.problems, fmt.Sprintf(format, args...)) }
	if p.life.bad() != 0 {
		fail("acks: %d shed, %d failed, %d decided wrongly", p.life.shed, p.life.failed, p.life.wrong)
	}
	// …the ledger closes, on the client and on the ingest server…
	if got := p.life.decided() + p.life.shed + p.life.failed; got != p.submitted {
		fail("ledger open: submitted %d, acked %d", p.submitted, got)
	}
	var cs prio.SubmitterStats
	for _, s := range l.streams {
		st := s.sub.Stats()
		cs.Submitted += st.Submitted
		cs.Accepted += st.Accepted
		cs.Rejected += st.Rejected
		cs.Shed += st.Shed
		cs.Failed += st.Failed
	}
	if cs.Submitted != cs.Accepted+cs.Rejected+cs.Shed+cs.Failed || cs.Submitted != p.submitted {
		fail("submitter ledger open: %+v (generator submitted %d)", cs, p.submitted)
	}
	if is := d.ing.Stats(); is.Received != is.Accepted+is.Rejected+is.Shed+is.Failed || is.Received != p.submitted {
		fail("ingest ledger open: %+v (generator submitted %d)", is, p.submitted)
	}
	// …and the servers hold exactly the sum of the accepted encodings.
	want, wantN := d.prep.pool.reference(accepted)
	agg, n, err := d.pl.Aggregate()
	switch {
	case err != nil:
		fail("aggregate: %v", err)
	case n != wantN || !slices.Equal(agg, want):
		fail("aggregate over %d submissions differs from the reference sum over %d", n, wantN)
	}
	if d.prep.w.window > 0 {
		p.pubs, err = d.waitPublished(drained, 3*d.prep.w.window+5*time.Second)
		if err != nil {
			fail("windows: %v", err)
		}
		if msg := checkWindows(p.pubs, want, wantN); msg != "" {
			fail("windows: %s", msg)
		}
	}
	return p, nil
}

// checkWindows sums the published windows and compares them with the
// reference: after load stops and one more boundary passes, every accepted
// submission is in exactly one released window.
func checkWindows(pubs []published, want []uint64, wantN uint64) string {
	f := prio.DefaultField()
	sum := make([]uint64, len(want))
	var n uint64
	for _, p := range pubs {
		if !p.rec.Consistent {
			return fmt.Sprintf("window %d inconsistent: counts %v", p.rec.ID, p.rec.Counts)
		}
		if len(p.rec.Agg) != len(want) {
			return fmt.Sprintf("window %d has %d components, want %d", p.rec.ID, len(p.rec.Agg), len(want))
		}
		n += p.rec.Count
		for j, dec := range p.rec.Agg {
			v, ok := new(big.Int).SetString(dec, 10)
			if !ok || !v.IsUint64() {
				return fmt.Sprintf("window %d component %d unreadable: %q", p.rec.ID, j, dec)
			}
			sum[j] = f.Add(sum[j], v.Uint64())
		}
	}
	if n != wantN || !slices.Equal(sum, want) {
		return fmt.Sprintf("%d windows hold %d submissions, reference holds %d (or the vectors differ)", len(pubs), n, wantN)
	}
	return ""
}

// endToEndServer derives the untraced metric set of a server workload.
func endToEndServer(p *pass, setupS float64, builds [][]float64) map[string]float64 {
	peerBytes := float64(p.to.peers.BytesSent - p.from.peers.BytesSent + p.to.peers.BytesRecv - p.from.peers.BytesRecv)
	return map[string]float64{
		"setup_s":              setupS,
		"subs_per_s":           p.slices.perSecond(),
		"cpu_ms_per_sub":       p.slices.cpuMSPerOp(),
		"ack_p50_ms":           p.ackP50MS,
		"upload_bytes_per_sub": p.uploadBytesPerSub,
		"server_bytes_per_sub": ratio(peerBytes, p.decided),
		"client_encode_us":     steadyMedian(buildBlock, builds...),
		"peak_rss_mb":          peakRSSMB(),
	}
}

// boot deploys prep's workload and connects the load generator: the part of
// set-up that a traced run does twice.
func boot(cfg *runConfig, prep *prepared, tr *tracer) (*deployment, *load, error) {
	d, err := deploy(prep, tr)
	if err != nil {
		return nil, nil, err
	}
	l, err := openLoad(d, cfg.seed, tr)
	if err != nil {
		d.close()
		return nil, nil, err
	}
	return d, l, nil
}

// shutdown closes the streams, then the deployment.
func shutdown(d *deployment, l *load) {
	l.closeStreams()
	d.close()
}

// runServer runs one of the three server workloads.
func runServer(cfg *runConfig) (*result, error) {
	if cfg.trace {
		return runServerTraced(cfg)
	}
	// Set up several times, most of them before the window (the last of
	// those is the deployment measured) and the rest after it, a whole window
	// later, and on either side build the pool's entries some more, so that
	// one disturbed stretch of the run cannot hold every sample of setup_s
	// and client_encode_us.
	var (
		setupS []float64
		builds [][]float64 // series of BuildSubmission times, each in the order measured
		prep   *prepared
		d      *deployment
		l      *load
	)
	setUp := func() error {
		// Every set-up starts from a collected heap: what the one before
		// left behind is not its cost, and peak_rss_mb should not depend on
		// whether a collection happened to fall between two of them.
		runtime.GC()
		t0 := time.Now()
		var err error
		if prep, err = prepare(cfg.w, cfg.seed, cfg.pool); err != nil {
			return err
		}
		if d, l, err = boot(cfg, prep, nil); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		builds = append(builds, prep.pool.buildUS)
		return nil
	}
	moreBuilds := func() error {
		us, err := prep.timeBuilds(cfg.buildSeconds)
		builds = append(builds, us)
		return err
	}
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			shutdown(d, l)
		}
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	if err := moreBuilds(); err != nil { // beside the idle deployment
		return nil, err
	}
	runtime.GC() // every run starts its warm-up from a collected heap
	p, err := measure(cfg, d, l)
	shutdown(d, l)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.lateSetups; i++ {
		if err := setUp(); err != nil {
			return nil, err
		}
		shutdown(d, l)
	}
	if err := moreBuilds(); err != nil {
		return nil, err
	}
	cfg.notef("window %.2fs: %d attempted, %d decided, %d latency samples; set-ups %.3v s",
		p.seconds, p.attempted, p.win.decided(), len(p.latMS), setupS)
	rate, cpu := p.slices.plain()
	var allBuilds []float64
	for _, us := range builds {
		allBuilds = append(allBuilds, us...)
	}
	cfg.notef("plain over the window: %.1f subs/s, %.4f cpu ms/sub, median ack %.3f ms; median of %d builds %.1f us",
		rate, cpu, quantile(p.latMS, 0.5), len(allBuilds), quantile(allBuilds, 0.5))
	for _, msg := range p.problems {
		cfg.notef("INCORRECT: %s", msg)
	}
	return &result{
		Correct:   len(p.problems) == 0,
		Attempted: int64(max(p.attempted, 1)),
		Failed:    int64(p.win.bad()),
		Metrics:   fill(endToEnd, endToEndServer(p, lowQuarter(setupS), builds)),
	}, nil
}
