package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"prio"
	"prio/internal/core"
	"prio/internal/field"
	"prio/internal/sealbox"
	"prio/internal/transport"
)

const (
	// clientValues is how many seeded encodings each shape of the mix
	// cycles through.
	clientValues = 64
	// clientKeep is how many of each shape's latest submissions are kept
	// for the correctness check after the window.
	clientKeep = 8
	// clientSlice is the slice length of the build loop's window, in
	// nanoseconds: 40 passes over the mix. The loop has no batches whose
	// edges a short slice would measure, and the shorter the slice, the more
	// slices fall between two bursts of interference.
	clientSlice = 100e6
)

// mixShape is one scheme of client_encode_mix.
type mixShape struct {
	name   string // metric-name form of the spec
	scheme prio.Scheme
	pro    *prio.Protocol
	client *prio.Client
	encs   [][]uint64

	buildUS []float64
	upload  int // framed client→leader bytes of one submission
	relay   int // of those, what the leader must forward to the other servers
	kept    []builtSub
}

type builtSub struct {
	sub *prio.Submission
	enc int
}

// clientSetup is everything client_encode_mix builds before its window.
type clientSetup struct {
	shapes []*mixShape
	privs  []*sealbox.PrivateKey
	pubs   []*prio.ServerPublicKey
}

func setupClient(w *workload, seed int64) (*clientSetup, error) {
	privs, pubs, err := newKeys(w.servers)
	if err != nil {
		return nil, err
	}
	cs := &clientSetup{privs: privs, pubs: pubs}
	rng := rand.New(rand.NewSource(seed))
	for _, spec := range w.mix {
		scheme, pro, err := newProtocol(spec, w.servers)
		if err != nil {
			return nil, err
		}
		client, err := prio.NewClient(pro, pubs, nil)
		if err != nil {
			return nil, err
		}
		sh := &mixShape{name: mixMetric(spec), scheme: scheme, pro: pro, client: client}
		for i := 0; i < clientValues; i++ {
			enc, err := encodeSeeded(scheme, rng)
			if err != nil {
				return nil, err
			}
			sh.encs = append(sh.encs, enc)
		}
		// One build per shape, so the first measured build is not the one
		// that faults the code and the tables in.
		if _, err := client.BuildSubmission(sh.encs[0]); err != nil {
			return nil, err
		}
		cs.shapes = append(cs.shapes, sh)
	}
	return cs, nil
}

// clientPass is one measured window of client_encode_mix.
type clientPass struct {
	seconds  float64
	built    float64
	slices   sliceSeries
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	roundMS  []float64 // one round = one build of every shape
	problems []string
}

// buildLoop is the workload: one goroutine, BuildSubmission round-robin over
// the shapes, for the given time. tr, when non-nil, records a span per build.
func buildLoop(cs *clientSetup, seconds float64, tr *tracer) (*clientPass, error) {
	for _, sh := range cs.shapes {
		sh.buildUS, sh.kept = sh.buildUS[:0], sh.kept[:0]
	}
	p := &clientPass{}
	runtime.ReadMemStats(&p.mem0)
	t0 := clock()
	end := t0 + int64(seconds*1e9)
	p.slices = sliceSeries{{at: t0, cpu: cpuTime()}}
	for round := 0; ; round++ {
		r0 := clock()
		if r0 >= t0+clientSlice*int64(len(p.slices)) || r0 >= end {
			p.slices = append(p.slices, sliceEdge{at: r0, cpu: cpuTime(), ops: uint64(p.built)})
		}
		if r0 >= end {
			break
		}
		for si, sh := range cs.shapes {
			e := round % len(sh.encs)
			b0 := clock()
			sub, err := sh.client.BuildSubmission(sh.encs[e])
			b1 := clock()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sh.name, err)
			}
			sh.buildUS = append(sh.buildUS, float64(b1-b0)/1e3)
			if len(sh.kept) < clientKeep {
				sh.kept = append(sh.kept, builtSub{sub, e})
			} else {
				sh.kept[round%clientKeep] = builtSub{sub, e}
			}
			if tr != nil {
				tr.add(span{kind: spanBuild, n: int32(si), id: uint64(round), start: b0, end: b1})
			}
			p.built++
		}
		p.roundMS = append(p.roundMS, float64(clock()-r0)/1e6)
	}
	p.seconds = float64(clock()-t0) / 1e9
	runtime.ReadMemStats(&p.mem1)

	for _, sh := range cs.shapes {
		last := sh.kept[len(sh.kept)-1].sub
		sh.upload, sh.relay = uploadBytes(last), relayBytes(last)
		if msg := checkBuilt(cs, sh); msg != "" {
			p.problems = append(p.problems, sh.name+": "+msg)
		}
	}
	return p, nil
}

// checkBuilt hands a shape's kept submissions to servers holding the keys
// they were sealed to: every one must verify, and the servers' sum must be
// the sum of the encodings that went in.
func checkBuilt(cs *clientSetup, sh *mixShape) string {
	peers := make([]transport.Peer, len(cs.privs))
	var lead *prio.Server
	for i, priv := range cs.privs {
		srv, err := core.NewServer[field.F64, uint64](sh.pro, i, priv)
		if err != nil {
			return err.Error()
		}
		if i == 0 {
			lead = srv
		}
		peers[i] = &transport.LoopbackPeer{Handler: srv.Handler()}
	}
	leader, err := core.NewLeader(lead, peers)
	if err != nil {
		return err.Error()
	}
	subs := make([]*prio.Submission, len(sh.kept))
	f := prio.DefaultField()
	want := make([]uint64, sh.scheme.KPrime())
	for i, k := range sh.kept {
		subs[i] = k.sub
		for j := range want {
			want[j] = f.Add(want[j], sh.encs[k.enc][j])
		}
	}
	ok, err := leader.ProcessBatch(subs)
	if err != nil {
		return err.Error()
	}
	for i, accepted := range ok {
		if !accepted {
			return fmt.Sprintf("submission %d of %d was rejected", i, len(ok))
		}
	}
	agg, n, err := leader.Aggregate()
	if err != nil {
		return err.Error()
	}
	if n != uint64(len(subs)) || !slices.Equal(agg, want) {
		return fmt.Sprintf("servers hold %d submissions whose sum differs from the %d encodings built", n, len(subs))
	}
	return ""
}

// perShape averages fn over the mix's shapes.
func (cs *clientSetup) perShape(fn func(*mixShape) float64) float64 {
	var s float64
	for _, sh := range cs.shapes {
		s += fn(sh)
	}
	return s / float64(len(cs.shapes))
}

func endToEndClient(cs *clientSetup, p *clientPass, setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":        setupS,
		"subs_per_s":     p.slices.perSecond(),
		"cpu_ms_per_sub": p.slices.cpuMSPerOp(),
		// No server acks here: the latency a user of the client library
		// sees is one pass over the mix, a build of every shape.
		"ack_p50_ms":           steadyMedian(sampleBlock, p.roundMS),
		"upload_bytes_per_sub": cs.perShape(func(sh *mixShape) float64 { return float64(sh.upload) }),
		"server_bytes_per_sub": cs.perShape(func(sh *mixShape) float64 { return float64(sh.relay) }),
		// The mean over the shapes of each shape's median build (as
		// steadyMedian reads it): a median over the pooled builds would sit
		// on the gap between two shapes.
		"client_encode_us": cs.perShape(func(sh *mixShape) float64 { return steadyMedian(sampleBlock, sh.buildUS) }),
		"peak_rss_mb":      peakRSSMB(),
	}
}

func runClient(cfg *runConfig) (*result, error) {
	var (
		setupS []float64
		cs     *clientSetup // the first set-up: the one the window runs on
	)
	// A client set-up takes milliseconds, so it is repeated more often than
	// a deployment's; like those, before the window and after it.
	setUp := func(n int) error {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			c, err := setupClient(cfg.w, cfg.seed)
			if err != nil {
				return err
			}
			setupS = append(setupS, time.Since(t0).Seconds())
			if cs == nil {
				cs = c
			}
		}
		return nil
	}
	before := 8 * cfg.setups
	if cfg.trace {
		before = 1
	}
	if err := setUp(before); err != nil {
		return nil, err
	}
	runtime.GC()
	if _, err := buildLoop(cs, cfg.warmup, nil); err != nil {
		return nil, err
	}
	if !cfg.trace {
		p, err := buildLoop(cs, cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		if err := setUp(8 * cfg.lateSetups); err != nil {
			return nil, err
		}
		return clientResult(cfg, p, fill(endToEnd, endToEndClient(cs, p, lowQuarter(setupS)))), nil
	}

	// Traced: half the window untraced for the baseline rate, half traced.
	base, err := buildLoop(cs, cfg.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(nil)
	p, err := buildLoop(cs, cfg.seconds/2, tr)
	if err != nil {
		return nil, err
	}
	p.problems = append(p.problems, base.problems...)
	vals := map[string]float64{
		"ack_p99_ms":               quantile(p.roundMS, 0.99),
		"trace.overhead_frac":      1 - ratio(ratio(p.built, p.seconds), ratio(base.built, base.seconds)),
		"proc.allocs_per_sub":      ratio(float64(p.mem1.Mallocs-p.mem0.Mallocs), p.built),
		"proc.alloc_bytes_per_sub": ratio(float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc), p.built),
		"proc.gc_pause_ms_per_s":   ratio(float64(p.mem1.PauseTotalNs-p.mem0.PauseTotalNs)/1e6, p.seconds),
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for _, sh := range cs.shapes {
		vals["core.client.build_us."+sh.name] = quantile(sh.buildUS, 0.5)
		vals["core.client.upload_bytes."+sh.name] = float64(sh.upload)
		k, err := clientKernels(sh.scheme, sh.pro, cs.pubs, rng)
		if err != nil {
			return nil, err
		}
		for name, v := range k {
			vals[name] += v / float64(len(cs.shapes))
		}
	}
	n, err := tr.write(cfg.spans)
	if err != nil {
		return nil, err
	}
	cfg.notef("%d spans in %s", n, cfg.spans)
	return clientResult(cfg, p, fill(perLayer, vals)), nil
}

func clientResult(cfg *runConfig, p *clientPass, metrics map[string]metricValue) *result {
	cfg.notef("window %.2fs: %d built, %d rounds", p.seconds, int(p.built), len(p.roundMS))
	rate, cpu := p.slices.plain()
	cfg.notef("plain over the window: %.1f subs/s, %.4f cpu ms/sub, median round %.3f ms",
		rate, cpu, quantile(slices.Clone(p.roundMS), 0.5))
	for _, msg := range p.problems {
		cfg.notef("INCORRECT: %s", msg)
	}
	return &result{
		Correct:   len(p.problems) == 0,
		Attempted: int64(max(p.built, 1)),
		Failed:    0,
		Metrics:   metrics,
	}
}
