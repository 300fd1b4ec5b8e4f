package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric and its unit. The two tables below are the
// catalogue: BENCHMARK.json repeats them (the smoke test checks they agree)
// and every run emits exactly one of the two sets.
type metricDef struct{ name, unit string }

// endToEnd is emitted by an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"subs_per_s", "1/s"},
	{"cpu_ms_per_sub", "ms"},
	{"ack_p50_ms", "ms"},
	{"upload_bytes_per_sub", "B"},
	{"server_bytes_per_sub", "B"},
	{"client_encode_us", "us"},
	{"peak_rss_mb", "MB"},
}

// mixNames are the client_encode_mix shapes as they appear in metric names
// ('/' is not a legal name character, so countmin10/10 is countmin10-10).
var mixNames = []string{"sum8", "bits434", "linreg10x14", "countmin10-10"}

// perLayer is emitted by a traced run, on every workload. A metric that has
// no meaning on a workload (window.* without windows, everything
// server-side on client_encode_mix) reads 0 there.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, n := range mixNames {
		out = append(out, metricDef{"core.client.build_us." + n, "us"})
	}
	for _, n := range mixNames {
		out = append(out, metricDef{"core.client.upload_bytes." + n, "B"})
	}
	return append(out, []metricDef{
		{"afe.encode_us", "us"},
		{"snip.prove_us", "us"},
		{"share.split_us", "us"},
		{"sealbox.seal_us", "us"},

		{"ack_p99_ms", "ms"},
		{"ingest.submit_block_us", "us"},
		{"ingest.self_us", "us"},
		{"ingest.shed_frac", "frac"},
		{"ingest.wire_bytes_per_sub", "B"},
		{"gen.late_p99_ms", "ms"},

		{"core.pipeline.decision_us_p50", "us"},
		{"core.pipeline.decision_us_p99", "us"},
		{"core.pipeline.batch_size_mean", "count"},
		{"core.pipeline.refused_frac", "frac"},
		{"core.pipeline.queue_wait_us", "us"},

		{"core.leader.round1_call_us", "us"},
		{"core.leader.round2_call_us", "us"},
		{"core.leader.finish_call_us", "us"},
		{"core.leader.round2_probes_per_batch", "count"},
		{"core.leader.calls_per_sub", "count"},

		{"core.server.round1_us_per_sub", "us"},
		{"core.server.round2_us_per_sub", "us"},
		{"core.server.finish_us_per_sub", "us"},
		{"core.server.busy_frac", "frac"},

		{"transport.rounds.wire_us_per_call", "us"},
		{"transport.rounds.msgs_per_sub", "count"},
		{"transport.rounds.sent_bytes_per_sub", "B"},
		{"transport.rounds.recv_bytes_per_sub", "B"},
		{"transport.rtt_us", "us"},

		{"sealbox.open_us", "us"},
		{"share.expand_ns_per_elem", "ns"},
		{"snip.batch_round1_us_per_sub", "us"},
		{"snip.combined_us_per_sub", "us"},
		{"snip.evcache_hit_frac", "frac"},
		{"poly.ntt_us", "us"},
		{"poly.eval_weights_us", "us"},
		{"field.mul_slice_ns_per_elem", "ns"},
		{"field.dot_slice_ns_per_elem", "ns"},
		{"field.mulacc192_ns_per_elem", "ns"},

		{"window.publish_lag_ms", "ms"},
		{"window.checkpoint_save_ms", "ms"},

		{"proc.allocs_per_sub", "count"},
		{"proc.alloc_bytes_per_sub", "B"},
		{"proc.gc_pause_ms_per_s", "ms/s"},

		{"budget.unattributed_frac", "frac"},
		{"trace.overhead_frac", "frac"},
		{"failed_frac", "frac"},
	}...)
}()

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill turns measured values into the catalogue's metric set: every name in
// defs appears exactly once, absent or non-finite measurements read 0.
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

// mixMetric maps a scheme spec to its metric-name suffix.
func mixMetric(spec string) string { return strings.ReplaceAll(spec, "/", "-") }

// quantile returns the q-quantile of vals by nearest rank (0 for no samples).
// It sorts vals in place.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	i := int(math.Ceil(q*float64(len(vals)))) - 1
	return vals[min(max(i, 0), len(vals)-1)]
}

// The end-to-end timings are read with one family of estimators, all built
// for a shared host. Interference from outside the process comes in bursts
// of a fraction of a second to several seconds that slow everything they
// cover by up to 1.6 times, and the share of a run they cover drifts between
// none and well over half from one minute to the next. A mean or a median
// over the run follows that share: the driver's first check of this
// benchmark saw runs of one commit 30 % apart. So every series is cut into short pieces (slices of
// the window, blocks of consecutive samples), each piece gives one value, and
// the metric is the mean of the quarter of the pieces around the quartile on
// the good side: pieces ranked 1/8 to 3/8 from the best. Undisturbed pieces
// decide it as long as three eighths of the run are undisturbed, the best
// eighth is left out because a piece can also be lucky (a slice that counts a
// batch its neighbour verified), and a change to the program moves every
// piece. What the metric then says is how the program runs when the host
// leaves it alone, which is what a later commit is compared on.

// lowQuarter is that estimator for values where lower is better (0 for no
// samples). It sorts vals in place.
func lowQuarter(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	return mean(vals[n/8 : (3*n+7)/8])
}

// highQuarter is the same for values where higher is better.
func highQuarter(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	return mean(vals[n-(3*n+7)/8 : n-n/8])
}

// sampleBlock is how many consecutive samples of a series (ack latencies, the
// build loop's passes and builds) make one block. buildBlock is the same for
// a server workload's back-to-back builds of one shape: they take a quarter of
// the time a pass over the mix does, and a block is to span a tenth of a
// second or more, because the host also flips between faster and slower
// states every few tens of milliseconds, and a block's median should say
// which state is typical, not which state the block fell into.
const (
	sampleBlock = 64
	buildBlock  = 256
)

// steadyMedian reads series of timings, each given in the order it was
// measured: the median of every block of that many consecutive samples of
// one series, still the time of a typical operation, and lowQuarter of those
// medians. Series too short for a single block read as their plain median.
// It reorders the series.
func steadyMedian(block int, series ...[]float64) float64 {
	var meds, all []float64
	for _, vals := range series {
		all = append(all, vals...)
		for ; len(vals) >= block; vals = vals[block:] {
			meds = append(meds, quantile(vals[:block], 0.5))
		}
	}
	if len(meds) == 0 {
		return quantile(all, 0.5)
	}
	return lowQuarter(meds)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sliceEdge is the state at one edge of a slice of the measured window.
type sliceEdge struct {
	at  int64         // clock()
	cpu time.Duration // cpuTime()
	ops uint64        // submissions decided (or built) so far
}

// sliceSeries cuts the measured window into slices of sliceSeconds. Rate and
// CPU cost are reported from the slices on the good side (see lowQuarter),
// not as the window's mean. A slice holds a whole number of 16-submission
// batches, a few percent of its count on the slowest workload, so shorter
// slices would mostly measure where the batch edges fell.
type sliceSeries []sliceEdge

const sliceSeconds = 0.5

func sliceCount(seconds float64) int { return max(1, int(seconds/sliceSeconds+0.5)) }

// sliceWindow sleeps through a window of the given length and records an
// edge at its start, at every slice boundary and at its end.
func sliceWindow(seconds float64, ops func() uint64) sliceSeries {
	n := sliceCount(seconds)
	start := time.Now()
	out := sliceSeries{{at: clock(), cpu: cpuTime(), ops: ops()}}
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(seconds * float64(i) / float64(n) * float64(time.Second)))))
		out = append(out, sliceEdge{at: clock(), cpu: cpuTime(), ops: ops()})
	}
	return out
}

// each maps fn over the slices that did any work.
func (s sliceSeries) each(fn func(seconds, cpuMS, ops float64) float64) []float64 {
	var out []float64
	for i := 1; i < len(s); i++ {
		if ops := float64(s[i].ops - s[i-1].ops); ops > 0 {
			out = append(out, fn(float64(s[i].at-s[i-1].at)/1e9, float64(s[i].cpu-s[i-1].cpu)/1e6, ops))
		}
	}
	return out
}

func (s sliceSeries) perSecond() float64 {
	return highQuarter(s.each(func(seconds, _, ops float64) float64 { return ops / seconds }))
}

func (s sliceSeries) cpuMSPerOp() float64 {
	return lowQuarter(s.each(func(_, cpuMS, ops float64) float64 { return cpuMS / ops }))
}

// plain is the window's mean rate and CPU cost, printed beside the metrics:
// how far the metrics sit from it says how disturbed the run was.
func (s sliceSeries) plain() (perSecond, cpuMSPerOp float64) {
	first, last := s[0], s[len(s)-1]
	ops := float64(last.ops - first.ops)
	return ratio(ops, float64(last.at-first.at)/1e9), ratio(float64(last.cpu-first.cpu)/1e6, ops)
}
