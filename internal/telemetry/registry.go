package telemetry

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Label is one name=value dimension on a metric series.
type Label struct {
	Key, Value string
}

// Default is the process-wide registry: the binaries register their
// subsystems into it and the admin endpoint serves it. Libraries accept a
// *Registry in their configs so tests can isolate their counters; nil
// there usually means a private registry, not Default.
var Default = New()

// kind discriminates what a series holds.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

// promType renders the Prometheus TYPE line for a kind.
func (k kind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one labeled instance within a family.
type series struct {
	labels string // rendered {k="v",...}, or ""
	c      *Counter
	g      *Gauge
	cf     func() uint64
	gf     func() float64
	h      *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name, help string
	kind       kind
	series     []*series
	byLabel    map[string]*series
}

// Registry is a named collection of metrics. Get-or-create accessors make
// registration idempotent: asking twice for the same name and labels
// returns the same metric. All methods are safe for concurrent use;
// metric writes themselves never touch the registry lock.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// New builds an empty registry.
func New() *Registry { return &Registry{fams: make(map[string]*family)} }

// renderLabels produces the canonical {k="v",...} form, keys sorted, or
// "" for no labels.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the Prometheus label-value escapes.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup finds or creates the series for (name, labels) under the given
// kind, panicking on a kind clash — that is a programming error, not a
// runtime condition.
func (r *Registry) lookup(name, help string, k kind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.fams[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: k, byLabel: make(map[string]*series)}
		r.fams[name] = fam
	} else if fam.kind != k {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s",
			name, fam.kind.promType(), k.promType()))
	}
	key := renderLabels(labels)
	s := fam.byLabel[key]
	if s == nil {
		s = &series{labels: key}
		fam.byLabel[key] = s
		fam.series = append(fam.series, s)
	}
	return s
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.c == nil {
		s.c = NewCounter()
	}
	return s.c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.g == nil {
		s.g = NewGauge()
	}
	return s.g
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for subsystems that already keep their own atomic
// totals (transport.Stats, snip's evaluator cache). Re-registering the
// same name and labels keeps the first fn.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	s := r.lookup(name, help, kindCounterFunc, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.cf == nil {
		s.cf = fn
	}
}

// GaugeFunc registers a gauge read from fn at scrape time (queue depths,
// pool occupancy). Re-registering keeps the first fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, kindGaugeFunc, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gf == nil {
		s.gf = fn
	}
}

// Histogram returns the named histogram over raw values (batch sizes,
// byte counts), creating it on first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	s := r.lookup(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.h == nil {
		s.h = NewHistogram()
	}
	return s.h
}

// Duration returns the named duration histogram (recorded in
// nanoseconds, exported in seconds per Prometheus convention), creating
// it on first use. Name it *_seconds.
func (r *Registry) Duration(name, help string, labels ...Label) *DurationHistogram {
	s := r.lookup(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.h == nil {
		s.h = NewHistogram()
		s.h.scale = 1e-9
	}
	return &DurationHistogram{H: s.h}
}

// snapshotFamilies copies the families and their series under the lock so
// serialization runs without holding it (scrape-time funcs may take other
// locks). The copies are by value: a get-or-create racing the scrape fills
// in the registry's own series, never the ones being read.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		c := &family{name: f.name, help: f.help, kind: f.kind, series: make([]*series, len(f.series))}
		for i, s := range f.series {
			sc := *s
			c.series[i] = &sc
		}
		sort.Slice(c.series, func(i, j int) bool { return c.series[i].labels < c.series[j].labels })
		fams = append(fams, c)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// WritePrometheus serializes every metric in the text exposition format.
// Histograms coarsen to one cumulative le bucket per power-of-two octave
// (the full log-linear resolution stays available to in-process readers
// via Snapshot/Quantile).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, fam := range r.snapshotFamilies() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			fam.name, fam.help, fam.name, fam.kind.promType()); err != nil {
			return err
		}
		for _, s := range fam.series {
			var err error
			switch fam.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", fam.name, s.labels, s.c.Value())
			case kindCounterFunc:
				_, err = fmt.Fprintf(w, "%s%s %d\n", fam.name, s.labels, s.cf())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %g\n", fam.name, s.labels, s.g.Value())
			case kindGaugeFunc:
				_, err = fmt.Fprintf(w, "%s%s %g\n", fam.name, s.labels, s.gf())
			case kindHistogram:
				err = writePromHistogram(w, fam.name, s.labels, s.h)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHistogram emits cumulative octave buckets, _sum and _count.
func writePromHistogram(w io.Writer, name, labels string, h *Histogram) error {
	snap := h.Snapshot()
	scale := h.scale
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	le := func(bound string) string {
		if inner == "" {
			return fmt.Sprintf(`{le="%s"}`, bound)
		}
		return fmt.Sprintf(`{%s,le="%s"}`, inner, bound)
	}
	// Find the active octave range so an idle histogram stays one line.
	first, last := -1, -1
	for i, c := range snap.counts {
		if c != 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	var cum uint64
	if first >= 0 {
		fo, lo := first/histSub, last/histSub
		idx := 0
		for o := 0; o <= lo; o++ {
			end := (o + 1) * histSub // exclusive
			for ; idx < end; idx++ {
				cum += snap.counts[idx]
			}
			if o < fo {
				continue
			}
			bound := float64(bucketUpper(end-1)) * scale
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, le(fmt.Sprintf("%g", bound)), cum); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, le("+Inf"), snap.Count); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n",
		name, labels, float64(snap.Sum)*scale, name, labels, snap.Count)
	return err
}

// Snapshot renders the registry as a JSON-friendly map for expvar:
// counters and gauges as numbers, histograms as {count, sum, mean, p50,
// p95, p99, p999} objects in export units.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	for _, fam := range r.snapshotFamilies() {
		for _, s := range fam.series {
			key := fam.name + s.labels
			switch fam.kind {
			case kindCounter:
				out[key] = s.c.Value()
			case kindCounterFunc:
				out[key] = s.cf()
			case kindGauge:
				out[key] = s.g.Value()
			case kindGaugeFunc:
				out[key] = s.gf()
			case kindHistogram:
				snap := s.h.Snapshot()
				scale := s.h.scale
				out[key] = map[string]any{
					"count": snap.Count,
					"sum":   float64(snap.Sum) * scale,
					"mean":  snap.Mean() * scale,
					"p50":   float64(snap.Quantile(0.50)) * scale,
					"p95":   float64(snap.Quantile(0.95)) * scale,
					"p99":   float64(snap.Quantile(0.99)) * scale,
					"p999":  float64(snap.Quantile(0.999)) * scale,
				}
			}
		}
	}
	return out
}

// RegisterRuntimeMetrics adds the standard process gauges (goroutines,
// heap, GC cycles) to r. Idempotent.
func RegisterRuntimeMetrics(r *Registry) {
	r.GaugeFunc("go_goroutines", "number of live goroutines",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_mem_heap_alloc_bytes", "bytes of allocated heap objects",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	r.GaugeFunc("go_gc_cycles_total", "completed GC cycles",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.NumGC)
		})
}
