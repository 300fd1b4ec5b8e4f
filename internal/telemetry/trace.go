package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer samples 1-in-N submissions and follows each through the server
// as a sequence of named stage spans, keeping the most recent completed
// traces in a fixed ring. It is the attribution tool the aggregate
// histograms cannot be: when p99 spikes, a handful of full lifecycles
// shows whether the time went to queueing, verification, or peer RPC.
//
// Overhead: unsampled submissions pay one atomic increment; sampled ones
// (1 in Every) pay a small allocation and a clock read per stage. A nil
// *Tracer never samples.
type Tracer struct {
	every uint64
	n     uint64 // atomic arrival counter

	mu   sync.Mutex
	ring []*Trace
	pos  int
	len  int
}

// NewTracer samples one submission in every, keeping the last capacity
// completed traces. every <= 0 disables sampling entirely.
func NewTracer(every, capacity int) *Tracer {
	if every <= 0 {
		return nil
	}
	if capacity <= 0 {
		capacity = 256
	}
	return &Tracer{every: uint64(every), ring: make([]*Trace, capacity)}
}

// Sample returns a new live trace for 1-in-Every calls and nil otherwise.
// The caller threads the trace along the submission's path, marking
// boundaries with Stage and sealing it with Finish.
func (t *Tracer) Sample() *Trace {
	if t == nil {
		return nil
	}
	n := atomic.AddUint64(&t.n, 1)
	if n%t.every != 0 {
		return nil
	}
	return &Trace{t: t, ID: n, Begin: time.Now()}
}

// record commits a finished trace into the ring.
func (t *Tracer) record(tr *Trace) {
	t.mu.Lock()
	t.ring[t.pos] = tr
	t.pos = (t.pos + 1) % len(t.ring)
	if t.len < len(t.ring) {
		t.len++
	}
	t.mu.Unlock()
}

// Span is one completed stage of a trace, as offsets from the trace start.
type Span struct {
	Stage string `json:"stage"`
	AtNS  int64  `json:"at_ns"`
	DurNS int64  `json:"dur_ns"`
}

// Trace is one sampled submission's lifecycle. Stage/Finish are
// internally locked: stages hand off between goroutines (stream reader →
// intake pump → shard worker), and the lock's cost is irrelevant at the
// sampling rate. All methods are nil-safe so call sites need no
// branching.
type Trace struct {
	ID      uint64    `json:"id"`
	Begin   time.Time `json:"begin"`
	Outcome string    `json:"outcome"`
	Spans   []Span    `json:"spans"`

	t     *Tracer
	mu    sync.Mutex
	cur   string
	curAt time.Time
	done  bool
}

// Stage closes the current stage (if any) and opens a new one.
func (tr *Trace) Stage(name string) {
	if tr == nil {
		return
	}
	now := time.Now()
	tr.mu.Lock()
	tr.closeSpanLocked(now)
	tr.cur = name
	tr.curAt = now
	tr.mu.Unlock()
}

// closeSpanLocked seals the open stage at now. Callers hold tr.mu.
func (tr *Trace) closeSpanLocked(now time.Time) {
	if tr.cur == "" {
		return
	}
	tr.Spans = append(tr.Spans, Span{
		Stage: tr.cur,
		AtNS:  tr.curAt.Sub(tr.Begin).Nanoseconds(),
		DurNS: now.Sub(tr.curAt).Nanoseconds(),
	})
	tr.cur = ""
}

// Finish closes the open stage, records the outcome, and commits the
// trace to its tracer's ring. Finishing twice keeps the first outcome.
func (tr *Trace) Finish(outcome string) {
	if tr == nil {
		return
	}
	now := time.Now()
	tr.mu.Lock()
	if tr.done {
		tr.mu.Unlock()
		return
	}
	tr.done = true
	tr.closeSpanLocked(now)
	tr.Outcome = outcome
	tr.mu.Unlock()
	tr.t.record(tr)
}

// Snapshot returns the completed traces, oldest first.
func (t *Tracer) Snapshot() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, 0, t.len)
	start := t.pos - t.len
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.len; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// WriteJSON dumps the ring as a JSON array (the /debug/trace payload).
func (t *Tracer) WriteJSON(w io.Writer) error {
	traces := t.Snapshot()
	if traces == nil {
		traces = []*Trace{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(traces)
}
