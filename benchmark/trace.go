package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"prio/internal/core"
	"prio/internal/ingest"
	"prio/internal/transport"
)

// The traced run times every layer from outside, through seams the program
// already has: the generator edge, an ingest.Sink between the ingest server
// and the pipeline, a transport.Peer around every peer the leader calls and
// a transport.Handler around every server. Nothing inside the program is
// touched, so a span can say how long a call into a layer took but not what
// the layer did inside; that is the ROADMAP tracing item.

// epoch is the zero of every span timestamp.
var epoch = time.Now()

// clock is nanoseconds since epoch on the monotonic clock.
func clock() int64 { return int64(time.Since(epoch)) }

type spanKind uint8

const (
	spanSubmission spanKind = iota // generator: due (open) or Submit call (closed) → ack
	spanSubmit                     // generator: Submit call → return (credit wait + enqueue)
	spanSink                       // pipeline: Sink entry → decision callback
	spanCall                       // leader: Peer.Call → return, one peer
	spanHandle                     // server: Handler entry → return
	spanPublish                    // window: window end → OnPublish
	spanBuild                      // client_encode_mix: one Client.BuildSubmission
)

var msgNames = map[byte]string{
	core.MsgSetChallenge:  "set_challenge",
	core.MsgRound1:        "round1",
	core.MsgRound2:        "round2",
	core.MsgRound2Batch:   "round2_batch",
	core.MsgMPCRound:      "mpc_round",
	core.MsgFinish:        "finish",
	core.MsgAggregate:     "aggregate",
	core.MsgWindowPublish: "window_publish",
	core.MsgReset:         "reset",
	core.MsgPublicKey:     "public_key",
}

// span is one timed call. id is the submission (stream<<48 | sequence) for
// generator spans, the pool entry for sink spans, the batch for call and
// handle spans, the window for publish spans, the round for build spans.
type span struct {
	kind       spanKind
	msg        byte  // call/handle: message type
	peer       int8  // call/handle: server index
	n          int32 // round1 call/handle: submissions in the batch; sink: pool entry; build: shape
	id         uint64
	start, end int64
}

func (s *span) name() string {
	switch s.kind {
	case spanSubmission:
		return "gen.submission"
	case spanSubmit:
		return "ingest.submit"
	case spanSink:
		return "core.pipeline.decide"
	case spanCall:
		return "core.leader.call." + msgNames[s.msg]
	case spanHandle:
		return "core.server.handle." + msgNames[s.msg]
	case spanBuild:
		return "core.client.build." + mixNames[s.n]
	default:
		return "window.publish"
	}
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	byKey map[uint64]int32 // pool key → entry, to name the submission a sink call carries

	mu    sync.Mutex
	spans []span
}

func newTracer(byKey map[uint64]int32) *tracer {
	return &tracer{byKey: byKey, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// batchOf reads the batch ID (and, for Round1, the batch size) off the head
// of a verification-round request, per internal/core's wire layout. It must
// run before the call: the leader recycles request buffers afterwards.
func batchOf(msg byte, payload []byte) (id uint64, n int32) {
	switch msg {
	case core.MsgRound1:
		if len(payload) >= 16 {
			return binary.LittleEndian.Uint64(payload[4:]), int32(binary.LittleEndian.Uint32(payload[12:]))
		}
	case core.MsgRound2, core.MsgRound2Batch, core.MsgMPCRound:
		if len(payload) >= 12 {
			return binary.LittleEndian.Uint64(payload[4:]), 0
		}
	case core.MsgFinish, core.MsgWindowPublish:
		if len(payload) >= 8 {
			return binary.LittleEndian.Uint64(payload), 0
		}
	case core.MsgSetChallenge:
		if len(payload) >= 4 {
			return uint64(binary.LittleEndian.Uint32(payload)), 0
		}
	}
	return 0, 0
}

// tracedPeer times every call the leader makes to one server.
type tracedPeer struct {
	transport.Peer
	idx int8
	t   *tracer
}

func (p *tracedPeer) Call(msg byte, payload []byte) ([]byte, error) {
	id, n := batchOf(msg, payload)
	t0 := clock()
	resp, err := p.Peer.Call(msg, payload)
	p.t.add(span{kind: spanCall, msg: msg, peer: p.idx, n: n, id: id, start: t0, end: clock()})
	return resp, err
}

// wrapHandler times every request one server handles.
func (t *tracer) wrapHandler(idx int, h transport.Handler) transport.Handler {
	return func(msg byte, payload []byte) ([]byte, error) {
		id, n := batchOf(msg, payload)
		t0 := clock()
		resp, err := h(msg, payload)
		t.add(span{kind: spanHandle, msg: msg, peer: int8(idx), n: n, id: id, start: t0, end: clock()})
		return resp, err
	}
}

// tracedSink sits between the ingest server and the pipeline.
type tracedSink struct {
	sink ingest.Sink
	t    *tracer
}

func (s *tracedSink) wrap(sub *core.Submission, fn func(core.SubmitResult)) func(core.SubmitResult) {
	entry, ok := s.t.byKey[poolKey(sub)]
	if !ok {
		entry = -1
	}
	t0 := clock()
	return func(r core.SubmitResult) {
		s.t.add(span{kind: spanSink, n: entry, id: uint64(entry), start: t0, end: clock()})
		fn(r)
	}
}

func (s *tracedSink) SubmitFunc(sub *core.Submission, fn func(core.SubmitResult)) error {
	return s.sink.SubmitFunc(sub, s.wrap(sub, fn))
}

func (s *tracedSink) TrySubmitFunc(sub *core.Submission, fn func(core.SubmitResult)) (bool, error) {
	return s.sink.TrySubmitFunc(sub, s.wrap(sub, fn))
}

// spanRecord is one line of the span file.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Sub     string `json:"sub,omitempty"`   // submission: "<stream>.<sequence>"
	Entry   *int32 `json:"entry,omitempty"` // pool entry of the submission
	Batch   uint64 `json:"batch,omitempty"` // verification batch (or challenge, or window)
	Peer    *int8  `json:"peer,omitempty"`  // server index
	N       int32  `json:"n,omitempty"`     // submissions in the batch (round1)
}

// write stores the spans as JSON lines, oldest first. Parents are resolved
// here, not while the workload runs: a submit span hangs off its submission;
// a sink span off the oldest unclaimed submission of the same pool entry
// (two copies of one entry in flight at once may swap parents, which changes
// no metric: metrics use sums); a handler span off the leader call of the
// same server, message and batch. Which batch a submission rode in cannot be
// seen from outside the program, so call spans are roots. Returns the number
// of spans written.
func (t *tracer) write(path string) (int, error) {
	spans := t.snapshot()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	parent := make([]int, len(spans))
	subRoot := make(map[uint64]int)  // submission id → span
	byEntry := make(map[int32][]int) // pool entry → unclaimed submission spans, oldest first
	type callKey struct {
		msg  byte
		peer int8
		id   uint64
	}
	calls := make(map[callKey][]int)
	for i, s := range spans {
		switch s.kind {
		case spanSubmission:
			subRoot[s.id] = i + 1
			byEntry[s.n] = append(byEntry[s.n], i+1)
		case spanCall:
			k := callKey{s.msg, s.peer, s.id}
			calls[k] = append(calls[k], i+1)
		}
	}
	for i, s := range spans {
		switch s.kind {
		case spanSubmit:
			parent[i] = subRoot[s.id]
		case spanSink:
			if q := byEntry[s.n]; len(q) > 0 {
				parent[i], byEntry[s.n] = q[0], q[1:]
			}
		case spanHandle:
			k := callKey{s.msg, s.peer, s.id}
			if q := calls[k]; len(q) > 0 {
				parent[i], calls[k] = q[0], q[1:]
			}
		}
	}

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		s := &spans[i]
		rec := spanRecord{ID: i + 1, Parent: parent[i], Name: s.name(), StartNS: s.start, EndNS: s.end}
		switch s.kind {
		case spanSubmission, spanSubmit:
			rec.Sub = fmt.Sprintf("%d.%d", s.id>>48, s.id&(1<<48-1))
			if s.kind == spanSubmission {
				rec.Entry = &s.n
			}
		case spanSink:
			rec.Entry = &s.n
		case spanCall, spanHandle:
			rec.Batch, rec.Peer, rec.N = s.id, &s.peer, s.n
		case spanPublish, spanBuild:
			rec.Batch = s.id
		}
		if err := enc.Encode(&rec); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(spans), f.Close()
}
