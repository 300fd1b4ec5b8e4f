package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"prio"
)

// Run phases, as the ack path sees them.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseDrain
)

// ringSize bounds the per-stream table of un-acked submissions. A stream
// never has more in flight than its credit window, which the ingest server
// caps at 8×ingestCredits.
const ringSize = 1024

// inflight is what the generator remembers about one un-acked submission.
type inflight struct {
	entry int32
	start int64 // when the submission's latency clock started: due time (open loop) or Submit call
}

// tally counts ack outcomes. wrong is a decision that contradicts the pool
// entry's honesty bit.
type tally struct {
	accepted, rejected, shed, failed, wrong uint64
}

func (t *tally) add(o tally) {
	t.accepted += o.accepted
	t.rejected += o.rejected
	t.shed += o.shed
	t.failed += o.failed
	t.wrong += o.wrong
}

func (t tally) decided() uint64 { return t.accepted + t.rejected }
func (t tally) bad() uint64     { return t.shed + t.failed + t.wrong }

// loadStream is one ingest connection and the single goroutine that feeds
// it. Because only that goroutine calls Submit, the submitter's IDs are the
// submit sequence 1, 2, 3…, so the slot of a submission can be written
// before Submit is called and an ack can never overtake it.
type loadStream struct {
	idx   int
	sub   *prio.StreamSubmitter
	pool  *pool
	phase *atomic.Int32
	tr    *tracer

	ring [ringSize]inflight
	seq  uint64

	// Generator-side, read after the generator has stopped.
	submitted uint64    // lifetime Submit calls that were queued
	attempted uint64    // of those, the ones made inside the measured window
	blockUS   []float64 // traced: Submit call → return, inside the window
	lateMS    []float64 // open loop: Submit call − due time, inside the window
	err       error

	// Ack-side: written on the submitter's read goroutine, read after drain.
	acked    atomic.Uint64 // acks fully processed; the last write of onAck
	decided  atomic.Uint64 // lifetime accepted + rejected acks, read at slice edges
	life     tally
	win      tally
	accepted []uint64  // lifetime accepted acks per pool entry
	latMS    []float64 // ack latency of acks inside the window
}

func openStream(idx int, addr string, p *pool, phase *atomic.Int32, tr *tracer) (*loadStream, error) {
	s := &loadStream{idx: idx, pool: p, phase: phase, tr: tr, accepted: make([]uint64, len(p.subs))}
	sub, err := prio.OpenStream(addr, prio.SubmitterConfig{OnAck: s.onAck})
	if err != nil {
		return nil, err
	}
	s.sub = sub
	return s, nil
}

// submit sends pool entry e. due is when the open-loop schedule wanted it
// sent (0 in a closed loop, where latency runs from the Submit call).
func (s *loadStream) submit(e int, due int64) error {
	call := clock()
	start := call
	if due != 0 {
		start = due
	}
	seq := s.seq + 1
	s.ring[seq%ringSize] = inflight{entry: int32(e), start: start}
	measuring := s.phase.Load() == phaseMeasure
	id, err := s.sub.Submit(s.pool.subs[e])
	if err != nil {
		return err
	}
	if id != seq {
		return fmt.Errorf("stream %d: submit %d got ID %d", s.idx, seq, id)
	}
	s.seq = seq
	s.submitted++
	if !measuring {
		return nil
	}
	s.attempted++
	if due != 0 {
		s.lateMS = append(s.lateMS, float64(call-due)/1e6)
	}
	if s.tr != nil {
		ret := clock()
		s.blockUS = append(s.blockUS, float64(ret-call)/1e3)
		s.tr.add(span{kind: spanSubmit, id: uint64(s.idx)<<48 | seq, start: call, end: ret})
	}
	return nil
}

func (s *loadStream) onAck(a prio.Ack) {
	now := clock()
	slot := s.ring[a.ID%ringSize]
	var t tally
	switch a.Status {
	case prio.StatusAccepted:
		t.accepted = 1
		s.accepted[slot.entry]++
		if !s.pool.honest[slot.entry] {
			t.wrong = 1
		}
	case prio.StatusRejected:
		t.rejected = 1
		if s.pool.honest[slot.entry] {
			t.wrong = 1
		}
	case prio.StatusShed:
		t.shed = 1
	default:
		t.failed = 1
	}
	s.life.add(t)
	s.decided.Add(t.decided())
	if s.tr != nil {
		s.tr.add(span{kind: spanSubmission, n: slot.entry, id: uint64(s.idx)<<48 | a.ID, start: slot.start, end: now})
	}
	if s.phase.Load() == phaseMeasure {
		s.win.add(t)
		s.latMS = append(s.latMS, float64(now-slot.start)/1e6)
	}
	s.acked.Add(1)
}

// drain waits until every queued submission's ack has been processed.
// StreamSubmitter.Wait returns when the last ack is matched, which is just
// before its OnAck runs, so the ack-side counters are only safe to read once
// acked has caught up too.
func (s *loadStream) drain() error {
	if err := s.sub.Wait(); err != nil {
		return err
	}
	for s.acked.Load() < s.submitted {
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// runClosed keeps the stream's credit window full until stop.
func (s *loadStream) runClosed(stop *atomic.Bool, cursor int) {
	order := s.pool.order
	for !stop.Load() {
		if s.err = s.submit(order[cursor%len(order)], 0); s.err != nil {
			return
		}
		cursor++
	}
}

// runOpen sends on a Poisson schedule of the given rate, whatever the acks
// do; a full credit window makes it late, and lateness counts as latency.
func (s *loadStream) runOpen(stop *atomic.Bool, cursor int, rate float64, rng *rand.Rand) {
	order := s.pool.order
	due := clock()
	for {
		due += int64(rng.ExpFloat64() / rate * 1e9)
		if d := due - clock(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if stop.Load() {
			return
		}
		if s.err = s.submit(order[cursor%len(order)], due); s.err != nil {
			return
		}
		cursor++
	}
}

// load is the generator side of one deployment.
type load struct {
	w       *workload
	seed    int64
	order   []int
	streams []*loadStream
	phase   atomic.Int32
	stop    atomic.Bool
	wg      sync.WaitGroup
}

// openLoad is the last step of set-up: it opens the streams and pushes one
// submission through the whole path, which dials every rounds peer and
// installs the first challenge. Readiness is established by those dials, not
// by waiting.
func openLoad(d *deployment, seed int64, tr *tracer) (*load, error) {
	l := &load{w: d.prep.w, seed: seed, order: d.prep.pool.order}
	for i := 0; i < loadStreams; i++ {
		s, err := openStream(i, d.addr(), d.prep.pool, &l.phase, tr)
		if err != nil {
			l.closeStreams()
			return nil, err
		}
		l.streams = append(l.streams, s)
	}
	first := l.streams[0]
	if err := first.submit(d.prep.pool.order[0], 0); err != nil {
		l.closeStreams()
		return nil, err
	}
	if err := first.drain(); err != nil {
		l.closeStreams()
		return nil, err
	}
	if first.life.decided() != 1 || first.life.wrong != 0 {
		l.closeStreams()
		return nil, fmt.Errorf("first submission was not decided correctly: %+v", first.life)
	}
	return l, nil
}

// start launches one generator per stream, in the warm-up phase. closedLoop
// overrides an open-loop workload's schedule (capacity calibration).
func (l *load) start(closedLoop bool) {
	for i, s := range l.streams {
		cursor := 1 + i*len(l.order)/loadStreams
		l.wg.Add(1)
		if l.w.rate > 0 && !closedLoop {
			rng := rand.New(rand.NewSource(l.seed*1_000_003 + int64(i) + 1))
			go func(s *loadStream) { defer l.wg.Done(); s.runOpen(&l.stop, cursor, l.w.rate/loadStreams, rng) }(s)
		} else {
			go func(s *loadStream) { defer l.wg.Done(); s.runClosed(&l.stop, cursor) }(s)
		}
	}
}

// finish stops the generators and waits for every outstanding ack.
func (l *load) finish() error {
	l.phase.Store(phaseDrain)
	l.stop.Store(true)
	l.wg.Wait()
	var errs []error
	for _, s := range l.streams {
		if s.err != nil {
			errs = append(errs, fmt.Errorf("stream %d generator: %w", s.idx, s.err))
		}
		if err := s.drain(); err != nil {
			errs = append(errs, fmt.Errorf("stream %d drain: %w", s.idx, err))
		}
	}
	return errors.Join(errs...)
}

func (l *load) closeStreams() {
	for _, s := range l.streams {
		s.sub.Close()
	}
}

// decidedSoFar is how many submissions have been accepted or rejected on any
// stream; safe while the generators run.
func (l *load) decidedSoFar() uint64 {
	var n uint64
	for _, s := range l.streams {
		n += s.decided.Load()
	}
	return n
}

// totals merges the streams' counters (call after finish).
func (l *load) totals() (life, win tally, submitted, attempted uint64, accepted []uint64) {
	accepted = make([]uint64, len(l.streams[0].accepted))
	for _, s := range l.streams {
		life.add(s.life)
		win.add(s.win)
		submitted += s.submitted
		attempted += s.attempted
		for i, c := range s.accepted {
			accepted[i] += c
		}
	}
	return
}
