package core

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prio/internal/afe"
	"prio/internal/field"
	"prio/internal/telemetry"
	"prio/internal/transport"
)

// The shard scheduler under a slow link: every non-leader server answers
// through a slowPeer, so the rounds wait on the wire while the CPUs idle —
// the regime rounds_sum8_s5_wan measures.

// schedProbe is what the slow peers see of the pipeline under test. Its
// hooks are set before the first submit.
type schedProbe struct {
	inflight   *atomic.Int64 // the pipeline's verifying-batches gauge
	committing *atomic.Int64 // the pipeline's committing-batches gauge
	pinned     *atomic.Int64 // the pipeline's pinned-share-bytes gauge
	peak       atomic.Int64  // the highest inflight reading at any call
	peakCommit atomic.Int64  // the highest committing reading at any call
	peakOut    atomic.Int64  // the highest inflight + committing at any call
	peakPinned atomic.Int64  // the highest pinned reading at any call
	// finishDelay is slept before each MsgFinish on top of the peer's d.
	finishDelay time.Duration
	// fail, when set, may fail a call to server j instead of forwarding it.
	fail func(j int, msgType byte, payload []byte) error
	// loseReply, when set and true, fails a call to server j after the
	// server handled it: the request landed, its reply did not.
	loseReply func(j int, msgType byte) bool
}

// raise lifts peak to at least v.
func raise(peak *atomic.Int64, v int64) {
	for {
		m := peak.Load()
		if v <= m || peak.CompareAndSwap(m, v) {
			return
		}
	}
}

// slowPeer sleeps d before delegating each call to its LoopbackPeer.
type slowPeer struct {
	transport.Peer
	j     int
	d     time.Duration
	probe *schedProbe
}

func (p *slowPeer) Call(msgType byte, payload []byte) ([]byte, error) {
	if p.probe.inflight != nil {
		// Committing first: a batch leaves inflight before it enters
		// committing, so in this order one moving between the two loads is
		// missed rather than counted twice.
		c := p.probe.committing.Load()
		v := p.probe.inflight.Load()
		raise(&p.probe.peak, v)
		raise(&p.probe.peakCommit, c)
		raise(&p.probe.peakOut, v+c)
		raise(&p.probe.peakPinned, p.probe.pinned.Load())
	}
	d := p.d
	if msgType == MsgFinish {
		d += p.probe.finishDelay
	}
	time.Sleep(d)
	if p.probe.fail != nil {
		if err := p.probe.fail(p.j, msgType, payload); err != nil {
			return nil, err
		}
	}
	resp, err := p.Peer.Call(msgType, payload)
	if err == nil && p.probe.loseReply != nil && p.probe.loseReply(p.j, msgType) {
		return nil, errors.New("injected: reply lost")
	}
	return resp, err
}

// depthClamp is the ceiling on a shard's verifying batches the scheduler
// tests run at unless they test the ceiling itself.
const depthClamp = 4

// slowRig is a three-server cluster whose leader reaches servers 1 and 2
// through slowPeers. The leader's own slot stays a bare loopback, so its
// handler time is compute alone and the rounds' wall time is mostly sleep.
type slowRig struct {
	cl     *Cluster[field.F64, uint64]
	leader *Leader[field.F64, uint64]
	client *Client[field.F64, uint64]
	scheme *afe.Sum[field.F64, uint64] // nil on a newSchemeRig rig
	probe  *schedProbe
}

// newSlowRig is a sum8 slowRig.
func newSlowRig(t *testing.T, d time.Duration, challengeEvery int) *slowRig {
	t.Helper()
	scheme := afe.NewSum(field.NewF64(), 8)
	rig := newSchemeRig(t, scheme, d, challengeEvery)
	rig.scheme = scheme
	return rig
}

// newSchemeRig is a slowRig aggregating scheme.
func newSchemeRig(t *testing.T, scheme afe.Scheme[uint64], d time.Duration, challengeEvery int) *slowRig {
	t.Helper()
	f := field.NewF64()
	pro, err := NewProtocol(Config[field.F64, uint64]{
		Field: f, Scheme: scheme, Servers: 3, Mode: ModeSNIP, SnipReps: 1,
		ChallengeEvery: challengeEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewLocalCluster(pro)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(pro, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rig := &slowRig{cl: cl, client: client, probe: &schedProbe{}}
	rig.leader = leaderOn(t, cl, 0, func(j int, p transport.Peer) transport.Peer {
		if j == 0 {
			return p
		}
		return &slowPeer{Peer: p, j: j, d: d, probe: rig.probe}
	})
	return rig
}

// pipeline opens a pipeline on the rig with its shards' verifying batches
// clamped to maxDepth: 1 is the serial loop, 0 clamps nothing.
func (r *slowRig) pipeline(t *testing.T, cfg PipelineConfig, maxDepth int) *Pipeline[field.F64, uint64] {
	t.Helper()
	pl, err := NewPipeline(r.leader, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl.maxDepth = maxDepth
	r.probe.inflight = &pl.inflight
	r.probe.committing = &pl.committing
	r.probe.pinned = &pl.pinned
	r.probe.reset()
	return pl
}

// reset zeroes the peaks.
func (p *schedProbe) reset() {
	p.peak.Store(0)
	p.peakCommit.Store(0)
	p.peakOut.Store(0)
	p.peakPinned.Store(0)
}

// sameSubs is n references to one all-zero submission of a newSchemeRig
// rig's scheme: building one bits1024 proof per submission would dominate
// the tests, and the servers verify each reference afresh.
func sameSubs(t *testing.T, rig *slowRig, n int) []*Submission {
	t.Helper()
	sub, err := rig.client.BuildSubmission(make([]uint64, rig.client.pro.l))
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*Submission, n)
	for i := range subs {
		subs[i] = sub
	}
	return subs
}

// checkAccepted fails the test unless every submission was accepted and the
// servers counted all n.
func checkAccepted(t *testing.T, pl *Pipeline[field.F64, uint64], res []SubmitResult, n uint64) {
	t.Helper()
	for i, r := range res {
		if r.Err != nil || !r.Accepted {
			t.Fatalf("submission %d: %+v", i, r)
		}
	}
	if _, cnt, err := pl.Aggregate(); err != nil || cnt != n {
		t.Fatalf("aggregate count %d err %v, want %d", cnt, err, n)
	}
}

// submitAll queues subs, recording each decision at its index.
func submitAll(t *testing.T, pl *Pipeline[field.F64, uint64], subs []*Submission) []SubmitResult {
	t.Helper()
	res := make([]SubmitResult, len(subs))
	for i, sub := range subs {
		i := i
		if err := pl.SubmitFunc(sub, func(r SubmitResult) { res[i] = r }); err != nil {
			t.Fatal(err)
		}
	}
	return res
}

// TestSchedulerBacklogOverlapsBatches: with a backlog of full batches and a
// 2 ms link, one shard keeps more than one batch in flight and finishes in
// well under the serial loop's time.
func TestSchedulerBacklogOverlapsBatches(t *testing.T) {
	const n = 256
	run := func(maxDepth int) (time.Duration, int64) {
		rig := newSlowRig(t, 2*time.Millisecond, 0)
		const warm = n / 4
		subs := honestSubs(t, rig.client, rig.scheme, make([]uint64, n+warm)...)
		pl := rig.pipeline(t, PipelineConfig{Shards: 1, MaxBatch: 8, QueueDepth: n}, maxDepth)
		defer pl.Close()
		// Warm up: the session's depth is a running average that starts at
		// 1, and this test times the steady state, not the ramp.
		submitAll(t, pl, subs[n:])
		pl.Drain()
		subs = subs[:n]
		t0 := time.Now()
		res := submitAll(t, pl, subs)
		pl.Drain()
		wall := time.Since(t0)
		for i, r := range res {
			if r.Err != nil || !r.Accepted {
				t.Fatalf("depth %d: submission %d: %+v", maxDepth, i, r)
			}
		}
		if _, cnt, err := pl.Aggregate(); err != nil || cnt != n+warm {
			t.Fatalf("depth %d: aggregate count %d err %v", maxDepth, cnt, err)
		}
		return wall, rig.probe.peak.Load()
	}
	serial, serialPeak := run(1)
	overlapped, peak := run(depthClamp)
	t.Logf("serial %v (peak in flight %d), overlapped %v (peak %d)", serial, serialPeak, overlapped, peak)
	if serialPeak > 1 {
		t.Errorf("depth-1 pipeline had %d batches in flight", serialPeak)
	}
	if peak <= 1 {
		t.Errorf("backlogged shard never overlapped batches (peak in flight %d)", peak)
	}
	if overlapped >= serial*6/10 {
		t.Errorf("overlapped run took %v, want < 0.6 × serial %v", overlapped, serial)
	}
}

// TestSchedulerTrickleStaysSerial: one submission at a time never forms a
// full batch, so every batch is a singleton and nothing overlaps — exactly
// the serial loop's batches.
func TestSchedulerTrickleStaysSerial(t *testing.T) {
	const n = 24
	rig := newSlowRig(t, 2*time.Millisecond, 0)
	pl := rig.pipeline(t, PipelineConfig{Shards: 1, MaxBatch: 8}, depthClamp)
	defer pl.Close()
	for i, sub := range honestSubs(t, rig.client, rig.scheme, make([]uint64, n)...) {
		if ok, err := pl.SubmitWait(sub); err != nil || !ok {
			t.Fatalf("submission %d: ok=%v err=%v", i, ok, err)
		}
	}
	if st := pl.Stats(); st.Batches != n || st.Processed != n {
		t.Errorf("stats %+v: want %d singleton batches", st, n)
	}
	if peak := rig.probe.peak.Load(); peak > 1 {
		t.Errorf("trickle had %d batches in flight", peak)
	}
}

// TestSchedulerFastRotation: with ChallengeEvery = 2·MaxBatch every other
// batch rotates the challenge, and rotations land while batches are
// verifying; planted invalid submissions must still be decided exactly,
// none fail, and the servers' count matches the shard tallies.
func TestSchedulerFastRotation(t *testing.T) {
	const n, maxBatch = 256, 8
	rig := newSlowRig(t, 2*time.Millisecond, 2*maxBatch)
	subs, want, sum := mixedBatch(t, rig.client, rig.scheme, n)
	pl := rig.pipeline(t, PipelineConfig{Shards: 1, MaxBatch: maxBatch, QueueDepth: n}, depthClamp)
	defer pl.Close()
	res := submitAll(t, pl, subs)
	agg, cnt, err := pl.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	var wantCount uint64
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("submission %d failed: %v", i, r.Err)
		}
		if r.Accepted != want[i] {
			t.Errorf("submission %d: accepted=%v, honest=%v", i, r.Accepted, want[i])
		}
		if want[i] {
			wantCount++
		}
	}
	if st := pl.Stats(); st.Failed != 0 {
		t.Errorf("stats %+v: want 0 failed", st)
	}
	if cnt != wantCount || agg[0] != sum {
		t.Errorf("aggregate %d over %d, want %d over %d", agg[0], cnt, sum, wantCount)
	}
	t.Logf("peak in flight %d", rig.probe.peak.Load())
}

// TestRotationOvertakesHeldBatch: with one batch per challenge, batch A
// stalls in Round2 while B and then C each rotate the challenge past it.
// Servers keep no challenge state — A's seed rode in its own Round1 — so C
// completes without waiting for A, and A, once released, still decides
// every submission exactly.
func TestRotationOvertakesHeldBatch(t *testing.T) {
	const batch = 8
	rig := newSlowRig(t, 0, batch)
	held, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	var mu sync.Mutex
	seeds := map[string]bool{}
	rig.probe.fail = func(j int, msgType byte, payload []byte) error {
		if j == 1 && msgType == MsgRound1 {
			mu.Lock()
			seeds[string(payload[16:32])] = true
			mu.Unlock()
		}
		if j == 1 && msgType == MsgRound2Batch && calls.Add(1) == 1 {
			close(held)
			<-release
		}
		return nil
	}
	run := func(subs []*Submission) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := rig.leader.ProcessBatch(subs)
			done <- err
		}()
		return done
	}
	subsA, wantA, _ := mixedBatch(t, rig.client, rig.scheme, batch)
	var gotA []bool
	a := make(chan error, 1)
	go func() {
		var err error
		gotA, err = rig.leader.ProcessBatch(subsA)
		a <- err
	}()
	<-held
	for _, name := range []string{"B", "C"} {
		select {
		case err := <-run(honestSubs(t, rig.client, rig.scheme, make([]uint64, batch)...)):
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			close(release)
			t.Fatalf("%s waited for the held batch A", name)
		}
	}
	close(release)
	if err := <-a; err != nil {
		t.Fatalf("A: %v", err)
	}
	for i := range wantA {
		if gotA[i] != wantA[i] {
			t.Errorf("A, submission %d: accepted=%v, want %v", i, gotA[i], wantA[i])
		}
	}
	if len(seeds) != 3 {
		t.Errorf("A, B and C ran under %d distinct challenge seeds, want 3", len(seeds))
	}
}

// TestSchedulerShutdown: Quiesce and Close both wait out batches in flight,
// and no completion runs after Close returns.
func TestSchedulerShutdown(t *testing.T) {
	rig := newSlowRig(t, 2*time.Millisecond, 0)
	pl := rig.pipeline(t, PipelineConfig{Shards: 2, MaxBatch: 8, QueueDepth: 128}, depthClamp)
	checkShutdown(t, rig, pl, &pl.inflight)
}

// TestSchedulerShutdownDuringCommits: Quiesce and Close issued while
// batches commit — decided, out of the depth, MsgFinish still on the wire —
// return only after every completion has run, and no completion runs after
// Close returns.
func TestSchedulerShutdownDuringCommits(t *testing.T) {
	rig := newSlowRig(t, 0, 0)
	rig.probe.finishDelay = 5 * time.Millisecond
	pl := rig.pipeline(t, PipelineConfig{Shards: 2, MaxBatch: 8, QueueDepth: 128}, depthClamp)
	checkShutdown(t, rig, pl, &pl.committing)
}

// checkShutdown submits two rounds of 128 submissions to pl, issuing
// Quiesce and then Close each once busy reads nonzero, and checks that each
// returns only after every completion ran and no batch was left verifying or
// committing.
func checkShutdown(t *testing.T, rig *slowRig, pl *Pipeline[field.F64, uint64], busy *atomic.Int64) {
	const n = 128
	var decided atomic.Int64
	var closed atomic.Bool
	var late atomic.Int64
	submit := func(subs []*Submission) {
		for _, sub := range subs {
			if err := pl.SubmitFunc(sub, func(SubmitResult) {
				if closed.Load() {
					late.Add(1)
				}
				decided.Add(1)
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitBusy := func() {
		for deadline := time.Now().Add(5 * time.Second); busy.Load() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("no batch ever in flight")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	submit(honestSubs(t, rig.client, rig.scheme, make([]uint64, n)...))
	waitBusy()
	pl.Quiesce(func() {
		if got := decided.Load(); got != n {
			t.Errorf("Quiesce ran with %d of %d decided", got, n)
		}
		if in, c := pl.inflight.Load(), pl.committing.Load(); in != 0 || c != 0 {
			t.Errorf("Quiesce ran with %d batches verifying, %d committing", in, c)
		}
	})

	submit(honestSubs(t, rig.client, rig.scheme, make([]uint64, n)...))
	waitBusy()
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	closed.Store(true)
	if got := decided.Load(); got != 2*n {
		t.Errorf("Close returned with %d of %d decided", got, 2*n)
	}
	time.Sleep(20 * time.Millisecond)
	if l := late.Load(); l != 0 {
		t.Errorf("%d completions ran after Close returned", l)
	}
}

// TestSchedulerRetriesSeveredPeer: server 2's link drops Round1 and Round2
// calls while more than one batch is in flight; every batch it hits is
// re-run under a fresh batch ID, nothing fails, no server keeps batch state,
// and the ledger closes.
func TestSchedulerRetriesSeveredPeer(t *testing.T) {
	const n = 192
	rig := newSlowRig(t, 2*time.Millisecond, 0)
	var (
		mu       sync.Mutex
		round1   = map[uint64]int{} // batch ID → Round1 calls seen by server 1
		severed  atomic.Bool
		failures atomic.Int64
	)
	rig.probe.fail = func(j int, msgType byte, payload []byte) error {
		if j == 1 && msgType == MsgRound1 {
			mu.Lock()
			round1[binary.LittleEndian.Uint64(payload[4:12])]++
			mu.Unlock()
		}
		if j != 2 || (msgType != MsgRound1 && msgType != MsgRound2Batch) {
			return nil
		}
		if !severed.Load() && rig.probe.inflight.Load() > 1 {
			severed.Store(true)
		}
		if severed.Load() && failures.Add(1) <= 3 {
			return errors.New("injected: link to server 2 severed")
		}
		return nil
	}
	pl := rig.pipeline(t, PipelineConfig{Shards: 1, MaxBatch: 8, QueueDepth: n, Retries: 2, RetryBackoff: time.Millisecond}, depthClamp)
	defer pl.Close()
	res := submitAll(t, pl, honestSubs(t, rig.client, rig.scheme, make([]uint64, n)...))
	_, cnt, err := pl.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	if !severed.Load() || st.FailedOver == 0 {
		t.Fatalf("the link was never severed at depth > 1 (stats %+v)", st)
	}
	if st.Failed != 0 || st.Processed != n || st.Accepted != n || cnt != n {
		t.Errorf("ledger open: stats %+v, servers counted %d of %d", st, cnt, n)
	}
	for i, r := range res {
		if r.Err != nil || !r.Accepted {
			t.Fatalf("submission %d: %+v", i, r)
		}
	}
	mu.Lock()
	for id, calls := range round1 {
		if calls != 1 {
			t.Errorf("batch ID %#x ran Round1 %d times; a re-run must take a fresh ID", id, calls)
		}
	}
	if attempts := uint64(len(round1)); attempts != st.Batches+st.FailedOver {
		t.Errorf("%d batch IDs for %d batches + %d re-runs", attempts, st.Batches, st.FailedOver)
	}
	mu.Unlock()
	for i, srv := range rig.cl.Servers {
		srv.mu.Lock()
		leaked := len(srv.batches)
		srv.mu.Unlock()
		if leaked != 0 {
			t.Errorf("server %d holds %d batch states", i, leaked)
		}
	}
}

// TestSchedulerCommitsLeaveTheSlot: behind a link that delays only MsgFinish,
// a depth-1 shard verifies its next batch while earlier ones commit, so 32
// batches take well under the time of the serial verify-then-commit loop
// (ProcessBatch back to back, each paying its commit); verifying batches
// never exceed the depth, while committing batches ride beside them.
func TestSchedulerCommitsLeaveTheSlot(t *testing.T) {
	const batches, maxBatch = 32, 8
	const finishDelay = 10 * time.Millisecond
	newRig := func() *slowRig {
		rig := newSlowRig(t, 0, 0)
		rig.probe.finishDelay = finishDelay
		return rig
	}

	serialRig := newRig()
	subs := honestSubs(t, serialRig.client, serialRig.scheme, make([]uint64, batches*maxBatch)...)
	t0 := time.Now()
	for k := 0; k < batches; k++ {
		if _, err := serialRig.leader.ProcessBatch(subs[k*maxBatch : (k+1)*maxBatch]); err != nil {
			t.Fatal(err)
		}
	}
	serial := time.Since(t0)

	rig := newRig()
	subs = honestSubs(t, rig.client, rig.scheme, make([]uint64, batches*maxBatch)...)
	pl := rig.pipeline(t, PipelineConfig{Shards: 1, MaxBatch: maxBatch, QueueDepth: len(subs)}, 1)
	defer pl.Close()
	t0 = time.Now()
	res := submitAll(t, pl, subs)
	pl.Drain()
	piped := time.Since(t0)
	for i, r := range res {
		if r.Err != nil || !r.Accepted {
			t.Fatalf("submission %d: %+v", i, r)
		}
	}
	if _, cnt, err := pl.Aggregate(); err != nil || cnt != uint64(len(subs)) {
		t.Fatalf("aggregate count %d err %v", cnt, err)
	}
	peak, peakCommit, peakOut := rig.probe.peak.Load(), rig.probe.peakCommit.Load(), rig.probe.peakOut.Load()
	t.Logf("serial loop %v, pipeline at depth 1 %v; peak verifying %d, committing %d, both %d",
		serial, piped, peak, peakCommit, peakOut)
	if piped > serial*8/10 {
		t.Errorf("pipeline took %v, want ≤ 0.8 × the serial loop's %v", piped, serial)
	}
	if peak > 1 {
		t.Errorf("%d batches verifying at depth 1", peak)
	}
	if peakCommit == 0 || peakOut <= 1 {
		t.Errorf("commits never overlapped verification (peak committing %d, verifying + committing %d)", peakCommit, peakOut)
	}
}

// TestSchedulerPartialQueueWaitsForCommit: a committing batch still keeps
// its shard busy, so a partial queue that arrives during the commit leaves
// as one batch once the commit is done, not as soon as the batch is decided
// — an under-loaded shard forms the batches the serial loop formed.
func TestSchedulerPartialQueueWaitsForCommit(t *testing.T) {
	rig := newSlowRig(t, 0, 0)
	rig.probe.finishDelay = 30 * time.Millisecond
	var round1 atomic.Int64 // Round1 calls to server 1: one per batch
	rig.probe.fail = func(j int, msgType byte, _ []byte) error {
		if j == 1 && msgType == MsgRound1 {
			round1.Add(1)
		}
		return nil
	}
	pl := rig.pipeline(t, PipelineConfig{Shards: 1, MaxBatch: 8}, depthClamp)
	defer pl.Close()
	subs := honestSubs(t, rig.client, rig.scheme, 1, 2, 3, 4)
	var atFirst atomic.Int64
	atFirst.Store(-1)
	if err := pl.SubmitFunc(subs[0], func(SubmitResult) { atFirst.Store(round1.Load()) }); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); pl.committing.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the first batch never committed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	res := submitAll(t, pl, subs[1:])
	if pl.committing.Load() == 0 {
		t.Fatal("the commit ended before the partial queue arrived")
	}
	pl.Drain()
	for i, r := range res {
		if r.Err != nil || !r.Accepted {
			t.Fatalf("submission %d: %+v", i+1, r)
		}
	}
	if got := atFirst.Load(); got != 1 {
		t.Errorf("%d batches had started Round1 when the first batch completed, want 1", got)
	}
	if st := pl.Stats(); st.Batches != 2 || round1.Load() != 2 {
		t.Errorf("stats %+v, %d Round1 calls: want the partial queue as one batch", st, round1.Load())
	}
}

// TestSchedulerWindowStampSurvivesCommit: a window boundary that falls while
// a batch's commit is on the wire — even one the commit is re-sent across —
// files the batch under the window it was stamped with, on every server.
func TestSchedulerWindowStampSurvivesCommit(t *testing.T) {
	const n = 8
	rig := newSlowRig(t, 0, 0)
	var win atomic.Uint64
	win.Store(1)
	rig.cl.Servers[0].SetWindowFunc(win.Load)
	var dropped atomic.Bool
	rig.probe.fail = func(j int, msgType byte, _ []byte) error {
		if msgType != MsgFinish {
			return nil
		}
		win.Store(2)
		if j == 2 && dropped.CompareAndSwap(false, true) {
			return errors.New("injected: commit to server 2 lost")
		}
		return nil
	}
	pl := rig.pipeline(t, PipelineConfig{Shards: 1, MaxBatch: 8, Retries: 1, RetryBackoff: time.Millisecond}, depthClamp)
	defer pl.Close()
	res := submitAll(t, pl, honestSubs(t, rig.client, rig.scheme, make([]uint64, n)...))
	pl.Drain()
	for i, r := range res {
		if r.Err != nil || !r.Accepted {
			t.Fatalf("submission %d: %+v", i, r)
		}
	}
	counts := func(srv *Server[field.F64, uint64]) map[uint64]uint64 {
		out := map[uint64]uint64{}
		for _, w := range srv.AccState().Windows {
			out[w.ID] = w.Count
		}
		return out
	}
	want := counts(rig.cl.Servers[0])
	if want[1] == 0 || want[1]+want[2] != n {
		t.Errorf("server 0 windows %v: want the first batch in window 1 and all %d filed", want, n)
	}
	for i, srv := range rig.cl.Servers[1:] {
		if got := counts(srv); got[1] != want[1] || got[2] != want[2] {
			t.Errorf("server %d windows %v, server 0 %v", i+1, got, want)
		}
	}
}

// TestSchedulerCommitRetry: a commit that fails toward server 2 is re-sent
// to server 2 alone under the same batch ID — never re-verified — so every
// server counts each submission once, whether the request or only its reply
// was lost; a commit lost for good fails its submissions.
func TestSchedulerCommitRetry(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name    string
		reply   bool // lose the reply after server 2 applied the commit
		forever bool // lose every commit to server 2
	}{
		{name: "request lost"},
		{name: "reply lost", reply: true},
		{name: "lost for good", forever: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newSlowRig(t, 0, 0)
			var dropped, round1 atomic.Int64
			var finishes [3]atomic.Int64 // MsgFinish calls per server
			drop := func(j int, msgType byte) bool {
				return j == 2 && msgType == MsgFinish && (tc.forever || dropped.Add(1) == 1)
			}
			rig.probe.fail = func(j int, msgType byte, _ []byte) error {
				if j == 1 && msgType == MsgRound1 {
					round1.Add(1)
				}
				if msgType == MsgFinish {
					finishes[j].Add(1)
				}
				if !tc.reply && drop(j, msgType) {
					return errors.New("injected: commit to server 2 lost")
				}
				return nil
			}
			if tc.reply {
				rig.probe.loseReply = drop
			}
			reg := telemetry.New()
			const retries = 2
			pl := rig.pipeline(t, PipelineConfig{Shards: 1, MaxBatch: 8, Retries: retries, RetryBackoff: time.Millisecond, Registry: reg}, depthClamp)
			defer pl.Close()
			res := submitAll(t, pl, honestSubs(t, rig.client, rig.scheme, make([]uint64, n)...))
			pl.Drain()
			st := pl.Stats()
			if st.FailedOver != 0 || uint64(round1.Load()) != st.Batches {
				t.Errorf("stats %+v with %d Round1 calls: a commit failure must not re-verify", st, round1.Load())
			}
			var counts []uint64
			for _, srv := range rig.cl.Servers {
				srv.mu.Lock()
				counts = append(counts, srv.accCount)
				srv.mu.Unlock()
			}
			if tc.forever {
				for i, r := range res {
					if r.Err == nil {
						t.Errorf("submission %d decided without its commit: %+v", i, r)
					}
				}
				if st.Failed != n || counts[0] != n || counts[2] != 0 {
					t.Errorf("stats %+v, server counts %v: want %d failed, applied everywhere but server 2", st, counts, n)
				}
				if got := reg.Snapshot()["prio_verify_commit_retries_total"].(uint64); got != retries*st.Batches {
					t.Errorf("commit retries = %d, want %d per batch", got, retries)
				}
				return
			}
			for i, r := range res {
				if r.Err != nil || !r.Accepted {
					t.Fatalf("submission %d: %+v", i, r)
				}
			}
			if _, cnt, err := pl.Aggregate(); err != nil || cnt != n {
				t.Errorf("aggregate count %d err %v", cnt, err)
			}
			for i, c := range counts {
				if c != n {
					t.Errorf("server counts %v: server %d counted %d of %d", counts, i, c, n)
				}
			}
			if f1, f2 := uint64(finishes[1].Load()), uint64(finishes[2].Load()); f1 != st.Batches || f2 != st.Batches+1 {
				t.Errorf("%d batches sent %d commits to server 1 and %d to server 2: want the re-send to server 2 alone", st.Batches, f1, f2)
			}
			if got := reg.Snapshot()["prio_verify_commit_retries_total"].(uint64); got != 1 {
				t.Errorf("commit retries = %d, want 1", got)
			}
			for i, srv := range rig.cl.Servers {
				srv.mu.Lock()
				leaked := len(srv.batches)
				srv.mu.Unlock()
				if leaked != 0 {
					t.Errorf("server %d holds %d batch states", i, leaked)
				}
			}
		})
	}
}

// seedDepth makes every session's governor read v, as if earlier batches had
// measured it, so a test checks the admission
// rules at that governor reading rather than at whatever the host's timing
// would warm it to.
func seedDepth(pl *Pipeline[field.F64, uint64], v float64) {
	for _, sess := range pl.sessions {
		// Averages of v seconds of wall time per second of the leader's own
		// work, all idle: real batches, whose rounds take milliseconds,
		// barely move them.
		sess.gov.wall, sess.gov.self, sess.gov.idle = v, 1, 1
		sess.overlap.Store(math.Float64bits(v))
	}
}

// TestSchedulerDepthBeyondFour: on a sum8 shard whose governor reads deep,
// as on a 2 ms link with idle CPUs, a backlog keeps more than four batches
// in verification — a sum8 batch is charged a sliver of the budget — and no
// more than the budget holds, whatever ChallengeEvery is: a rotation no
// longer waits on verifying batches, so it bounds nothing.
func TestSchedulerDepthBeyondFour(t *testing.T) {
	const n, maxBatch, challengeEvery = 512, 8, 16 * 8
	rig := newSlowRig(t, 2*time.Millisecond, challengeEvery)
	subs := honestSubs(t, rig.client, rig.scheme, make([]uint64, n)...)
	pl := rig.pipeline(t, PipelineConfig{Shards: 1, MaxBatch: maxBatch, QueueDepth: n}, 0)
	defer pl.Close()
	if got, want := pl.sessions[0].depthCap, int(pl.budget/pl.fullCharge); got != want {
		t.Fatalf("depth cap %d, want the %d full batches the budget holds", got, want)
	}
	seedDepth(pl, 64)
	res := submitAll(t, pl, subs)
	pl.Drain()
	checkAccepted(t, pl, res, n)
	peak := rig.probe.peak.Load()
	t.Logf("peak verifying %d, depth target %d, peak pinned %d B", peak, pl.sessions[0].overlapDepth(), rig.probe.peakPinned.Load())
	if peak <= 4 {
		t.Errorf("peak verifying %d: the backlog never went deeper than four batches", peak)
	}
	if peak > int64(pl.sessions[0].depthCap) {
		t.Errorf("peak verifying %d, the budget holds %d", peak, pl.sessions[0].depthCap)
	}
}

// TestSchedulerDepthBeyondEight: a sum8 shard behind sleeping peers, its
// governor reading deep as it does with idle CPUs, keeps more than eight
// batches in verification — no fixed ceiling holds it — while the bytes
// its batches are charged stay within the pipeline's budget and are all
// returned once it drains.
func TestSchedulerDepthBeyondEight(t *testing.T) {
	const n, maxBatch = 1024, 8
	rig := newSlowRig(t, 2*time.Millisecond, 0)
	subs := honestSubs(t, rig.client, rig.scheme, make([]uint64, n)...)
	pl := rig.pipeline(t, PipelineConfig{Shards: 1, MaxBatch: maxBatch, QueueDepth: n}, 0)
	defer pl.Close()
	seedDepth(pl, 64)
	res := submitAll(t, pl, subs)
	pl.Drain()
	checkAccepted(t, pl, res, n)
	peak, peakPinned := rig.probe.peak.Load(), rig.probe.peakPinned.Load()
	t.Logf("peak verifying %d, peak pinned %d B of a %d B budget", peak, peakPinned, pl.budget)
	if peak <= 8 {
		t.Errorf("peak verifying %d: the shard never went deeper than eight batches", peak)
	}
	if peakPinned > pl.budget {
		t.Errorf("%d B pinned, budget %d B", peakPinned, pl.budget)
	}
	if pl.pinned.Load() != 0 {
		t.Errorf("%d B still pinned after the drain", pl.pinned.Load())
	}
}

// TestSchedulerBits1024CommitOverlap: a bits1024 shard on saturated CPUs
// (governor at 1) keeps one batch verifying while the one before it
// commits behind a slow MsgFinish: the budget admits one verifying and one
// committing full batch per shard.
func TestSchedulerBits1024CommitOverlap(t *testing.T) {
	const batches, maxBatch = 6, 16
	rig := newSchemeRig(t, afe.NewBitVector(field.NewF64(), 1024), time.Millisecond, 0)
	rig.probe.finishDelay = 30 * time.Millisecond
	subs := sameSubs(t, rig, batches*maxBatch)
	pl := rig.pipeline(t, PipelineConfig{Shards: 1, MaxBatch: maxBatch, QueueDepth: len(subs)}, 0)
	defer pl.Close()
	if pl.budget < 2*int64(pl.cfg.Shards)*pl.fullCharge {
		t.Fatalf("budget %d B holds fewer than two %d B batches per shard", pl.budget, pl.fullCharge)
	}
	res := submitAll(t, pl, subs)
	pl.Drain()
	checkAccepted(t, pl, res, uint64(len(subs)))
	t.Logf("peak verifying %d, committing %d, both %d; dispatch waits: depth %d, budget %d",
		rig.probe.peak.Load(), rig.probe.peakCommit.Load(), rig.probe.peakOut.Load(), pl.m.waitDepth.Value(), pl.m.waitBudget.Value())
	if rig.probe.peakCommit.Load() < 1 || rig.probe.peakOut.Load() < 2 {
		t.Errorf("peak committing %d, out %d: no batch verified while another committed", rig.probe.peakCommit.Load(), rig.probe.peakOut.Load())
	}
}

// TestEvCacheManyShards: a pipeline of 40 shards, all drawing from one
// queue, builds each session's challenge once: the cache keeps seeds per
// session, so the sessions do not evict each other. Every Round1 on every server and every leader
// decision looks its seed up, and all but the first lookup of each seed
// hit; the hit fraction is the snip.evcache_hit_frac the repository
// benchmark reports. Each shard verifies one batch at a time, so a shard
// with a batch out takes no more and the work spreads across sessions
// however busy the host is.
func TestEvCacheManyShards(t *testing.T) {
	const shards, maxBatch, n = 40, 8, 40 * 8 * 8
	rig := newSlowRig(t, time.Millisecond, 0)
	var mu sync.Mutex
	seeds := map[string]bool{}
	rig.probe.fail = func(j int, msgType byte, payload []byte) error {
		if j == 1 && msgType == MsgRound1 {
			mu.Lock()
			seeds[string(payload[16:32])] = true
			mu.Unlock()
		}
		return nil
	}
	sys := rig.leader.pro.ValidSys
	hits0, misses0 := sys.EvCacheStats()
	pl := rig.pipeline(t, PipelineConfig{Shards: shards, MaxBatch: maxBatch, QueueDepth: n}, 1)
	defer pl.Close()
	res := submitAll(t, pl, sameSubs(t, rig, n))
	pl.Drain()
	checkAccepted(t, pl, res, n)
	hits, misses := sys.EvCacheStats()
	hits, misses = hits-hits0, misses-misses0
	t.Logf("%d batches under %d seeds: %d hits, %d misses, hit fraction %.3f",
		pl.Stats().Batches, len(seeds), hits, misses, float64(hits)/float64(hits+misses))
	if len(seeds) <= 32 {
		t.Fatalf("only %d sessions verified a batch, want more than 32", len(seeds))
	}
	if misses != uint64(len(seeds)) {
		t.Errorf("%d evaluator builds for %d challenge seeds, want one each", misses, len(seeds))
	}
}

// TestSchedulerShareBudget: a bits1024 batch of 16 is charged about 2 MB,
// so one shard's budget holds a handful. Behind a link that holds every
// commit for 300 ms, decided batches would pile up in their commits; the
// budget counts them, so verifying plus committing never exceeds what it
// holds, the charged bytes never exceed it, and the passes it held a full
// batch back are counted under limit="budget".
func TestSchedulerShareBudget(t *testing.T) {
	const batches, maxBatch = 10, 16
	rig := newSchemeRig(t, afe.NewBitVector(field.NewF64(), 1024), time.Millisecond, 0)
	rig.probe.finishDelay = 300 * time.Millisecond
	if got := rig.leader.pro.shareBytes(); got != 4102*8 {
		t.Fatalf("bits1024 share slab %d B, want 4,102 elements (one repetition) of 8 B", got)
	}
	subs := sameSubs(t, rig, batches*maxBatch)
	pl := rig.pipeline(t, PipelineConfig{Shards: 1, MaxBatch: maxBatch, QueueDepth: len(subs)}, 0)
	defer pl.Close()
	seedDepth(pl, 64)
	res := submitAll(t, pl, subs)
	pl.Drain()
	checkAccepted(t, pl, res, uint64(len(subs)))
	peakOut, peakPinned := rig.probe.peakOut.Load(), rig.probe.peakPinned.Load()
	t.Logf("peak verifying %d, committing %d, both %d; peak pinned %d B of %d B; budget waits %d",
		rig.probe.peak.Load(), rig.probe.peakCommit.Load(), peakOut, peakPinned, pl.budget, pl.m.waitBudget.Value())
	// Every batch here is full and charged exactly fullCharge, so the pinned
	// bytes, one atomic, count the batches out exactly. The probe's
	// verifying + committing reads two gauges at two instants, which can
	// straddle one batch's completion and the next one's dispatch.
	if out, limit := peakPinned/pl.fullCharge, pl.budget/pl.fullCharge; out > limit {
		t.Errorf("%d batches verifying or committing, the budget admits %d", out, limit)
	}
	if peakPinned > pl.budget {
		t.Errorf("%d B pinned, budget %d B", peakPinned, pl.budget)
	}
	if pl.m.waitBudget.Value() == 0 {
		t.Error("no dispatch wait was counted under the budget")
	}
	if pl.pinned.Load() != 0 {
		t.Errorf("%d B still pinned after the drain", pl.pinned.Load())
	}
}

// TestSchedulerBudgetAfterWarmup: a bits1024 shard whose governor reads
// deep, as after a warm-up on idle CPUs, takes a backlog of full batches at
// once behind a 20 ms link. It dispatches more than one batch, but its
// verifying and committing batches never pass the budget.
func TestSchedulerBudgetAfterWarmup(t *testing.T) {
	const batches, maxBatch = 8, 16
	rig := newSchemeRig(t, afe.NewBitVector(field.NewF64(), 1024), 20*time.Millisecond, 0)
	subs := sameSubs(t, rig, batches*maxBatch)
	pl := rig.pipeline(t, PipelineConfig{Shards: 1, MaxBatch: maxBatch, QueueDepth: len(subs)}, 0)
	defer pl.Close()
	seedDepth(pl, 64)
	res := submitAll(t, pl, subs)
	pl.Drain()
	checkAccepted(t, pl, res, uint64(len(subs)))
	peak, peakOut, peakPinned := rig.probe.peak.Load(), rig.probe.peakOut.Load(), rig.probe.peakPinned.Load()
	t.Logf("peak verifying %d, verifying + committing %d; peak pinned %d B", peak, peakOut, peakPinned)
	if peak <= 1 {
		t.Errorf("peak verifying %d: the backlog never overlapped batches", peak)
	}
	if peakPinned > pl.budget {
		t.Errorf("%d B pinned, budget %d B", peakPinned, pl.budget)
	}
	// As in TestSchedulerShareBudget, the pinned bytes of these full
	// batches count the batches out exactly.
	if out, limit := peakPinned/pl.fullCharge, pl.budget/pl.fullCharge; out > limit {
		t.Errorf("%d batches verifying or committing, the budget admits %d", out, limit)
	}
}
