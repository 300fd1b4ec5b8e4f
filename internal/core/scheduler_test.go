package core

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prio/internal/afe"
	"prio/internal/field"
	"prio/internal/transport"
)

// The shard scheduler under a slow link: every non-leader server answers
// through a slowPeer, so the rounds wait on the wire while the CPUs idle —
// the regime rounds_sum8_s5_wan measures.

// schedProbe is what the slow peers see of the pipeline under test.
type schedProbe struct {
	inflight *atomic.Int64 // the pipeline's gauge; set before the first submit
	peak     atomic.Int64  // the highest gauge reading at any call
	// fail, when set, may fail a call to server j instead of forwarding it.
	fail func(j int, msgType byte, payload []byte) error
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
		v := p.probe.inflight.Load()
		for {
			m := p.probe.peak.Load()
			if v <= m || p.probe.peak.CompareAndSwap(m, v) {
				break
			}
		}
	}
	time.Sleep(p.d)
	if p.probe.fail != nil {
		if err := p.probe.fail(p.j, msgType, payload); err != nil {
			return nil, err
		}
	}
	return p.Peer.Call(msgType, payload)
}

// slowRig is a three-server sum8 cluster whose leader reaches servers 1 and
// 2 through slowPeers. The leader's own slot stays a bare loopback, so its
// handler time is compute alone and the rounds' wall time is mostly sleep.
type slowRig struct {
	cl     *Cluster[field.F64, uint64]
	leader *Leader[field.F64, uint64]
	client *Client[field.F64, uint64]
	scheme *afe.Sum[field.F64, uint64]
	probe  *schedProbe
}

func newSlowRig(t *testing.T, d time.Duration, challengeEvery int) *slowRig {
	t.Helper()
	f := field.NewF64()
	scheme := afe.NewSum(f, 8)
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
	rig := &slowRig{cl: cl, client: client, scheme: scheme, probe: &schedProbe{}}
	rig.leader = leaderOn(t, cl, 0, func(j int, p transport.Peer) transport.Peer {
		if j == 0 {
			return p
		}
		return &slowPeer{Peer: p, j: j, d: d, probe: rig.probe}
	})
	return rig
}

// pipeline opens a pipeline on the rig; maxDepth 1 is the serial loop.
func (r *slowRig) pipeline(t *testing.T, cfg PipelineConfig, maxDepth int) *Pipeline[field.F64, uint64] {
	t.Helper()
	pl, err := NewPipeline(r.leader, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl.maxDepth = maxDepth
	r.probe.inflight = &pl.inflight
	r.probe.peak.Store(0)
	return pl
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
	overlapped, peak := run(maxOverlap)
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
	pl := rig.pipeline(t, PipelineConfig{Shards: 1, MaxBatch: 8}, maxOverlap)
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

// TestSchedulerFastRotation: with ChallengeEvery = 2·MaxBatch a shard may
// hold at most two batches in flight, and every rotation lands while
// batches are verifying; planted invalid submissions must still be decided
// exactly, none fail, and the servers' count matches the shard tallies.
func TestSchedulerFastRotation(t *testing.T) {
	const n, maxBatch = 256, 8
	rig := newSlowRig(t, 2*time.Millisecond, 2*maxBatch)
	subs, want, sum := mixedBatch(t, rig.client, rig.scheme, n)
	pl := rig.pipeline(t, PipelineConfig{Shards: 1, MaxBatch: maxBatch, QueueDepth: n}, maxOverlap)
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
	peak := rig.probe.peak.Load()
	t.Logf("peak in flight %d", peak)
	if peak > 2 {
		t.Errorf("%d batches in flight, ChallengeEvery allows 2", peak)
	}
}

// TestSchedulerShutdown: Quiesce and Close both wait out batches in flight,
// and no completion runs after Close returns.
func TestSchedulerShutdown(t *testing.T) {
	const n = 128
	rig := newSlowRig(t, 2*time.Millisecond, 0)
	pl := rig.pipeline(t, PipelineConfig{Shards: 2, MaxBatch: 8, QueueDepth: n}, maxOverlap)
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
	waitInflight := func() {
		for deadline := time.Now().Add(5 * time.Second); pl.inflight.Load() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("no batch ever in flight")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	submit(honestSubs(t, rig.client, rig.scheme, make([]uint64, n)...))
	waitInflight()
	pl.Quiesce(func() {
		if got := decided.Load(); got != n {
			t.Errorf("Quiesce ran with %d of %d decided", got, n)
		}
		if in := pl.inflight.Load(); in != 0 {
			t.Errorf("Quiesce ran with %d batches in flight", in)
		}
	})

	submit(honestSubs(t, rig.client, rig.scheme, make([]uint64, n)...))
	waitInflight()
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
	pl := rig.pipeline(t, PipelineConfig{Shards: 1, MaxBatch: 8, QueueDepth: n, Retries: 2, RetryBackoff: time.Millisecond}, maxOverlap)
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
