package prio_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"prio"
	"prio/internal/core"
	"prio/internal/transport"
)

// newDiffProtocol builds the deployment the networked differential test and
// BenchmarkStreamedRounds share: three servers, full SNIP validation, no
// sealing (so a keyless client serves).
func newDiffProtocol(t testing.TB, scheme prio.Scheme) *prio.Protocol {
	t.Helper()
	pro, err := prio.NewProtocol(prio.Config{Scheme: scheme, Servers: 3, Mode: prio.ModePrio})
	if err != nil {
		t.Fatal(err)
	}
	return pro
}

// deployServers starts servers 1 and 2 on plaintext TCP listeners (server 0
// is the in-process leader and rides a loopback peer). wrap, when non-nil,
// intercepts each listening server's handler — the fault-injection hook.
func deployServers(t testing.TB, pro *prio.Protocol, wrap func(i int, h transport.Handler) transport.Handler) ([]*prio.Server, []string, []*transport.Server) {
	t.Helper()
	servers := make([]*prio.Server, 3)
	addrs := make([]string, 3)
	lns := make([]*transport.Server, 3)
	addrs[0] = "loopback"
	for i := 0; i < 3; i++ {
		srv, err := prio.NewServer(pro, i)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		if i == 0 {
			continue
		}
		h := srv.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		ln, err := transport.Listen("127.0.0.1:0", nil, h)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return servers, addrs, lns
}

// buildMixedSubs builds a deterministic batch: every third submission
// carries an out-of-range encoding the SNIP check must reject, the rest are
// honest. Returns the submissions and the expected accept set.
func buildMixedSubs(t testing.TB, pro *prio.Protocol, scheme prio.Scheme, n int) ([]*prio.Submission, []bool) {
	t.Helper()
	client, err := prio.NewClient(pro, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := scheme.(interface {
		Encode(uint64) ([]uint64, error)
	}).Encode(1)
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]uint64, len(enc))
	for j := range bad {
		bad[j] = 7
	}
	subs := make([]*prio.Submission, n)
	want := make([]bool, n)
	for i := range subs {
		honest := i%3 != 2
		e := enc
		if !honest {
			e = bad
		}
		subs[i], err = client.BuildSubmission(e)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = honest
	}
	return subs, want
}

// runPipeline pushes subs through a sharded pipeline over leader and returns
// the per-submission accept set plus the merged shard stats.
func runPipeline(t *testing.T, leader *prio.Leader, subs []*prio.Submission) ([]bool, prio.ShardStats) {
	t.Helper()
	pl, err := prio.NewPipeline(leader, prio.PipelineConfig{
		Shards:   4,
		MaxBatch: 8,
		Retries:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	accepts := make([]bool, len(subs))
	errs := make([]error, len(subs))
	var wg sync.WaitGroup
	for i, sub := range subs {
		i := i
		wg.Add(1)
		if err := pl.SubmitFunc(sub, func(r prio.SubmitResult) {
			accepts[i] = r.Accepted
			errs[i] = r.Err
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	st := pl.Stats()
	pl.Close()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d failed without a decision: %v", i, err)
		}
	}
	return accepts, st
}

// TestStreamedRoundsFailoverDifferential proves the streamed verification
// path survives a connection loss mid-round with the accept set intact. A
// fault hook on server 1 drops every live connection the first time a
// MsgRound2Batch arrives — killing the in-flight round of every shard
// sharing the stream — and the pipeline's batch retry must re-run the
// affected batches under fresh IDs over a re-dialed stream, landing on
// exactly the ground truth: every honest submission accepted, every planted
// one rejected, none lost.
func TestStreamedRoundsFailoverDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("networked differential test")
	}
	const n = 48
	scheme := prio.NewSum(2)
	pro := newDiffProtocol(t, scheme)
	var ln1 atomic.Pointer[transport.Server]
	var dropped atomic.Bool
	wrap := func(i int, h transport.Handler) transport.Handler {
		if i != 1 {
			return h
		}
		return func(msgType byte, payload []byte) ([]byte, error) {
			if msgType == core.MsgRound2Batch && dropped.CompareAndSwap(false, true) {
				ln1.Load().DropConns()
			}
			return h(msgType, payload)
		}
	}
	servers, addrs, lns := deployServers(t, pro, wrap)
	ln1.Store(lns[1])
	leader, err := prio.ConnectLeader(servers[0], addrs)
	if err != nil {
		t.Fatal(err)
	}
	subs, want := buildMixedSubs(t, pro, scheme, n)
	streamed, st := runPipeline(t, leader, subs)

	if !dropped.Load() {
		t.Fatal("fault hook never fired: no MsgRound2Batch reached server 1")
	}
	if st.FailedOver == 0 {
		t.Error("no batch re-run recorded after the connection drop")
	}
	for i := range want {
		if streamed[i] != want[i] {
			t.Errorf("submission %d: accepted=%v, want %v", i, streamed[i], want[i])
		}
	}
}
