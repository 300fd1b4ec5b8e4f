package core

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"time"

	"prio/internal/afe"
	"prio/internal/field"
	"prio/internal/transport"
)

// faultPeer wraps a Peer and fails selected calls — the in-process stand-in
// for a server that dies mid-round.
type faultPeer struct {
	transport.Peer
	fail func(msgType byte) error
}

func (p *faultPeer) Call(msgType byte, payload []byte) ([]byte, error) {
	if err := p.fail(msgType); err != nil {
		return nil, err
	}
	return p.Peer.Call(msgType, payload)
}

// leaderOn builds a leader on cl.Servers[idx] whose peer for each server j
// is optionally wrapped by wrap(j, peer).
func leaderOn(t *testing.T, cl *Cluster[field.F64, uint64], idx int, wrap func(j int, p transport.Peer) transport.Peer) *Leader[field.F64, uint64] {
	t.Helper()
	peers := make([]transport.Peer, len(cl.Servers))
	for j, srv := range cl.Servers {
		var p transport.Peer = &transport.LoopbackPeer{Handler: srv.Handle}
		if wrap != nil {
			p = wrap(j, p)
		}
		peers[j] = p
	}
	ld, err := NewLeaderSession(cl.Servers[idx], peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ld
}

// hookPeers builds a leader on server 0 whose every peer calls hook(j,
// msgType) before forwarding a call; a non-nil error fails the call instead.
func hookPeers(t *testing.T, cl *Cluster[field.F64, uint64], hook func(j int, msgType byte) error) *Leader[field.F64, uint64] {
	t.Helper()
	return leaderOn(t, cl, 0, func(j int, p transport.Peer) transport.Peer {
		return &faultPeer{Peer: p, fail: func(msgType byte) error { return hook(j, msgType) }}
	})
}

// mixedBatch builds a batch of honest and invalid submissions plus the
// expected accept set and honest sum.
func mixedBatch(t *testing.T, client *Client[field.F64, uint64], scheme *afe.Sum[field.F64, uint64], n int) (subs []*Submission, want []bool, sum uint64) {
	t.Helper()
	f := field.NewF64()
	for i := 0; i < n; i++ {
		if i%4 == 3 {
			evil := make([]uint64, scheme.K())
			evil[0] = f.FromUint64(uint64(500 + i))
			sub, err := client.BuildSubmission(evil)
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, sub)
			want = append(want, false)
			continue
		}
		v := uint64(i)
		sum += v
		enc, err := scheme.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := client.BuildSubmission(enc)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
		want = append(want, true)
	}
	return subs, want, sum
}

// TestBatchRerunIdempotenceAcrossLeaders is the failover correctness core:
// a batch interrupted after Round1 (a peer dies during round 2) and then
// re-run by a *different* leader server must produce exactly the accept set
// a clean run would, with every accepted submission counted once in the
// accumulators — no double counting from the aborted attempt, no losses.
func TestBatchRerunIdempotenceAcrossLeaders(t *testing.T) {
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, true)
	subs, wantAccept, wantSum := mixedBatch(t, client, scheme, 12)

	// Leader on server 0 whose link to server 2 dies in round 2: Round1 has
	// seeded batch state on servers 0 and 1 by then, so this is an
	// interruption mid-verification, not a clean refusal.
	var failing atomic.Bool
	failing.Store(true)
	lead0 := leaderOn(t, cl, 0, func(j int, p transport.Peer) transport.Peer {
		if j != 2 {
			return p
		}
		return &faultPeer{Peer: p, fail: func(msgType byte) error {
			if failing.Load() && msgType == MsgRound2Batch {
				return errors.New("injected: peer lost mid-round")
			}
			return nil
		}}
	})
	if _, err := lead0.ProcessBatch(subs); err == nil {
		t.Fatal("interrupted batch did not error")
	}
	// The abort finish released every server's batch state and accumulated
	// nothing (regression guard for the re-run below being truly fresh).
	for i, srv := range cl.Servers {
		srv.mu.Lock()
		leaked, acc := len(srv.batches), srv.accCount
		srv.mu.Unlock()
		if leaked != 0 {
			t.Fatalf("server %d holds %d batch states after interrupt", i, leaked)
		}
		if acc != 0 {
			t.Fatalf("server %d accumulated %d submissions from the aborted attempt", i, acc)
		}
	}

	// Re-run the identical batch on the next leader in rotation order.
	lead1 := leaderOn(t, cl, 1, nil)
	accepts, err := lead1.ProcessBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range accepts {
		if accepts[i] != wantAccept[i] {
			t.Errorf("submission %d: accept=%v, want %v", i, accepts[i], wantAccept[i])
		}
	}
	agg, n, err := lead1.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	var wantCount uint64
	for _, w := range wantAccept {
		if w {
			wantCount++
		}
	}
	if n != wantCount {
		t.Fatalf("accumulators hold %d submissions, want %d", n, wantCount)
	}
	got, err := scheme.Decode(agg, int(n))
	if err != nil {
		t.Fatal(err)
	}
	if got.Uint64() != wantSum {
		t.Errorf("aggregate = %v, want %d (double count or loss across the re-run)", got, wantSum)
	}
}

// TestReleaseLeaderDropsAbandonedState covers the case the abort path cannot
// reach: the dying leader's finish also fails toward a server, stranding
// batch state there under the dead leader's ID namespace.
// ReleaseLeader (wired to the cluster's OnPeerDown) must drop exactly that
// namespace and leave other leaders' state alone.
func TestReleaseLeaderDropsAbandonedState(t *testing.T) {
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, true)
	subs, _, _ := mixedBatch(t, client, scheme, 4)

	// Server 2 stops hearing from leader 0 entirely after Round1: round 2
	// AND the abort finish fail, so server 2 keeps the batch state.
	var failing atomic.Bool
	failing.Store(true)
	lead0 := leaderOn(t, cl, 0, func(j int, p transport.Peer) transport.Peer {
		if j != 2 {
			return p
		}
		return &faultPeer{Peer: p, fail: func(msgType byte) error {
			if failing.Load() && msgType != MsgRound1 {
				return errors.New("injected: leader unreachable")
			}
			return nil
		}}
	})
	if _, err := lead0.ProcessBatch(subs); err == nil {
		t.Fatal("interrupted batch did not error")
	}
	srv2 := cl.Servers[2]
	srv2.mu.Lock()
	leaked := len(srv2.batches)
	srv2.mu.Unlock()
	if leaked == 0 {
		t.Fatal("expected stranded batch state on server 2")
	}

	// A different leader's concurrent state must survive the release.
	lead1 := leaderOn(t, cl, 1, nil)
	if _, err := lead1.ProcessBatch(subs[:2]); err != nil {
		t.Fatal(err)
	}

	if n := srv2.ReleaseLeader(0); n != leaked {
		t.Errorf("released %d batches, want %d", n, leaked)
	}
	srv2.mu.Lock()
	rest := len(srv2.batches)
	_, haveOther := srv2.commits[1<<16] // leader 1, session 0
	srv2.mu.Unlock()
	if rest != 0 {
		t.Errorf("%d batch states survived release", rest)
	}
	if !haveOther {
		t.Error("leader 1's commit record was dropped too")
	}

	// Releasing an idle leader is a no-op, and server 2 still verifies for
	// live leaders afterwards.
	if n := srv2.ReleaseLeader(0); n != 0 {
		t.Errorf("second release found %d batches", n)
	}
	if _, err := lead1.ProcessBatch(subs[:2]); err != nil {
		t.Errorf("server 2 broken after release: %v", err)
	}
}

// TestLeaderRecoversReleasedChallenge: a member that wrongly sees a live
// leader die releases everything that leader seeded. Servers keep no
// challenge state — every Round1 carries its batch's challenge seed — so
// the leader's very first batch after the release succeeds, under the same
// challenge, and decides every submission exactly.
func TestLeaderRecoversReleasedChallenge(t *testing.T) {
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, true)
	subs, want, _ := mixedBatch(t, client, scheme, 4)
	if _, err := cl.Leader.ProcessBatch(subs); err != nil {
		t.Fatal(err)
	}
	cl.Servers[1].ReleaseLeader(0)
	got, err := cl.Leader.ProcessBatch(subs)
	if err != nil {
		t.Fatalf("first batch after the release: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("submission %d: accepted=%v, want %v", i, got[i], want[i])
		}
	}
}

// TestPipelineRetriesTransientFailure: with Retries configured, a batch that
// fails its first attempt (peer briefly unreachable) is re-run in place and
// its submissions decided normally — Retried/FailedOver count the event,
// Failed stays zero, and the accumulators agree with the shard tallies.
func TestPipelineRetriesTransientFailure(t *testing.T) {
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, true)
	var calls atomic.Int64
	lead := leaderOn(t, cl, 0, func(j int, p transport.Peer) transport.Peer {
		if j != 1 {
			return p
		}
		return &faultPeer{Peer: p, fail: func(msgType byte) error {
			// The first Round1 this peer sees fails; everything after works.
			if msgType == MsgRound1 && calls.Add(1) == 1 {
				return errors.New("injected: transient peer outage")
			}
			return nil
		}}
	})
	pl, err := NewPipeline(lead, PipelineConfig{Shards: 1, MaxBatch: 4, Retries: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	oks := make([]bool, n)
	for i := 0; i < n; i++ {
		enc, err := scheme.Encode(1)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := client.BuildSubmission(enc)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, sub *Submission) {
			defer wg.Done()
			oks[i], errs[i] = pl.SubmitWait(sub)
		}(i, sub)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submission %d failed: %v", i, errs[i])
		}
		if !oks[i] {
			t.Errorf("submission %d rejected", i)
		}
	}
	st := pl.Stats()
	if st.Failed != 0 {
		t.Errorf("Failed = %d after successful retry", st.Failed)
	}
	if st.FailedOver == 0 || st.Retried == 0 {
		t.Errorf("retry not counted: FailedOver=%d Retried=%d", st.FailedOver, st.Retried)
	}
	if st.Accepted != n {
		t.Errorf("Accepted = %d, want %d", st.Accepted, n)
	}
	if _, cnt, err := pl.Aggregate(); err != nil || cnt != n {
		t.Errorf("aggregate count %d err %v, want %d submissions counted once", cnt, err, n)
	}
	if err := pl.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestPipelineRetryExhaustion: a permanently dead peer exhausts the retry
// budget and the batch fails with every attempt counted.
func TestPipelineRetryExhaustion(t *testing.T) {
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, true)
	lead := leaderOn(t, cl, 0, func(j int, p transport.Peer) transport.Peer {
		if j != 2 {
			return p
		}
		return &faultPeer{Peer: p, fail: func(msgType byte) error {
			return errors.New("injected: peer gone for good")
		}}
	})
	pl, err := NewPipeline(lead, PipelineConfig{Shards: 1, MaxBatch: 4, Retries: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := scheme.Encode(1)
	sub, err := client.BuildSubmission(enc)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := pl.SubmitWait(sub); err == nil || ok {
		t.Fatalf("submission against dead peer: ok=%v err=%v", ok, err)
	}
	st := pl.Stats()
	if st.Failed != 1 || st.FailedOver != 2 || st.Retried != 2 {
		t.Errorf("stats = %+v, want Failed=1 FailedOver=2 Retried=2", st)
	}
	pl.Close()
}

// TestCallDialsPeersInParallel: a round whose other servers cannot be
// reached fails after one dial timeout, not one per server: Leader.call
// calls every other server on a goroutine of its own, so one peer's dial or
// full write queue never holds back the frames to the others. Both peers
// accept TCP and then never answer the TLS handshake, so each dial runs to
// its 2 s bound.
func TestCallDialsPeersInParallel(t *testing.T) {
	_, cl, _, _ := newSumDeployment(t, ModeSNIP, 3, false)
	_, clientTLS, err := transport.SelfSignedTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	var holes []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			var held []net.Conn
			defer func() {
				for _, c := range held {
					c.Close()
				}
			}()
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				held = append(held, c)
			}
		}()
		holes = append(holes, ln.Addr().String())
	}
	lead := leaderOn(t, cl, 0, func(j int, p transport.Peer) transport.Peer {
		if j == 0 {
			return p
		}
		return transport.NewStreamPeer(holes[j-1], clientTLS)
	})
	t0 := time.Now()
	_, errs := lead.call(MsgAggregate, lead.same(nil), nil, nil)
	elapsed := time.Since(t0)
	if errs[1] == nil || errs[2] == nil {
		t.Fatalf("unreachable peers answered: %v", errs)
	}
	if elapsed > 3*time.Second {
		t.Errorf("round with two unreachable peers took %v, want one 2 s dial timeout", elapsed)
	}
}
