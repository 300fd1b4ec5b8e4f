package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"prio/internal/afe"
	"prio/internal/field"
	"prio/internal/sealbox"
	"prio/internal/transport"
)

// sumSequential computes the reference aggregate for values with a fresh
// serial deployment.
func sumSequential(t *testing.T, mode Mode, servers int, values []uint64) uint64 {
	t.Helper()
	_, cl, client, scheme := newSumDeployment(t, mode, servers, true)
	var subs []*Submission
	for _, v := range values {
		enc, err := scheme.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := client.BuildSubmission(enc)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	if _, err := cl.Leader.ProcessBatch(subs); err != nil {
		t.Fatal(err)
	}
	agg, n, err := cl.Leader.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(values)) {
		t.Fatalf("sequential accepted %d of %d", n, len(values))
	}
	got, err := scheme.Decode(agg, int(n))
	if err != nil {
		t.Fatal(err)
	}
	return got.Uint64()
}

// TestConcurrentLeadersMatchSequential runs several leader sessions against
// one shared server set from concurrent goroutines and checks the merged
// aggregate equals what a single serial leader computes — the protocol-level
// guarantee (Appendix I) behind the pipeline. Run under -race.
func TestConcurrentLeadersMatchSequential(t *testing.T) {
	const (
		leaders   = 4
		perLeader = 6
		servers   = 3
	)
	for _, mode := range []Mode{ModeSNIP, ModeMPC, ModeNoRobust} {
		t.Run(mode.String(), func(t *testing.T) {
			_, cl, client, scheme := newSumDeployment(t, mode, servers, true)

			// ≥4 concurrent leader sessions sharing cl's server set.
			var sessions []*Leader[field.F64, uint64]
			for i := 0; i < leaders; i++ {
				ld, err := NewLeaderSession(cl.Leader.Server, cl.Leader.peers, i+1)
				if err != nil {
					t.Fatal(err)
				}
				sessions = append(sessions, ld)
			}

			var values []uint64
			for i := 0; i < leaders*perLeader; i++ {
				values = append(values, uint64(i*7%256))
			}
			var want uint64
			for _, v := range values {
				want += v
			}
			subs := make([]*Submission, len(values))
			for i, v := range values {
				enc, err := scheme.Encode(v)
				if err != nil {
					t.Fatal(err)
				}
				subs[i], err = client.BuildSubmission(enc)
				if err != nil {
					t.Fatal(err)
				}
			}

			var wg sync.WaitGroup
			errs := make([]error, leaders)
			for i, ld := range sessions {
				wg.Add(1)
				go func(i int, ld *Leader[field.F64, uint64]) {
					defer wg.Done()
					// Each session verifies its slice in two batches so
					// rotation and batching interleave across sessions.
					slice := subs[i*perLeader : (i+1)*perLeader]
					for off := 0; off < len(slice); off += 2 {
						accepts, err := ld.ProcessBatch(slice[off : off+2])
						if err != nil {
							errs[i] = err
							return
						}
						for _, ok := range accepts {
							if !ok {
								t.Errorf("leader %d: honest submission rejected", i)
							}
						}
					}
				}(i, ld)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("leader %d: %v", i, err)
				}
			}

			agg, n, err := sessions[0].Aggregate()
			if err != nil {
				t.Fatal(err)
			}
			if n != uint64(len(values)) {
				t.Fatalf("accepted %d of %d", n, len(values))
			}
			got, err := scheme.Decode(agg, int(n))
			if err != nil {
				t.Fatal(err)
			}
			if got.Uint64() != want {
				t.Errorf("concurrent aggregate = %d, want %d", got.Uint64(), want)
			}
			if seq := sumSequential(t, mode, servers, values); seq != got.Uint64() {
				t.Errorf("concurrent aggregate %d != sequential %d", got.Uint64(), seq)
			}
		})
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	for _, mode := range []Mode{ModeSNIP, ModeMPC, ModeNoRobust} {
		t.Run(mode.String(), func(t *testing.T) {
			_, cl, client, scheme := newSumDeployment(t, mode, 3, true)
			pl, err := NewPipeline(cl.Leader, PipelineConfig{Shards: 4, MaxBatch: 4})
			if err != nil {
				t.Fatal(err)
			}

			const n = 40
			var want uint64
			for i := 0; i < n; i++ {
				v := uint64(i % 250)
				want += v
				enc, err := scheme.Encode(v)
				if err != nil {
					t.Fatal(err)
				}
				sub, err := client.BuildSubmission(enc)
				if err != nil {
					t.Fatal(err)
				}
				if err := pl.Submit(sub); err != nil {
					t.Fatal(err)
				}
			}

			agg, count, err := pl.Aggregate()
			if err != nil {
				t.Fatal(err)
			}
			if count != n {
				t.Fatalf("accepted %d of %d", count, n)
			}
			got, err := scheme.Decode(agg, int(count))
			if err != nil {
				t.Fatal(err)
			}
			if got.Uint64() != want {
				t.Errorf("aggregate = %d, want %d", got.Uint64(), want)
			}

			st := pl.Stats()
			if st.Processed != n || st.Accepted != n || st.Rejected != 0 || st.Failed != 0 {
				t.Errorf("stats = %+v", st)
			}
			if err := pl.Close(); err != nil {
				t.Fatal(err)
			}
			if err := pl.Submit(nil); err == nil {
				t.Error("Submit after Close succeeded")
			}
		})
	}
}

// TestChallengeWindowWrapStaysInNamespace regresses the eviction arithmetic
// of handleSetChallenge: when a session's 16-bit challenge counter wraps,
// the window eviction must stay inside that session's namespace instead of
// deleting a neighbor's live challenge.
func TestChallengeWindowWrapStaysInNamespace(t *testing.T) {
	pro, cl, _, _ := newSumDeployment(t, ModeSNIP, 1, false)
	srv := cl.Servers[0]
	set := func(id uint32) {
		ch, err := pro.newChallenge()
		if err != nil {
			t.Fatal(err)
		}
		w := &wbuf{}
		w.u32(id)
		w.raw(pro.marshalChallenge(ch))
		if _, err := srv.handleSetChallenge(w.b); err != nil {
			t.Fatal(err)
		}
	}
	neighbor := uint32(0x0002FFFF) // session 2's newest challenge
	set(neighbor)
	set(0x00030000) // session 3 wraps its counter to 0…
	set(0x00030001) // …and rotates again: evicts 0x0003FFFF, not 0x0002FFFF
	srv.mu.Lock()
	_, ok := srv.challenges[neighbor]
	srv.mu.Unlock()
	if !ok {
		t.Error("session 3's wrap evicted session 2's live challenge")
	}
}

// TestFailedBatchReleasesServerState regresses the abort path: when a batch
// fails after Round1 seeded per-batch state on some servers, the leader's
// best-effort all-reject finish must release that state instead of leaking
// it (failed batches are a routine counted outcome under the pipeline).
func TestFailedBatchReleasesServerState(t *testing.T) {
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, false)
	enc, err := scheme.Encode(3)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := client.BuildSubmission(enc)
	if err != nil {
		t.Fatal(err)
	}
	// Server 2 is unreachable for Round1: servers 0 and 1 complete it and
	// store batch state, and the batch fails as a whole.
	lead := hookPeers(t, cl, func(j int, msgType byte) error {
		if j == 2 && msgType == MsgRound1 {
			return errors.New("injected: round1 lost")
		}
		return nil
	})
	if _, err := lead.ProcessBatch([]*Submission{sub}); err == nil {
		t.Fatal("lost Round1 did not fail the batch")
	}
	for i, srv := range cl.Servers {
		srv.mu.Lock()
		n := len(srv.batches)
		srv.mu.Unlock()
		if n != 0 {
			t.Errorf("server %d leaked %d batch states after failed batch", i, n)
		}
	}
	if srv := cl.Servers[0]; srv.accCount != 0 {
		t.Errorf("abort finish accumulated %d submissions", srv.accCount)
	}
}

// TestPipelineSubmitWait checks the per-submission decision path, including
// a malicious submission rejected mid-stream.
func TestPipelineSubmitWait(t *testing.T) {
	f := field.NewF64()
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, true)
	pl, err := NewPipeline(cl.Leader, PipelineConfig{Shards: 3, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	var wg sync.WaitGroup
	const honest = 9
	results := make([]bool, honest+1)
	rerrs := make([]error, honest+1)
	for i := 0; i < honest; i++ {
		enc, err := scheme.Encode(uint64(i))
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
			results[i], rerrs[i] = pl.SubmitWait(sub)
		}(i, sub)
	}
	evil := make([]uint64, scheme.K())
	evil[0] = f.FromUint64(1 << 40)
	evilSub, err := client.BuildSubmission(evil)
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[honest], rerrs[honest] = pl.SubmitWait(evilSub)
	}()
	wg.Wait()

	for i := 0; i < honest; i++ {
		if rerrs[i] != nil {
			t.Fatalf("submission %d: %v", i, rerrs[i])
		}
		if !results[i] {
			t.Errorf("honest submission %d rejected", i)
		}
	}
	if rerrs[honest] != nil {
		t.Fatalf("evil submission: %v", rerrs[honest])
	}
	if results[honest] {
		t.Error("malicious submission accepted")
	}
	st := pl.Stats()
	if st.Accepted != honest || st.Rejected != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestPipelineOverTCP runs the pipeline against real TCP servers with
// streamed peers — the deployment shape of cmd/prio-server.
func TestPipelineOverTCP(t *testing.T) {
	const nServers = 3
	f := field.NewF64()
	scheme := afe.NewSum(f, 8)
	pro, err := NewProtocol(Config[field.F64, uint64]{
		Field:    f,
		Scheme:   scheme,
		Servers:  nServers,
		Mode:     ModeSNIP,
		SnipReps: 2,
		Seal:     true,
	})
	if err != nil {
		t.Fatal(err)
	}

	servers := make([]*Server[field.F64, uint64], nServers)
	addrs := make([]string, nServers)
	for i := range servers {
		srv, err := NewServer(pro, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		ln, err := transport.Listen("127.0.0.1:0", nil, srv.Handle)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}

	peers := make([]transport.Peer, nServers)
	for i, addr := range addrs {
		if i == 0 {
			peers[i] = &transport.LoopbackPeer{Handler: servers[0].Handle}
			continue
		}
		p := transport.NewStreamPeer(addr, nil)
		defer p.Close()
		peers[i] = p
	}
	leader, err := NewLeader(servers[0], peers)
	if err != nil {
		t.Fatal(err)
	}

	keys := make([]*sealbox.PublicKey, nServers)
	for i, srv := range servers {
		keys[i] = srv.PublicKey()
	}
	client, err := NewClient(pro, keys, nil)
	if err != nil {
		t.Fatal(err)
	}

	pl, err := NewPipeline(leader, PipelineConfig{Shards: 4, MaxBatch: 3})
	if err != nil {
		t.Fatal(err)
	}

	const n = 24
	var want uint64
	for i := 0; i < n; i++ {
		v := uint64(i * 5 % 256)
		want += v
		enc, err := scheme.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := client.BuildSubmission(enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	agg, count, err := pl.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("accepted %d of %d", count, n)
	}
	got, err := scheme.Decode(agg, int(count))
	if err != nil {
		t.Fatal(err)
	}
	if got.Uint64() != want {
		t.Errorf("aggregate = %d, want %d", got.Uint64(), want)
	}
}

// TestTrySubmitRefused exercises the non-blocking intake edge: with the
// single shard wedged mid-Round1 and a two-slot queue, TrySubmitFunc must
// refuse the overflow (counted, never decided) while everything it accepted
// is still verified once the shard unwedges.
func TestTrySubmitRefused(t *testing.T) {
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 2, false)
	gate := make(chan struct{})
	gated := func(h transport.Handler) transport.Handler {
		return func(msgType byte, payload []byte) ([]byte, error) {
			if msgType == MsgRound1 {
				<-gate
			}
			return h(msgType, payload)
		}
	}
	peers := []transport.Peer{
		&transport.LoopbackPeer{Handler: gated(cl.Servers[0].Handle)},
		&transport.LoopbackPeer{Handler: gated(cl.Servers[1].Handle)},
	}
	ld, err := NewLeader(cl.Servers[0], peers)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(ld, PipelineConfig{Shards: 1, MaxBatch: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}

	const n = 6
	var decided sync.WaitGroup
	var accepted int64
	enq := 0
	for i := 0; i < n; i++ {
		enc, err := scheme.Encode(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		sub, err := client.BuildSubmission(enc)
		if err != nil {
			t.Fatal(err)
		}
		decided.Add(1)
		ok, err := pl.TrySubmitFunc(sub, func(r SubmitResult) {
			if r.Err == nil && r.Accepted {
				atomic.AddInt64(&accepted, 1)
			}
			decided.Done()
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			decided.Done() // refused: the callback never runs
		} else {
			enq++
		}
	}
	// The shard holds one submission and the queue two more, so at least
	// three of the six attempts must have been refused.
	if enq > 3 {
		t.Fatalf("enqueued %d submissions past a wedged 1-shard/2-slot pipeline", enq)
	}
	if st := pl.Stats(); st.Refused != uint64(n-enq) {
		t.Errorf("Refused = %d, want %d", st.Refused, n-enq)
	}

	close(gate)
	pl.Drain()
	decided.Wait()
	st := pl.Stats()
	if st.Accepted != uint64(enq) || atomic.LoadInt64(&accepted) != int64(enq) {
		t.Errorf("accepted %d (callbacks %d), want %d", st.Accepted, accepted, enq)
	}
	if st.Refused != uint64(n-enq) || st.Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.TrySubmitFunc(nil, nil); err == nil {
		t.Error("TrySubmitFunc after Close succeeded")
	}
}

// TestChallengePrefetchRotation drives many rotations through one leader
// with a tiny challenge window, so nearly every rotation adopts a challenge
// that was generated and broadcast off-path. The aggregate must stay exact.
func TestChallengePrefetchRotation(t *testing.T) {
	f := field.NewF64()
	scheme := afe.NewSum(f, 8)
	pro, err := NewProtocol(Config[field.F64, uint64]{
		Field:          f,
		Scheme:         scheme,
		Servers:        3,
		Mode:           ModeSNIP,
		SnipReps:       1,
		ChallengeEvery: 2, // rotate on every 2-submission batch
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
	var want uint64
	total := 0
	for batch := 0; batch < 12; batch++ {
		var subs []*Submission
		for i := 0; i < 2; i++ {
			v := uint64((batch*31 + i) % 256)
			want += v
			total++
			enc, err := scheme.Encode(v)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := client.BuildSubmission(enc)
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, sub)
		}
		accepts, err := cl.Leader.ProcessBatch(subs)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for i, ok := range accepts {
			if !ok {
				t.Fatalf("batch %d: honest submission %d rejected", batch, i)
			}
		}
	}
	agg, n, err := cl.Leader.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(total) {
		t.Fatalf("count = %d, want %d", n, total)
	}
	got, err := scheme.Decode(agg, int(n))
	if err != nil {
		t.Fatal(err)
	}
	if got.Uint64() != want {
		t.Errorf("aggregate = %v, want %d", got, want)
	}
}
