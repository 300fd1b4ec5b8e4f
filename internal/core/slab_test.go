package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"prio/internal/afe"
	"prio/internal/field"
)

// TestPipelineIsolatesUndecryptableSubmission: one client's unopenable box,
// whichever server it is addressed to (the explicit-share server included),
// costs that client's submission only. The 15 honest submissions verified in
// the same batch are accepted and aggregated, and nothing counts as Failed.
func TestPipelineIsolatesUndecryptableSubmission(t *testing.T) {
	for pos := 0; pos < 3; pos++ {
		_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, true)
		// The first Round1 (a lone plug submission) is held at the peers
		// until the 16 are queued behind it, so the shard takes them as one
		// full batch.
		held, gate := make(chan struct{}), make(chan struct{})
		var once sync.Once
		lead := hookPeers(t, cl, func(j int, msgType byte) error {
			if msgType == MsgRound1 {
				once.Do(func() { close(held); <-gate })
			}
			return nil
		})
		pl, err := NewPipeline(lead, PipelineConfig{Shards: 1, MaxBatch: 16})
		if err != nil {
			t.Fatal(err)
		}
		values := make([]uint64, 17)
		for i := range values {
			values[i] = uint64(10 + i)
		}
		subs := honestSubs(t, client, scheme, values...)
		const bad = 9
		box := subs[bad].Bundles[pos]
		box[len(box)/2] ^= 0x40
		want := uint64(0)
		for i, sub := range subs {
			if i != bad {
				want += values[i]
			}
			if err := pl.Submit(sub); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				<-held // the plug is in Round1; the rest queue up behind it
			}
		}
		close(gate)

		agg, n, err := pl.Aggregate()
		if err != nil {
			t.Fatalf("server %d's box undecryptable: %v", pos, err)
		}
		if n != 16 || agg[0] != want {
			t.Errorf("server %d's box undecryptable: aggregate %d over %d, want %d over 16", pos, agg[0], n, want)
		}
		st := pl.Stats()
		if st.Batches != 2 || st.Accepted != 16 || st.Rejected != 1 || st.Failed != 0 {
			t.Errorf("server %d's box undecryptable: stats %+v, want 2 batches, 16 accepted, 1 rejected, 0 failed", pos, st)
		}
		if err := pl.Close(); err != nil {
			t.Error(err)
		}
	}
}

// TestSlabRecyclingUnderOverlappingBatches runs overlapping batches of a
// shape wide enough to recycle share slabs (bits1024: 5,130 elements a
// share) through a 2-shard pipeline and checks the aggregate against the
// recomputed reference: a slab returned to the pool while anything still
// read it would corrupt a share, which the SNIP then rejects or the
// aggregate shows. Run with -race -count=10.
func TestSlabRecyclingUnderOverlappingBatches(t *testing.T) {
	const l, waves, perWave = 1024, 3, 16
	f := field.NewF64()
	scheme := afe.NewBitVector(f, l)
	pro, err := NewProtocol(Config[field.F64, uint64]{
		Field: f, Scheme: scheme, Servers: 3, Mode: ModeSNIP, SnipReps: 2, Seal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewLocalCluster(pro)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(pro, cl.PublicKeys(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(cl.Leader, PipelineConfig{Shards: 2, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	want := make([]uint64, l)
	bits := make([]bool, l)
	// Each wave is submitted from two goroutines at once so both shards hold
	// batches in flight together; later waves decode into the slabs earlier
	// waves' finishes returned.
	for w := 0; w < waves; w++ {
		subs := make([]*Submission, perWave)
		for i := range subs {
			for j := range bits {
				bits[j] = rng.Intn(2) == 1
				if bits[j] {
					want[j]++
				}
			}
			enc, err := scheme.Encode(bits)
			if err != nil {
				t.Fatal(err)
			}
			if subs[i], err = client.BuildSubmission(enc); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for half := 0; half < 2; half++ {
			wg.Add(1)
			go func(part []*Submission) {
				defer wg.Done()
				for _, sub := range part {
					if err := pl.Submit(sub); err != nil {
						t.Error(err)
					}
				}
			}(subs[half*perWave/2 : (half+1)*perWave/2])
		}
		wg.Wait()
	}
	agg, n, err := pl.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if n != waves*perWave {
		t.Fatalf("accepted %d of %d honest submissions", n, waves*perWave)
	}
	if !field.EqualVec(f, agg, want) {
		t.Error("aggregate differs from the recomputed reference")
	}
	if err := pl.Close(); err != nil {
		t.Error(err)
	}
}

// TestBatchStateReleasesSlabs: once a batch has been finished — committed or
// aborted — or its leader released, its state holds no slab and no view of
// one, and the servers' batch tables are empty.
func TestBatchStateReleasesSlabs(t *testing.T) {
	type stateOf = batchState[field.F64, uint64]
	// snapshot collects the live batch states of every server.
	snapshot := func(cl *Cluster[field.F64, uint64]) []*stateOf {
		var out []*stateOf
		for _, srv := range cl.Servers {
			srv.mu.Lock()
			for _, bs := range srv.batches {
				out = append(out, bs)
			}
			srv.mu.Unlock()
		}
		return out
	}
	checkReleased := func(t *testing.T, cl *Cluster[field.F64, uint64], seen []*stateOf, want int) {
		t.Helper()
		if len(seen) != want {
			t.Fatalf("saw %d live batch states before the release, want %d", len(seen), want)
		}
		for _, bs := range seen {
			bs.mu.Lock()
			if !bs.released || bs.flats != nil || bs.xShares != nil || bs.snipBatch != nil || bs.mpcSess != nil {
				t.Errorf("batch state still references its slabs: released=%v flats=%d xShares=%d", bs.released, len(bs.flats), len(bs.xShares))
			}
			bs.mu.Unlock()
		}
		if rest := snapshot(cl); len(rest) != 0 {
			t.Errorf("%d batch states still in the servers' tables", len(rest))
		}
	}

	t.Run("finish", func(t *testing.T) {
		_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, true)
		var seen []*stateOf
		var once sync.Once
		lead := hookPeers(t, cl, func(j int, msgType byte) error {
			if msgType == MsgFinish {
				once.Do(func() { seen = snapshot(cl) })
			}
			return nil
		})
		if _, err := lead.ProcessBatch(honestSubs(t, client, scheme, 1, 2, 3)); err != nil {
			t.Fatal(err)
		}
		checkReleased(t, cl, seen, 3)
	})

	t.Run("aborted", func(t *testing.T) {
		_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, true)
		var seen []*stateOf
		var once sync.Once
		lead := hookPeers(t, cl, func(j int, msgType byte) error {
			switch {
			case msgType == MsgRound2Batch && j == 2:
				return errors.New("injected: round 2 lost")
			case msgType == MsgFinish:
				once.Do(func() { seen = snapshot(cl) })
			}
			return nil
		})
		if _, err := lead.ProcessBatch(honestSubs(t, client, scheme, 1, 2, 3)); err == nil {
			t.Fatal("lost round 2 did not fail the batch")
		}
		checkReleased(t, cl, seen, 3)
	})

	t.Run("release leader", func(t *testing.T) {
		_, cl, client, scheme := newSumDeployment(t, ModeMPC, 3, true)
		// Server 2 hears nothing after Round1, the abort finish included.
		lead := hookPeers(t, cl, func(j int, msgType byte) error {
			if j == 2 && msgType != MsgRound1 && msgType != MsgSetChallenge {
				return errors.New("injected: leader unreachable")
			}
			return nil
		})
		if _, err := lead.ProcessBatch(honestSubs(t, client, scheme, 1, 2, 3)); err == nil {
			t.Fatal("interrupted batch did not error")
		}
		seen := snapshot(cl)
		if n, _ := cl.Servers[2].ReleaseLeader(0); n != 1 {
			t.Errorf("ReleaseLeader dropped %d batches, want 1", n)
		}
		checkReleased(t, cl, seen, 1)
	})
}
