package core

import (
	"testing"

	"prio/internal/afe"
	"prio/internal/field"
	"prio/internal/transport"
)

// TestRotatingLeadership exercises the Figure 5 load-balancing arrangement:
// every server simultaneously acts as leader for a slice of the submissions,
// and the final aggregate is still exact. Challenge/batch namespacing keeps
// the concurrent verification sessions from colliding.
func TestRotatingLeadership(t *testing.T) {
	f := field.NewF64()
	scheme := afe.NewSum(f, 8)
	pro, err := NewProtocol(Config[field.F64, uint64]{
		Field:    f,
		Scheme:   scheme,
		Servers:  3,
		Mode:     ModeSNIP,
		SnipReps: 1,
		Seal:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewLocalCluster(pro)
	if err != nil {
		t.Fatal(err)
	}
	// Promote every server to leader with its own peer set.
	leaders := make([]*Leader[field.F64, uint64], len(cl.Servers))
	leaders[0] = cl.Leader
	for i := 1; i < len(cl.Servers); i++ {
		peers := make([]transport.Peer, len(cl.Servers))
		for j, srv := range cl.Servers {
			peers[j] = &transport.LoopbackPeer{Handler: srv.Handle}
		}
		ld, err := NewLeader(cl.Servers[i], peers)
		if err != nil {
			t.Fatal(err)
		}
		leaders[i] = ld
	}

	client, err := NewClient(pro, cl.PublicKeys(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Round-robin batches across the three leaders.
	want := uint64(0)
	total := 0
	for batch := 0; batch < 9; batch++ {
		var subs []*Submission
		for i := 0; i < 4; i++ {
			v := uint64((batch*7 + i) % 256)
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
		ld := leaders[batch%len(leaders)]
		accepts, err := ld.ProcessBatch(subs)
		if err != nil {
			t.Fatalf("leader %d batch %d: %v", batch%len(leaders), batch, err)
		}
		for i, ok := range accepts {
			if !ok {
				t.Fatalf("leader %d rejected honest submission %d", batch%len(leaders), i)
			}
		}
	}

	agg, n, err := leaders[1].Aggregate() // any leader can publish
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

// TestConcurrentLeaders drives two leaders from separate goroutines to make
// sure interleaved sessions stay isolated under the race detector.
func TestConcurrentLeaders(t *testing.T) {
	f := field.NewF64()
	scheme := afe.NewSum(f, 4)
	pro, err := NewProtocol(Config[field.F64, uint64]{
		Field: f, Scheme: scheme, Servers: 2, Mode: ModeSNIP, SnipReps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewLocalCluster(pro)
	if err != nil {
		t.Fatal(err)
	}
	peers := []transport.Peer{
		&transport.LoopbackPeer{Handler: cl.Servers[0].Handle},
		&transport.LoopbackPeer{Handler: cl.Servers[1].Handle},
	}
	second, err := NewLeader(cl.Servers[1], peers)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(pro, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	run := func(ld *Leader[field.F64, uint64], vals []uint64, errCh chan<- error) {
		for _, v := range vals {
			enc, err := scheme.Encode(v)
			if err != nil {
				errCh <- err
				return
			}
			sub, err := client.BuildSubmission(enc)
			if err != nil {
				errCh <- err
				return
			}
			if _, err := ld.ProcessBatch([]*Submission{sub}); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}
	errCh := make(chan error, 2)
	go run(cl.Leader, []uint64{1, 2, 3, 4, 5}, errCh)
	go run(second, []uint64{10, 10, 10}, errCh)
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	agg, n, err := cl.Leader.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("count = %d, want 8", n)
	}
	got, err := scheme.Decode(agg, int(n))
	if err != nil {
		t.Fatal(err)
	}
	if got.Uint64() != 45 {
		t.Errorf("aggregate = %v, want 45", got)
	}
}
