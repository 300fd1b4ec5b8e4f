package ingest

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"prio/internal/core"
)

// flakySink accepts each distinct submission only after failUntil sightings:
// earlier attempts come back as failed acks, exercising the retry path
// deterministically.
type flakySink struct {
	mu        sync.Mutex
	seen      map[byte]int
	failUntil int
}

func (f *flakySink) SubmitFunc(sub *core.Submission, fn func(core.SubmitResult)) error {
	tag := sub.Bundles[0][0]
	f.mu.Lock()
	f.seen[tag]++
	n := f.seen[tag]
	f.mu.Unlock()
	if n < f.failUntil {
		fn(core.SubmitResult{Err: errors.New("scripted failure")})
	} else {
		fn(core.SubmitResult{Accepted: true})
	}
	return nil
}

func (f *flakySink) TrySubmitFunc(sub *core.Submission, fn func(core.SubmitResult)) (bool, error) {
	return true, f.SubmitFunc(sub, fn)
}

// TestFailoverRetriesFailedAcks: every submission fails its first attempt;
// the failover layer must re-submit and converge with a closed ledger.
func TestFailoverRetriesFailedAcks(t *testing.T) {
	sink := &flakySink{seen: make(map[byte]int), failUntil: 2}
	_, addr, stop := serveIngest(t, sink, Config{Credits: 8})
	defer stop()

	fs, err := NewFailoverSubmitter(FailoverConfig{
		Dial: func(onAck func(Ack)) (*StreamSubmitter, error) {
			return Dial(addr, SubmitterConfig{OnAck: onAck})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	const total = 10
	for i := 0; i < total; i++ {
		if err := fs.Submit(testSub(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	fs.Wait()
	st := fs.Stats()
	if st.Accepted != total || st.Abandoned != 0 {
		t.Errorf("stats = %+v, want %d accepted", st, total)
	}
	if st.FailedRetried != total {
		t.Errorf("FailedRetried = %d, want %d (each submission failed once)", st.FailedRetried, total)
	}
	if st.Submitted != st.Accepted+st.Rejected+st.Abandoned {
		t.Errorf("ledger open: %+v", st)
	}
}

// TestFailoverAbandonsAfterMaxAttempts: a sink that never accepts must not
// retry forever — the budget runs out and the ledger still closes, with the
// loss explicit in Abandoned.
func TestFailoverAbandonsAfterMaxAttempts(t *testing.T) {
	sink := &flakySink{seen: make(map[byte]int), failUntil: 1 << 30}
	_, addr, stop := serveIngest(t, sink, Config{Credits: 8})
	defer stop()

	var finals []AckStatus
	var mu sync.Mutex
	fs, err := NewFailoverSubmitter(FailoverConfig{
		MaxAttempts: 2,
		Dial: func(onAck func(Ack)) (*StreamSubmitter, error) {
			return Dial(addr, SubmitterConfig{OnAck: onAck})
		},
		OnFinal: func(a Ack) {
			mu.Lock()
			finals = append(finals, a.Status)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	const total = 5
	for i := 0; i < total; i++ {
		if err := fs.Submit(testSub(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	fs.Wait()
	st := fs.Stats()
	if st.Abandoned != total || st.Accepted != 0 {
		t.Errorf("stats = %+v, want %d abandoned", st, total)
	}
	if st.FailedRetried != total {
		t.Errorf("FailedRetried = %d, want %d (one retry per submission)", st.FailedRetried, total)
	}
	if st.Submitted != st.Accepted+st.Rejected+st.Abandoned {
		t.Errorf("ledger open: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(finals) != total {
		t.Errorf("OnFinal fired %d times, want %d", len(finals), total)
	}
	for _, s := range finals {
		if s != StatusFailed {
			t.Errorf("abandoned submission reported as %v", s)
		}
	}
}

// TestFailoverRedialsAfterStreamDeath is the client half of leader failover:
// the serving endpoint dies with submissions in flight, a replacement comes
// up at a different address, and the layer must re-dial (the Dial closure
// re-resolves, as it would via cluster.Resolve) and re-submit the strays so
// every submission still reaches a final decision.
func TestFailoverRedialsAfterStreamDeath(t *testing.T) {
	gate := make(chan struct{})
	sinkA := &fakeSink{gate: gate} // wedged: decisions never arrive
	_, addrA, stopA := serveIngest(t, sinkA, Config{Credits: 8})

	var mu sync.Mutex
	addr := addrA
	fs, err := NewFailoverSubmitter(FailoverConfig{
		RedialBackoff: 5 * time.Millisecond,
		Dial: func(onAck func(Ack)) (*StreamSubmitter, error) {
			mu.Lock()
			a := addr
			mu.Unlock()
			return Dial(a, SubmitterConfig{OnAck: onAck})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	const total = 8
	for i := 0; i < total; i++ {
		if err := fs.Submit(testSub(byte(i))); err != nil {
			t.Fatal(err)
		}
	}

	// Replacement endpoint that accepts everything, then kill the original
	// out from under the stream.
	sinkB := &fakeSink{}
	_, addrB, stopB := serveIngest(t, sinkB, Config{Credits: 8})
	defer stopB()
	mu.Lock()
	addr = addrB
	mu.Unlock()
	stopA()
	close(gate)

	fs.Wait()
	st := fs.Stats()
	if st.Accepted != total || st.Abandoned != 0 {
		t.Errorf("stats = %+v, want %d accepted on the successor", st, total)
	}
	if st.Failovers == 0 || st.Redials == 0 {
		t.Errorf("failover not counted: %+v", st)
	}
	if st.Submitted != st.Accepted+st.Rejected+st.Abandoned {
		t.Errorf("ledger open: %+v", st)
	}
}

// TestFailoverAckBeforeRegistration: a stream's read goroutine can deliver
// an ack before the send that produced it has filed the entry in flight. The
// sink here withholds every decision, so the only ack the second submission
// gets is one injected ahead of its send; Wait must still return with it
// accepted rather than hang.
func TestFailoverAckBeforeRegistration(t *testing.T) {
	gate := make(chan struct{})
	_, addr, stop := serveIngest(t, &fakeSink{gate: gate}, Config{Credits: 8})
	defer stop()
	defer close(gate)
	fs, err := NewFailoverSubmitter(FailoverConfig{
		Dial: func(onAck func(Ack)) (*StreamSubmitter, error) {
			return Dial(addr, SubmitterConfig{OnAck: onAck})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	if err := fs.Submit(testSub(0)); err != nil { // stream ID 1
		t.Fatal(err)
	}
	fs.mu.Lock()
	gen := fs.gen
	fs.mu.Unlock()
	fs.onAck(gen, Ack{ID: 2, Status: StatusAccepted})
	if err := fs.Submit(testSub(1)); err != nil { // stream ID 2
		t.Fatal(err)
	}
	fs.onAck(gen, Ack{ID: 1, Status: StatusAccepted})

	done := make(chan struct{})
	go func() {
		fs.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung: the ack that beat its send was dropped")
	}
	if st := fs.Stats(); st.Accepted != 2 || st.Abandoned != 0 {
		t.Errorf("stats = %+v, want 2 accepted", st)
	}
}

// TestGateRefusesStream: a follower's admission gate must bounce the dial
// with the gate's own message, so clients learn who the leader is.
func TestGateRefusesStream(t *testing.T) {
	sink := &fakeSink{}
	gateErr := errors.New("cluster: member 1 is not the leader (epoch 3, leader 0)")
	_, addr, stop := serveIngest(t, sink, Config{Gate: func() error { return gateErr }})
	defer stop()

	_, err := Dial(addr, SubmitterConfig{})
	if err == nil {
		t.Fatal("gated stream admitted")
	}
	if !strings.Contains(err.Error(), "not the leader") {
		t.Errorf("refusal lost the gate message: %v", err)
	}
}
