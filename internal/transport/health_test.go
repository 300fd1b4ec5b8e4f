package transport

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// waitCond polls until cond holds or the deadline passes.
func waitCond(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestHealthDeadPeerGoesDown: a target failing every probe is marked down
// after exactly FailThreshold consecutive failures, and comes back up on the
// first success after recovery.
func TestHealthDeadPeerGoesDown(t *testing.T) {
	var dead atomic.Bool
	dead.Store(true)
	var probes atomic.Int64
	h := NewHealthChecker([]ProbeFunc{
		nil, // self slot: never probed, always up
		func(time.Duration) error {
			probes.Add(1)
			if dead.Load() {
				return errors.New("connection refused")
			}
			return nil
		},
	}, HealthConfig{Interval: 5 * time.Millisecond, FailThreshold: 3})
	h.Start()
	defer h.Stop()

	if !h.Up(0) || !h.Up(1) {
		t.Fatal("targets must start optimistically up")
	}
	waitCond(t, 2*time.Second, func() bool { return !h.Up(1) }, "dead peer never marked down")
	if n := probes.Load(); n < 3 {
		t.Errorf("went down after %d probes, threshold is 3", n)
	}
	if !h.Up(0) {
		t.Error("self slot went down")
	}

	dead.Store(false)
	waitCond(t, 2*time.Second, func() bool { return h.Up(1) }, "recovered peer never marked up")
}

// TestHealthFlappingPeerStaysUp: a target that fails often but never
// FailThreshold times in a row stays up.
func TestHealthFlappingPeerStaysUp(t *testing.T) {
	var n atomic.Int64
	var transitions atomic.Int64
	h := NewHealthChecker([]ProbeFunc{
		func(time.Duration) error {
			// Two failures, one success, repeat: never 3 consecutive.
			if n.Add(1)%3 == 0 {
				return nil
			}
			return errors.New("flap")
		},
	}, HealthConfig{
		Interval:      3 * time.Millisecond,
		FailThreshold: 3,
		OnChange:      func(int, bool) { transitions.Add(1) },
	})
	h.Start()
	time.Sleep(150 * time.Millisecond)
	h.Stop()
	if !h.Up(0) {
		t.Error("flapping peer marked down")
	}
	if got := transitions.Load(); got != 0 {
		t.Errorf("flapping peer transitioned %d times", got)
	}
}

// TestHealthSlowPeerVsDeadPeer: a peer slower than the probe timeout is as
// down as a dead one — its probes overrun the window and count as failures —
// but unlike a dead one it recovers the moment it answers fast again.
func TestHealthSlowPeerVsDeadPeer(t *testing.T) {
	var delay atomic.Int64 // ms
	delay.Store(50)
	h := NewHealthChecker([]ProbeFunc{
		func(time.Duration) error { // slow peer: alive but over timeout
			time.Sleep(time.Duration(delay.Load()) * time.Millisecond)
			return nil
		},
		func(time.Duration) error { // dead peer: fails instantly
			return errors.New("down")
		},
	}, HealthConfig{Interval: 5 * time.Millisecond, Timeout: 10 * time.Millisecond, FailThreshold: 3})
	h.Start()
	defer h.Stop()

	waitCond(t, 2*time.Second, func() bool { return !h.Up(0) }, "slow peer never marked down")
	waitCond(t, 2*time.Second, func() bool { return !h.Up(1) }, "dead peer never marked down")

	// The slow peer speeds up and must come back; the dead one must not.
	delay.Store(0)
	waitCond(t, 2*time.Second, func() bool { return h.Up(0) }, "fast-again peer never marked up")
	if h.Up(1) {
		t.Error("dead peer resurrected")
	}
}
