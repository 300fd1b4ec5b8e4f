package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ProbeFunc checks one target's liveness, returning nil when the target
// answered within timeout. Implementations must honor the timeout themselves
// (StreamPeer.CallTimeout does); the checker additionally abandons probes
// that overrun it.
type ProbeFunc func(timeout time.Duration) error

// HealthConfig tunes a HealthChecker.
type HealthConfig struct {
	// Interval between probes per target (default 250ms). Each tick is
	// jittered by ±JitterFrac so a cluster's checkers do not synchronize
	// into probe bursts.
	Interval time.Duration
	// Timeout bounds one probe (default Interval). A probe that has not
	// answered within it counts as a failure even if it eventually returns:
	// a peer slower than the timeout is operationally down.
	Timeout time.Duration
	// JitterFrac is the ± fraction of Interval applied per tick
	// (default 0.2, clamped to [0, 0.9]).
	JitterFrac float64
	// FailThreshold is how many consecutive failures mark a target down
	// (default 3). One success marks it up again, so a flapping target with
	// any successes inside the window stays up while a dead one converges
	// in FailThreshold·Interval.
	FailThreshold int
	// OnChange observes up/down transitions. It runs on the target's probe
	// goroutine and must not block.
	OnChange func(target int, up bool)
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = 0.2
	}
	if c.JitterFrac < 0 {
		c.JitterFrac = 0
	}
	if c.JitterFrac > 0.9 {
		c.JitterFrac = 0.9
	}
	if c.FailThreshold < 1 {
		c.FailThreshold = 3
	}
	return c
}

// healthTarget is one probed peer. fails is only touched by the target's
// probe goroutine; up is read concurrently through Up/View.
type healthTarget struct {
	probe    ProbeFunc
	up       atomic.Bool
	fails    int
	inflight chan error // pending probe result, nil when none outstanding
}

// HealthChecker probes a set of targets on jittered intervals and keeps a
// liveness view: a target is down after FailThreshold consecutive probe
// failures and up again on the first success. A nil ProbeFunc (a member's
// own slot) is permanently up. Targets start optimistically up, so a cluster
// booting in any order does not declare its peers dead before first contact.
type HealthChecker struct {
	cfg     HealthConfig
	targets []*healthTarget
	quit    chan struct{}
	wg      sync.WaitGroup
}

// NewHealthChecker builds a checker over probes (indexed by target). Call
// Start to begin probing.
func NewHealthChecker(probes []ProbeFunc, cfg HealthConfig) *HealthChecker {
	h := &HealthChecker{cfg: cfg.withDefaults(), quit: make(chan struct{})}
	for _, p := range probes {
		t := &healthTarget{probe: p}
		t.up.Store(true)
		h.targets = append(h.targets, t)
	}
	return h
}

// Start launches one probe goroutine per target with a real ProbeFunc.
func (h *HealthChecker) Start() {
	for i, t := range h.targets {
		if t.probe == nil {
			continue
		}
		h.wg.Add(1)
		go h.probeLoop(i, t)
	}
}

// Stop halts probing. In-flight probes are abandoned (their goroutines exit
// when the probe returns).
func (h *HealthChecker) Stop() {
	close(h.quit)
	h.wg.Wait()
}

// Up reports target i's current liveness.
func (h *HealthChecker) Up(i int) bool { return h.targets[i].up.Load() }

// View snapshots liveness across all targets.
func (h *HealthChecker) View() []bool {
	out := make([]bool, len(h.targets))
	for i := range out {
		out[i] = h.Up(i)
	}
	return out
}

// probeLoop drives one target: launch a probe each jittered tick, count it
// failed if it errors or overruns the timeout. An overrunning probe is not
// awaited past its window — its late result is discarded, and no new probe
// launches while one is still pending (so a hung peer accumulates one stuck
// goroutine, not one per tick).
func (h *HealthChecker) probeLoop(i int, t *healthTarget) {
	defer h.wg.Done()
	rng := rand.New(rand.NewSource(int64(i)*0x9E3779B9 + time.Now().UnixNano()))
	timer := time.NewTimer(h.jitter(rng, h.cfg.Interval/4))
	defer timer.Stop()
	for {
		select {
		case <-h.quit:
			return
		case <-timer.C:
		}
		h.probeOnce(i, t)
		timer.Reset(h.jitter(rng, h.cfg.Interval))
	}
}

// probeOnce runs (or accounts for) one probe window.
func (h *HealthChecker) probeOnce(i int, t *healthTarget) {
	if t.inflight != nil {
		// A previous probe is still running. If it finished since the last
		// tick, discard its stale result; if it is still stuck, this window
		// is a failure and we keep waiting rather than piling on.
		select {
		case <-t.inflight:
			t.inflight = nil
		default:
			h.record(i, t, false)
			return
		}
	}
	ch := make(chan error, 1)
	t.inflight = ch
	probe := t.probe
	timeout := h.cfg.Timeout
	go func() { ch <- probe(timeout) }()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case err := <-ch:
		t.inflight = nil
		h.record(i, t, err == nil)
	case <-deadline.C:
		h.record(i, t, false) // slow is down; result discarded next tick
	case <-h.quit:
	}
}

// record applies one probe outcome to the target's consecutive-failure
// counter and fires OnChange on transitions.
func (h *HealthChecker) record(i int, t *healthTarget, ok bool) {
	if ok {
		t.fails = 0
		if t.up.CompareAndSwap(false, true) && h.cfg.OnChange != nil {
			h.cfg.OnChange(i, true)
		}
		return
	}
	t.fails++
	if t.fails >= h.cfg.FailThreshold {
		if t.up.CompareAndSwap(true, false) && h.cfg.OnChange != nil {
			h.cfg.OnChange(i, false)
		}
	}
}

// jitter spreads d by ±JitterFrac.
func (h *HealthChecker) jitter(rng *rand.Rand, d time.Duration) time.Duration {
	if h.cfg.JitterFrac == 0 || d <= 0 {
		return d
	}
	f := 1 + h.cfg.JitterFrac*(2*rng.Float64()-1)
	return time.Duration(float64(d) * f)
}
