package window

import (
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"

	"prio/internal/core"
	"prio/internal/dp"
	"prio/internal/field"
	"prio/internal/telemetry"
)

// ID returns the tumbling collection window containing t at the given
// width: windows tile wall time in width-sized intervals, numbered from the
// Unix epoch, offset by one so that WindowID 0 stays reserved for
// "unwindowed" (core's dormant state). All members compute the same ID for
// the same instant; the leader's clock is nonetheless the only one that
// matters for assignment, because batches are stamped leader-side.
func ID(t time.Time, width time.Duration) uint64 {
	if width <= 0 {
		return 0
	}
	return uint64(t.UnixNano()/int64(width)) + 1
}

// StartOf returns the instant window id opens.
func StartOf(id uint64, width time.Duration) time.Time {
	return time.Unix(0, int64(id-1)*int64(width))
}

// EndOf returns the instant window id closes (exclusive).
func EndOf(id uint64, width time.Duration) time.Time {
	return StartOf(id, width).Add(width)
}

// defaultMaxCatchUp bounds how many closed windows a (re-elected or
// restarted) leader publishes in one boundary pass. Windows further back
// are counted skipped rather than flooding the roster with ancient seals.
const defaultMaxCatchUp = 4

// historyCap bounds the in-memory published-window ring served by
// /aggregates.
const historyCap = 64

// Record is one published window as the operator sees it on /aggregates
// and in the per-window ledger line.
type Record struct {
	ID          uint64    `json:"id"`
	Start       time.Time `json:"start"`
	End         time.Time `json:"end"`
	Count       uint64    `json:"count"`     // server 0's accepted count
	Counts      []uint64  `json:"counts"`    // per-server accepted counts
	Agg         []string  `json:"aggregate"` // decimal; signed when Noised (renderVec)
	Noised      bool      `json:"noised"`
	Eps         float64   `json:"epsilon"` // min per-server ε spent on this window
	Consistent  bool      `json:"consistent"`
	Republished bool      `json:"republished,omitempty"`

	// Stages carries the per-window delta of the registry's cumulative
	// stage series (telemetry.WindowView), for ledger consumers; it is not
	// serialized on /aggregates.
	Stages map[string]telemetry.SeriesDelta `json:"-"`
}

// Config assembles a Service. Server is the local member's protocol state;
// Leader (sharing that server) publishes on window close when IsLeader
// allows. Everything else is optional.
type Config[Fd field.Field[E], E any] struct {
	Field  Fd
	Width  time.Duration
	Server *core.Server[Fd, E]
	Leader *core.Leader[Fd, E]

	// Quiesce wraps the close boundary so sealing cannot race a batch
	// commit; wire it to Pipeline.Quiesce. Nil runs the boundary directly
	// (callers that quiesce by construction, e.g. tests).
	Quiesce func(fn func())
	// IsLeader gates publishing — cluster members pass Node.IsLeader so
	// only the sitting leader drives window closes, and the duty survives
	// failover with the leadership. Nil means always leader (single
	// process).
	IsLeader func() bool

	// Store enables durable checkpointing; nil runs memory-only.
	Store *Store
	// CheckpointEvery is the periodic snapshot cadence (default: Width/2,
	// clamped to [1s, 30s]). Boundary publishes checkpoint regardless.
	CheckpointEvery time.Duration

	// DP configures the per-window release noise this member adds at seal
	// (zero Epsilon: no noise). Budget, when set, accounts cumulative ε
	// across windows and refuses seals past the cap.
	DP     dp.Params
	Budget *dp.Budget

	// Registry receives prio_window_* metrics and feeds the per-window
	// stage deltas (nil: a private registry).
	Registry *telemetry.Registry
	// Logf receives operational lines (recovery, publish failures, budget
	// exhaustion); nil discards.
	Logf func(format string, args ...any)
	// OnPublish observes every successfully published window, in order —
	// prio-server prints its ledger lines from here. Called off the
	// boundary's critical section but on the service goroutine.
	OnPublish func(Record)

	// MaxCatchUp overrides defaultMaxCatchUp (tests).
	MaxCatchUp int
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// Service runs the window lifecycle for one member: stamping (via the
// server's window function), boundary detection, leader-driven sealing and
// publishing, checkpointing, and recovery. Construct with New — which also
// performs checkpoint recovery — then Start.
type Service[Fd field.Field[E], E any] struct {
	cfg  Config[Fd, E]
	k    int
	m    *metricsSet
	view *telemetry.WindowView

	mu        sync.Mutex
	lastPub   uint64
	history   []Record
	recov     LoadInfo
	recovered bool

	stop     chan struct{}
	done     chan struct{}
	started  bool
	stopOnce sync.Once
}

// New builds the service, recovers from the newest valid checkpoint when a
// Store is configured, and installs the window-stamp and DP-noise hooks on
// the server. The service is inert until Start.
func New[Fd field.Field[E], E any](cfg Config[Fd, E]) (*Service[Fd, E], error) {
	if cfg.Server == nil {
		return nil, errors.New("window: Config.Server is required")
	}
	if cfg.Width <= 0 {
		return nil, errors.New("window: Config.Width must be positive")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.MaxCatchUp <= 0 {
		cfg.MaxCatchUp = defaultMaxCatchUp
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = cfg.Width / 2
		if cfg.CheckpointEvery < time.Second {
			cfg.CheckpointEvery = time.Second
		}
		if cfg.CheckpointEvery > 30*time.Second {
			cfg.CheckpointEvery = 30 * time.Second
		}
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.New()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.DP.Epsilon != 0 {
		if err := cfg.DP.Valid(); err != nil {
			return nil, err
		}
	}

	s := &Service[Fd, E]{
		cfg:  cfg,
		k:    len(cfg.Server.AccState().Total),
		view: cfg.Registry.NewWindowView(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}

	// Boot cursor: nothing before this process started is ours to publish
	// unless a checkpoint says otherwise (recover below may pull it back,
	// bounded by MaxCatchUp so an old snapshot cannot trigger a flood).
	bootID := ID(cfg.Clock(), cfg.Width)
	s.lastPub = bootID - 1

	if cfg.Store != nil {
		if err := s.recover(bootID); err != nil {
			return nil, err
		}
	}

	// Stamp every batch with the wall-clock window; seal with this
	// member's own noise policy. Installed after recovery so no batch can
	// land between restore and hook installation.
	width := cfg.Width
	clock := cfg.Clock
	cfg.Server.SetWindowFunc(func() uint64 { return ID(clock(), width) })
	if cfg.DP.Epsilon > 0 {
		f, p, budget := cfg.Field, cfg.DP, cfg.Budget
		logf := cfg.Logf
		cfg.Server.SetWindowNoise(func(k int) ([]E, float64, error) {
			granted, err := budget.Spend(p.Epsilon)
			if err != nil {
				logf("window: DP budget refused seal: %v", err)
				return nil, 0, err
			}
			if granted < p.Epsilon {
				logf("window: DP budget clamped seal epsilon %g -> %g (budget nearly exhausted)",
					p.Epsilon, granted)
			}
			noise, err := dp.NoiseVector(f, nil, k, dp.Params{Epsilon: granted, Sensitivity: p.Sensitivity})
			if err != nil {
				return nil, 0, err
			}
			return noise, granted, nil
		})
	}

	s.m = newMetrics(cfg.Registry, s)
	return s, nil
}

// recover loads the newest valid checkpoint and restores server state, the
// DP ledger, and the publish cursor.
func (s *Service[Fd, E]) recover(bootID uint64) error {
	snap, info, err := Load(s.cfg.Store, s.cfg.Field, s.k)
	s.recov = info
	if err != nil {
		return err
	}
	if info.Skipped > 0 {
		s.cfg.Logf("window: skipped %d corrupt checkpoint file(s) in %s", info.Skipped, s.cfg.Store.Dir())
	}
	if snap == nil {
		return nil
	}
	if err := s.cfg.Server.RestoreAccState(snap.Acc); err != nil {
		return fmt.Errorf("window: checkpoint %s: %w", info.File, err)
	}
	s.cfg.Budget.Restore(snap.DPSpent)
	// Publish cursor: resume where the checkpoint left off, but never more
	// than MaxCatchUp windows back — older sealed windows were published
	// before the crash (sealing happens on publish) and stay replayable
	// from the restored state if anyone asks.
	floor := uint64(0)
	if bootID > uint64(s.cfg.MaxCatchUp)+1 {
		floor = bootID - 1 - uint64(s.cfg.MaxCatchUp)
	}
	s.lastPub = max(snap.LastPublished, floor)
	s.recovered = true
	s.cfg.Logf("window: recovered from checkpoint %s: %d windows, total count %d, dp spent %g, last published %d",
		info.File, len(snap.Acc.Windows), snap.Acc.TotalCount, snap.DPSpent, snap.LastPublished)
	return nil
}

// Recovered reports whether a checkpoint was restored at construction, and
// how the load went.
func (s *Service[Fd, E]) Recovered() (bool, LoadInfo) { return s.recovered, s.recov }

// Width returns the configured window width.
func (s *Service[Fd, E]) Width() time.Duration { return s.cfg.Width }

// Current returns the window open right now.
func (s *Service[Fd, E]) Current() uint64 { return ID(s.cfg.Clock(), s.cfg.Width) }

// LastPublished returns the newest window this member has published (or
// adopted as published at boot).
func (s *Service[Fd, E]) LastPublished() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastPub
}

// History returns the published-window records, oldest first.
func (s *Service[Fd, E]) History() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.history...)
}

// Start launches the service loop: wake at each window boundary (sealing
// and publishing when leading) and checkpoint periodically in between.
func (s *Service[Fd, E]) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go s.loop()
}

// Close stops the loop and writes a final checkpoint.
func (s *Service[Fd, E]) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		<-s.done
	} else {
		s.Checkpoint()
		close(s.done)
	}
}

func (s *Service[Fd, E]) loop() {
	defer close(s.done)
	ckpt := time.NewTicker(s.cfg.CheckpointEvery)
	defer ckpt.Stop()
	armed := s.nextBoundary()
	for {
		// Wake just past the boundary so ID(now) has moved on.
		timer := time.NewTimer(armed.Sub(s.cfg.Clock()) + 5*time.Millisecond)
		select {
		case <-s.stop:
			timer.Stop()
			s.Checkpoint()
			return
		case <-ckpt.C:
			timer.Stop()
		case <-timer.C:
		}
		armed = s.wake(armed)
	}
}

// nextBoundary returns the instant the window open right now closes.
func (s *Service[Fd, E]) nextBoundary() time.Time {
	return EndOf(ID(s.cfg.Clock(), s.cfg.Width), s.cfg.Width)
}

// wake serves one wake-up of the loop, whichever channel caused it, and
// returns the boundary to arm next. An armed boundary that has passed is
// closed on any wake-up (CloseBoundary also checkpoints). Re-deriving the
// boundary from the clock instead would let a checkpoint tick landing just
// past a boundary arm the following one, leaving the closed window
// unpublished for a whole width — at every boundary, when CheckpointEvery
// divides Width.
func (s *Service[Fd, E]) wake(armed time.Time) time.Time {
	if s.cfg.Clock().Before(armed) {
		s.Checkpoint()
		return armed
	}
	s.CloseBoundary()
	return s.nextBoundary()
}

// CloseBoundary runs one window-close pass: when this member is the
// sitting leader, quiesce intake and publish every closed, not-yet-published
// window (bounded by MaxCatchUp), then checkpoint. Exported for tests and
// callers with their own scheduling; the Start loop calls it at each
// boundary.
func (s *Service[Fd, E]) CloseBoundary() {
	closed := ID(s.cfg.Clock(), s.cfg.Width) - 1
	leading := closed != 0 && s.cfg.Leader != nil &&
		(s.cfg.IsLeader == nil || s.cfg.IsLeader())
	var recs []Record
	if leading {
		boundary := func() { recs = s.publishThrough(closed) }
		if s.cfg.Quiesce != nil {
			s.cfg.Quiesce(boundary)
		} else {
			boundary()
		}
	}
	// Everyone checkpoints at the boundary — a follower's share just got
	// sealed (noised) by the leader's publish broadcast, and that state is
	// exactly what must survive a crash for re-publishes to stay
	// bit-identical.
	s.Checkpoint()
	if s.cfg.OnPublish != nil {
		for _, r := range recs {
			s.cfg.OnPublish(r)
		}
	}
}

// publishThrough publishes windows (lastPub, closed], newest-bounded by
// MaxCatchUp. On a publish failure it stops advancing the cursor so the
// window is retried at the next boundary.
func (s *Service[Fd, E]) publishThrough(closed uint64) []Record {
	s.mu.Lock()
	lo := s.lastPub + 1
	s.mu.Unlock()
	if closed < lo {
		return nil
	}
	if n := closed - lo + 1; n > uint64(s.cfg.MaxCatchUp) {
		skip := n - uint64(s.cfg.MaxCatchUp)
		s.m.skipped.Add(skip)
		s.cfg.Logf("window: skipping %d windows older than catch-up horizon (%d..%d)", skip, lo, lo+skip-1)
		lo += skip
		s.mu.Lock()
		if s.lastPub < lo-1 {
			s.lastPub = lo - 1
		}
		s.mu.Unlock()
	}
	var recs []Record
	for wid := lo; wid <= closed; wid++ {
		rec, err := s.publishOne(wid)
		if err != nil {
			s.m.pubFailures.Inc()
			s.cfg.Logf("window: publish %d failed: %v", wid, err)
			break
		}
		recs = append(recs, rec)
		s.mu.Lock()
		s.lastPub = wid
		s.history = append(s.history, rec)
		if len(s.history) > historyCap {
			s.history = s.history[len(s.history)-historyCap:]
		}
		s.mu.Unlock()
	}
	return recs
}

// publishOne seals window wid on every server and folds the result into a
// Record.
func (s *Service[Fd, E]) publishOne(wid uint64) (Record, error) {
	t0 := time.Now()
	wp, err := s.cfg.Leader.PublishWindow(wid)
	if err != nil {
		return Record{}, err
	}
	s.m.pubDur.Since(t0)
	rec := Record{
		ID:          wid,
		Start:       StartOf(wid, s.cfg.Width),
		End:         EndOf(wid, s.cfg.Width),
		Count:       wp.Counts[0],
		Counts:      wp.Counts,
		Agg:         renderVec(s.cfg.Field, wp.Agg, wp.Noised),
		Noised:      wp.Noised,
		Consistent:  wp.Consistent(),
		Republished: wp.Resealed,
		Stages:      s.view.Advance(),
	}
	if wp.Noised {
		rec.Eps = wp.MinEps()
	}
	s.m.published.Inc()
	if rec.Republished {
		s.m.republished.Inc()
	}
	if !rec.Consistent {
		s.m.inconsistent.Inc()
		s.cfg.Logf("window: window %d published with inconsistent per-server counts %v (crash-damaged window)", wid, wp.Counts)
	}
	s.m.lastCount.Set(float64(rec.Count))
	return rec, nil
}

// Checkpoint writes one durable snapshot now (no-op without a Store).
func (s *Service[Fd, E]) Checkpoint() {
	if s.cfg.Store == nil {
		return
	}
	t0 := time.Now()
	snap := &Snapshot[E]{
		LastPublished: s.LastPublished(),
		DPSpent:       s.cfg.Budget.Spent(),
		Acc:           s.cfg.Server.AccState(),
	}
	n, err := Save(s.cfg.Store, s.cfg.Field, snap)
	if err != nil {
		s.m.ckptFailures.Inc()
		s.cfg.Logf("window: checkpoint failed: %v", err)
		return
	}
	s.m.ckptDur.Since(t0)
	s.m.ckpts.Inc()
	s.m.ckptBytes.Set(float64(n))
}

// renderVec formats field elements as decimal strings for JSON (exact for
// any field width, unlike float64). A noised window's components are
// rendered signed, an element above p/2 as its difference from p: the DP
// noise is symmetric around zero, so an empty window's −3 would otherwise
// read as p − 3. An un-noised window renders the field elements as they are.
func renderVec[Fd field.Field[E], E any](f Fd, v []E, signed bool) []string {
	var p, half *big.Int
	if signed {
		p = f.Modulus()
		half = new(big.Int).Rsh(p, 1)
	}
	out := make([]string, len(v))
	for i, e := range v {
		b := f.ToBig(e)
		if signed && b.Cmp(half) > 0 {
			b.Sub(b, p)
		}
		out[i] = b.String()
	}
	return out
}

func max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
