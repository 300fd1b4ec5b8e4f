package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"prio/internal/field"
)

// This file holds the server side of tumbling collection windows: every
// accepted submission lands both in the all-time accumulator (the paper's
// run-until-asked Section-3 sum, unchanged) and, when a window function is
// installed, in a per-window accumulator keyed by WindowID. The leader
// assigns each batch its window at commit time and carries it in MsgFinish,
// so all servers agree on which window a submission belongs to regardless of
// clock skew between them.
//
// Note on naming: a *window* is a collection interval (internal/window
// derives IDs from wall time). It is unrelated to the cluster's *epoch*,
// which numbers leadership terms (internal/cluster); see docs/CLUSTER.md.
//
// WindowID 0 is reserved for "unwindowed": a deployment that never installs
// a window function stamps every batch 0 and the per-window path stays
// dormant — the seed's aggregate-on-demand behavior.

// windowRetention is how many sealed windows a server keeps behind the most
// recently sealed one, bounding memory for long-running services while still
// letting a recovered or re-elected leader re-publish recent windows
// bit-identically.
const windowRetention = 64

// windowAcc is one window's share of the aggregate on this server. Once
// sealed it is immutable: the stored vector already includes this server's
// DP noise (drawn exactly once), so re-publishing after a leader failover
// returns bit-identical bytes.
type windowAcc[E any] struct {
	vec    []E
	count  uint64
	sealed bool
	noised bool
	eps    float64 // ε this server spent sealing the window (0 when unnoised)
}

// WindowState is the exportable form of one window accumulator, used by the
// checkpoint layer (internal/window) to persist and restore shard state.
type WindowState[E any] struct {
	ID     uint64
	Sealed bool
	Noised bool
	Eps    float64
	Count  uint64
	Vec    []E
}

// AccState is a deep copy of everything the accumulator side of a Server
// owns: the all-time total plus every live window. Verification session
// state (in-flight batches, committed-batch records) is deliberately
// excluded — it is worthless across a restart, which is exactly when
// AccState travels.
type AccState[E any] struct {
	Total      []E
	TotalCount uint64
	Spilled    uint64
	Windows    []WindowState[E]
}

// SetWindowFunc installs the function leader sessions consult to stamp each
// batch with its collection window. nil (the default) stamps 0, disabling
// per-window accumulation. Safe to call while the pipeline runs; all
// sessions of this server observe the change on their next batch.
func (s *Server[Fd, E]) SetWindowFunc(fn func() uint64) {
	if fn == nil {
		s.windowFn.Store(nil)
		return
	}
	s.windowFn.Store(&fn)
}

// currentWindow reports the window open right now (0 when unwindowed).
func (s *Server[Fd, E]) currentWindow() uint64 {
	if p := s.windowFn.Load(); p != nil {
		return (*p)()
	}
	return 0
}

// SetWindowNoise installs the differential-privacy hook run when this server
// seals a window: it must return a length-k noise vector in the field plus
// the ε actually spent, or an error to refuse the seal (budget exhausted).
// Crucially the hook is this server's own policy — a malicious leader can
// ask for a publish but can never lower or disable another server's noise,
// matching the Section-7 trust model where privacy holds as long as one
// server is honest. While the hook is installed the server refuses
// MsgAggregate, whose all-time accumulator it never noises.
func (s *Server[Fd, E]) SetWindowNoise(fn func(k int) ([]E, float64, error)) {
	if fn == nil {
		s.noiseFn.Store(nil)
		return
	}
	s.noiseFn.Store(&fn)
}

// newWindowLocked allocates the zero accumulator for wid. Callers hold s.mu.
func (s *Server[Fd, E]) newWindowLocked(wid uint64) *windowAcc[E] {
	f := s.pro.Cfg.Field
	vec := make([]E, s.pro.kPrime)
	for i := range vec {
		vec[i] = f.Zero()
	}
	wa := &windowAcc[E]{vec: vec}
	s.windows[wid] = wa
	return wa
}

// windowAddLocked adds one accepted submission's truncated share into window
// wid, spilling forward past sealed windows: a share arriving for a window
// that already sealed (a batch retried across a leader failover, or clock
// skew at a boundary) rolls into the next open window instead of mutating a
// published aggregate or being dropped. Callers hold s.mu.
func (s *Server[Fd, E]) windowAddLocked(wid uint64, x []E) {
	if wid == 0 {
		return
	}
	f := s.pro.Cfg.Field
	for {
		wa := s.windows[wid]
		if wa == nil {
			wa = s.newWindowLocked(wid)
		}
		if !wa.sealed {
			field.AddVec(f, wa.vec, x)
			wa.count++
			return
		}
		s.spilled++
		wid++
	}
}

// pruneWindowsLocked drops sealed windows that have fallen out of the
// retention horizon behind the newly sealed wid. Callers hold s.mu.
func (s *Server[Fd, E]) pruneWindowsLocked(wid uint64) {
	if wid <= windowRetention {
		return
	}
	cut := wid - windowRetention
	for id, wa := range s.windows {
		if wa.sealed && id < cut {
			delete(s.windows, id)
		}
	}
}

// WindowSpills reports how many accepted shares spilled forward past a
// sealed window (each lands intact in the next open window).
func (s *Server[Fd, E]) WindowSpills() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spilled
}

// handleWindowPublish seals window wid on this server and returns its share:
// flags (bit 0 = noised, bit 1 = was already sealed), the ε spent, the
// accepted count, and the share
// vector. Sealing is idempotent — the first publish draws this server's DP
// noise exactly once and freezes the vector; every later publish of the same
// window (a new leader catching up after failover) returns the stored bytes,
// which is what makes recovered windows publish bit-identically.
func (s *Server[Fd, E]) handleWindowPublish(payload []byte) ([]byte, error) {
	r := &rbuf{b: payload}
	wid := r.u64()
	if r.err != nil || !r.done() || wid == 0 {
		return nil, errTruncated
	}
	f := s.pro.Cfg.Field
	s.mu.Lock()
	defer s.mu.Unlock()
	wa := s.windows[wid]
	if wa == nil {
		// A window this server saw no submissions for still seals (and is
		// still noised): an empty window's zero count is itself a release.
		wa = s.newWindowLocked(wid)
	}
	resealed := wa.sealed
	if !wa.sealed {
		if fnp := s.noiseFn.Load(); fnp != nil {
			noise, eps, err := (*fnp)(s.pro.kPrime)
			if err != nil {
				return nil, fmt.Errorf("core: server %d: window %d seal refused: %w", s.idx, wid, err)
			}
			if len(noise) != s.pro.kPrime {
				return nil, errors.New("core: window noise vector length mismatch")
			}
			field.AddVec(f, wa.vec, noise)
			wa.noised = true
			wa.eps = eps
		}
		wa.sealed = true
		s.pruneWindowsLocked(wid)
	}
	w := &wbuf{}
	var flags byte
	if wa.noised {
		flags |= 1
	}
	if resealed {
		flags |= 2
	}
	w.u8(flags)
	w.u64(math.Float64bits(wa.eps))
	w.u64(wa.count)
	wvec(w, f, wa.vec)
	return w.b, nil
}

// AccState deep-copies the accumulator state (all-time total plus every live
// window, sorted by ID so serializations are deterministic). It is the
// checkpoint layer's read side and safe to call while batches commit.
func (s *Server[Fd, E]) AccState() AccState[E] {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := AccState[E]{
		Total:      append([]E(nil), s.acc...),
		TotalCount: s.accCount,
		Spilled:    s.spilled,
		Windows:    make([]WindowState[E], 0, len(s.windows)),
	}
	for id, wa := range s.windows {
		st.Windows = append(st.Windows, WindowState[E]{
			ID:     id,
			Sealed: wa.sealed,
			Noised: wa.noised,
			Eps:    wa.eps,
			Count:  wa.count,
			Vec:    append([]E(nil), wa.vec...),
		})
	}
	sort.Slice(st.Windows, func(i, j int) bool { return st.Windows[i].ID < st.Windows[j].ID })
	return st
}

// RestoreAccState replaces the accumulator state wholesale — the recovery
// path after a restart, before any traffic is accepted. Vector lengths must
// match the deployment's aggregate width.
func (s *Server[Fd, E]) RestoreAccState(st AccState[E]) error {
	k := s.pro.kPrime
	if len(st.Total) != k {
		return fmt.Errorf("core: restore total length %d, want %d", len(st.Total), k)
	}
	for _, ws := range st.Windows {
		if len(ws.Vec) != k {
			return fmt.Errorf("core: restore window %d length %d, want %d", ws.ID, len(ws.Vec), k)
		}
		if ws.ID == 0 {
			return errors.New("core: restore window ID 0 is reserved")
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.acc = append([]E(nil), st.Total...)
	s.accCount = st.TotalCount
	s.spilled = st.Spilled
	s.windows = make(map[uint64]*windowAcc[E], len(st.Windows))
	for _, ws := range st.Windows {
		s.windows[ws.ID] = &windowAcc[E]{
			vec:    append([]E(nil), ws.Vec...),
			count:  ws.Count,
			sealed: ws.Sealed,
			noised: ws.Noised,
			eps:    ws.Eps,
		}
	}
	return nil
}

// WindowPublish is the leader's view of one published window: the summed
// aggregate across all servers plus the per-server metadata needed to judge
// it. Counts can disagree after a crash that lost a member's in-flight
// window — the publish still completes, flagged inconsistent, rather than
// wedging the release schedule.
type WindowPublish[E any] struct {
	ID     uint64
	Agg    []E       // sum of every server's sealed (noised) share
	Counts []uint64  // per-server accepted counts, index order
	Eps    []float64 // per-server ε spent sealing, index order
	Noised bool      // true iff every server applied noise
	// Resealed is true iff every server had already sealed this window —
	// i.e. this publish replayed stored shares (a re-elected leader
	// catching up) rather than performing the first seal.
	Resealed bool
}

// Consistent reports whether every server accumulated the same number of
// accepted submissions into this window.
func (wp *WindowPublish[E]) Consistent() bool {
	for _, c := range wp.Counts[1:] {
		if c != wp.Counts[0] {
			return false
		}
	}
	return true
}

// MinEps is the smallest per-server ε — with every server adding independent
// noise, the release is at least MinEps-DP even if all other servers
// colluded to cancel theirs.
func (wp *WindowPublish[E]) MinEps() float64 {
	min := math.Inf(1)
	for _, e := range wp.Eps {
		if e < min {
			min = e
		}
	}
	return min
}

// PublishWindow seals window id on every server and returns the summed,
// noised aggregate. Idempotent end to end: servers seal once and replay the
// stored share afterwards, so calling this again (or from a different
// leader after failover) yields bit-identical bytes.
func (l *Leader[Fd, E]) PublishWindow(id uint64) (*WindowPublish[E], error) {
	if id == 0 {
		return nil, errors.New("core: window ID 0 is reserved")
	}
	p := l.pro
	f := p.Cfg.Field
	w := &wbuf{}
	w.u64(id)
	resps, err := l.broadcast(MsgWindowPublish, l.same(w.b), nil)
	if err != nil {
		return nil, err
	}
	wp := &WindowPublish[E]{
		ID:       id,
		Counts:   make([]uint64, len(resps)),
		Eps:      make([]float64, len(resps)),
		Noised:   true,
		Resealed: true,
	}
	for i, resp := range resps {
		r := &rbuf{b: resp}
		flags := r.u8()
		eps := math.Float64frombits(r.u64())
		n := r.u64()
		vec := rvec(r, f, p.kPrime)
		if !r.done() {
			return nil, fmt.Errorf("core: bad window publish from server %d", i)
		}
		wp.Counts[i] = n
		wp.Eps[i] = eps
		if flags&1 == 0 {
			wp.Noised = false
		}
		if flags&2 == 0 {
			wp.Resealed = false
		}
		if i == 0 {
			wp.Agg = vec
		} else {
			field.AddVec(f, wp.Agg, vec)
		}
	}
	return wp, nil
}
