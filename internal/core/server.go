package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"prio/internal/field"
	"prio/internal/mpc"
	"prio/internal/prg"
	"prio/internal/sealbox"
	"prio/internal/snip"
	"prio/internal/transport"
)

// Server is one Prio aggregation server: it verifies its share of each
// submission and maintains the local accumulator of Section 3. Servers are
// driven entirely through Handle, which implements the wire protocol, so the
// same code runs in-process (benchmarks, examples) and behind TCP/TLS
// (cmd/prio-server).
type Server[Fd field.Field[E], E any] struct {
	pro  *Protocol[Fd, E]
	idx  int
	priv *sealbox.PrivateKey
	pub  *sealbox.PublicKey

	mu         sync.Mutex
	challenges map[uint32]*challState[Fd, E]
	lastChall  map[uint32]uint32 // newest challenge ID per leader-session namespace
	batches    map[uint64]*batchState[Fd, E]
	acc        []E
	accCount   uint64
	windows    map[uint64]*windowAcc[E] // per-collection-window accumulators (see window.go)
	spilled    uint64                   // shares rolled forward past a sealed window

	// windowFn stamps batches with their collection window (leader sessions
	// read it at commit time); noiseFn is this server's own DP-at-seal
	// policy. Both are atomics so handlers and sessions read them without
	// taking mu; nil means windowing / noise is off.
	windowFn atomic.Pointer[func() uint64]
	noiseFn  atomic.Pointer[func(k int) ([]E, float64, error)]
}

// challState caches the per-challenge verification engine.
type challState[Fd field.Field[E], E any] struct {
	ch *challenge[E]
	ev *snip.Evaluator[Fd, E]
}

// batchState holds per-batch verification sessions between rounds.
//
// Slab ownership: flats are the submissions' decoded share vectors — pooled
// slabs over F64 (Protocol.getFlat) — and everything else here (xShares, the
// proofs inside snipBatch, the MPC sessions' inputs) is a view into them.
// The batch owns them from Round1 until release, which runs exactly once:
// at MsgFinish, at ReleaseLeader, or when Round1 itself fails. mu orders
// release after any round handler still reading the views (a call whose
// leader already gave up on it), so a slab never re-enters the pool under a
// reader.
type batchState[Fd field.Field[E], E any] struct {
	mu       sync.Mutex
	released bool

	count     int
	flats     [][]E
	xShares   [][]E // per submission: the kPrime prefix the accumulator adds
	snipBatch *snip.BatchState[E]
	mpcSess   []*mpc.Session[Fd, E]
	validTaus []E // MPC: shares of the Valid assertion combination
}

// release returns the batch's slabs to the pool and drops every view of
// them. The caller holds bs.mu, or is the only one who can reach bs.
func (bs *batchState[Fd, E]) release() {
	for _, flat := range bs.flats {
		putFlat(flat)
	}
	bs.flats, bs.xShares = nil, nil
	bs.snipBatch, bs.mpcSess = nil, nil
	bs.released = true
}

// NewServer constructs server idx of the deployment. A fresh sealbox key
// pair is generated when priv is nil.
func NewServer[Fd field.Field[E], E any](pro *Protocol[Fd, E], idx int, priv *sealbox.PrivateKey) (*Server[Fd, E], error) {
	if idx < 0 || idx >= pro.Cfg.Servers {
		return nil, fmt.Errorf("core: server index %d out of range", idx)
	}
	if priv == nil {
		var err error
		_, priv, err = sealbox.GenerateKey()
		if err != nil {
			return nil, err
		}
	}
	s := &Server[Fd, E]{
		pro:        pro,
		idx:        idx,
		priv:       priv,
		pub:        priv.Public(),
		challenges: make(map[uint32]*challState[Fd, E]),
		lastChall:  make(map[uint32]uint32),
		batches:    make(map[uint64]*batchState[Fd, E]),
	}
	s.resetLocked()
	return s, nil
}

// PublicKey returns the server's sealbox key for clients.
func (s *Server[Fd, E]) PublicKey() *sealbox.PublicKey { return s.pub }

// Index returns the server's position in the deployment.
func (s *Server[Fd, E]) Index() int { return s.idx }

// Handle implements transport.Handler.
//
// Contract: payload may live in a caller-owned scratch buffer that is
// recycled the moment Handle returns — the leader builds verification-round
// requests in a pooled arena and frees them right after the broadcast, which
// an in-process peer (LoopbackPeer) delivers to Handle directly.
// Every handler below therefore copies whatever it keeps past the return
// (decodeBundle decodes into the batch's own slabs; rvec and
// unmarshalChallenge produce fresh memory); new handlers must do the same.
// The returned response is handed off to the transport with Handle keeping
// no reference, so it must be freshly allocated, never pooled or cached.
func (s *Server[Fd, E]) Handle(msgType byte, payload []byte) ([]byte, error) {
	switch msgType {
	case MsgSetChallenge:
		return s.handleSetChallenge(payload)
	case MsgRound1:
		return s.handleRound1(payload)
	case MsgRound2Batch:
		return s.handleBatchProbe(payload)
	case MsgMPCRound:
		return s.handleMPCRound(payload)
	case MsgFinish:
		return s.handleFinish(payload)
	case MsgAggregate:
		return s.handleAggregate()
	case MsgWindowPublish:
		return s.handleWindowPublish(payload)
	case MsgReset:
		s.mu.Lock()
		s.resetLocked()
		s.mu.Unlock()
		return nil, nil
	case MsgPublicKey:
		return s.pub.Bytes(), nil
	default:
		return nil, fmt.Errorf("core: server %d: unknown message type %d", s.idx, msgType)
	}
}

// Handler returns s.Handle as a transport.Handler.
func (s *Server[Fd, E]) Handler() transport.Handler { return s.Handle }

// ReleaseLeader drops every piece of round state a given leader server left
// behind: in-flight batches (xShares, verifier sessions), challenge engines,
// and challenge-window bookkeeping whose IDs carry leader in their top bits.
// Cluster members call it when the health checker declares a peer dead — a
// leader killed between Round1 and MsgFinish can never finish its batches,
// so without this the state would sit in the maps forever. The accumulator
// is untouched: finished batches stay counted.
//
// It returns how many batches and challenges were released, for logging.
func (s *Server[Fd, E]) ReleaseLeader(leader int) (batches, challenges int) {
	var dropped []*batchState[Fd, E]
	s.mu.Lock()
	for id, bs := range s.batches {
		if int(id>>48) == leader {
			delete(s.batches, id)
			dropped = append(dropped, bs)
		}
	}
	for id := range s.challenges {
		if int(id>>24) == leader {
			delete(s.challenges, id)
			challenges++
		}
	}
	for ns := range s.lastChall {
		if int(ns>>8) == leader {
			delete(s.lastChall, ns)
		}
	}
	s.mu.Unlock()
	// Outside s.mu: a round the dead leader started may still be running on
	// one of these batches, and release waits for it.
	for _, bs := range dropped {
		bs.mu.Lock()
		bs.release()
		bs.mu.Unlock()
	}
	return len(dropped), challenges
}

// acquireBatch looks up the challenge and batch a round handler names and
// locks the batch against release; the caller unlocks bs.mu when done.
func (s *Server[Fd, E]) acquireBatch(challID uint32, batchID uint64) (*challState[Fd, E], *batchState[Fd, E], error) {
	s.mu.Lock()
	chSt := s.challenges[challID]
	bs := s.batches[batchID]
	s.mu.Unlock()
	if chSt != nil && bs != nil {
		bs.mu.Lock()
		if !bs.released {
			return chSt, bs, nil
		}
		bs.mu.Unlock()
	}
	return nil, nil, fmt.Errorf("core: server %d: unknown batch %d", s.idx, batchID)
}

func (s *Server[Fd, E]) resetLocked() {
	acc := make([]E, s.pro.kPrime)
	f := s.pro.Cfg.Field
	for i := range acc {
		acc[i] = f.Zero()
	}
	s.acc = acc
	s.accCount = 0
	// In-flight batches are dropped, not released: their slabs go to the GC
	// instead of the pool, which needs no wait for handlers still on them.
	s.batches = make(map[uint64]*batchState[Fd, E])
	s.windows = make(map[uint64]*windowAcc[E])
	s.spilled = 0
}

func (s *Server[Fd, E]) handleSetChallenge(payload []byte) ([]byte, error) {
	r := &rbuf{b: payload}
	id := r.u32()
	if r.err != nil {
		return nil, errTruncated
	}
	ch, err := s.pro.unmarshalChallenge(r.b[r.off:])
	if err != nil {
		return nil, err
	}
	st := &challState[Fd, E]{ch: ch}
	if sys := s.pro.snipSys(); sys != nil {
		// The cache is keyed by (shape, challenge): in-process deployments,
		// where all servers share the Protocol's System, compute each
		// challenge's Lagrange weights once instead of once per server.
		st.ev = sys.CachedEvaluator(ch.sn)
	}
	// Challenge IDs carry their leader session in the top 16 bits; each
	// session keeps a window of three live challenges (the newest plus two
	// predecessors), so concurrent leader sessions rotate independently
	// without evicting one another's verification state. Three, not two,
	// because leaders prefetch: the next challenge is broadcast while
	// batches may still be in flight on the previous one, so "newest" runs
	// one step ahead of the challenge verification actually uses.
	ns := id >> 16
	s.mu.Lock()
	s.challenges[id] = st
	if prev, ok := s.lastChall[ns]; ok && prev != id {
		// Evict the slot falling out of the window. The counter is masked
		// to 16 bits (matching ensureChallenge's increment) so a wrapping
		// session never deletes a neighboring namespace's slot.
		delete(s.challenges, ns<<16|(prev-2)&0xFFFF)
	}
	s.lastChall[ns] = id
	s.mu.Unlock()
	return nil, nil
}

// handleRound1 ingests a batch of bundles. In SNIP/MPC modes it returns the
// servers' Round1 shares (and, for MPC, the first openings); in no-robust
// mode it accumulates immediately and returns nothing.
//
// A bundle this server cannot decode (bad box, unknown flag, wrong length,
// non-canonical element) costs only its own submission: the server verifies
// the all-zero share in its place, so the servers' shares no longer sum to a
// valid proof and the leader's combined check (or its bisection) rejects
// exactly that submission. A request that is itself malformed still fails
// as a whole — that is the leader's or the transport's fault, not a client's.
func (s *Server[Fd, E]) handleRound1(payload []byte) ([]byte, error) {
	p := s.pro
	f := p.Cfg.Field
	r := &rbuf{b: payload}
	challID := r.u32()
	batchID := r.u64()
	count := int(r.u32())
	// Every bundle carries a 4-byte length, so the payload bounds the count
	// before anything is sized by it.
	if r.err != nil || count < 0 || count > (len(payload)-r.off)/4 {
		return nil, errTruncated
	}

	s.mu.Lock()
	chSt := s.challenges[challID]
	s.mu.Unlock()
	if p.Cfg.Mode != ModeNoRobust && chSt == nil {
		return nil, fmt.Errorf("core: server %d: unknown challenge %d", s.idx, challID)
	}

	bs := &batchState[Fd, E]{count: count}
	stored := false
	defer func() {
		if !stored {
			bs.release() // failed, or no-robust: nobody else has seen bs
		}
	}()
	constServer := s.idx == 0

	// Decode phase: materialize every bundle into a slab and hand the
	// verifiers views of it — the SNIP inputs and proof shares (and, in MPC
	// mode, the cooperative sessions' inputs) are never copied.
	snipInputs := make([][]E, 0, count)
	snipProofs := make([]*snip.Proof[E], 0, count)
	mpcOpens := make([]*mpc.Open[E], 0, count)
	for j := 0; j < count; j++ {
		bundle := r.blob()
		if r.err != nil {
			return nil, errTruncated
		}
		flat := p.getFlat()
		bs.flats = append(bs.flats, flat)
		if err := p.decodeBundle(bundle, s.priv, flat); err != nil {
			zero := f.Zero()
			for i := range flat {
				flat[i] = zero
			}
		}
		x, triples, proofFlat, err := p.splitFlat(flat)
		if err != nil {
			return nil, err
		}
		bs.xShares = append(bs.xShares, x[:p.kPrime:p.kPrime])

		switch p.Cfg.Mode {
		case ModeNoRobust:
			// Accumulate unconditionally; no verification exists.
		case ModeSNIP:
			pf, err := p.ValidSys.UnflattenProof(proofFlat)
			if err != nil {
				return nil, err
			}
			snipInputs = append(snipInputs, x)
			snipProofs = append(snipProofs, pf)
		case ModeMPC:
			pf, err := p.TripleSys.UnflattenProof(proofFlat)
			if err != nil {
				return nil, err
			}
			snipInputs = append(snipInputs, triples)
			snipProofs = append(snipProofs, pf)
			sess, err := mpc.NewSession(f, p.Cfg.Scheme.Circuit(), p.Cfg.Servers, x, triples, constServer)
			if err != nil {
				return nil, err
			}
			open, done := sess.Start()
			bs.mpcSess = append(bs.mpcSess, sess)
			if done {
				open = &mpc.Open[E]{}
			}
			mpcOpens = append(mpcOpens, open)
		}
	}
	// Optional trailing collection-window stamp (window.go). Robust modes
	// re-learn it from MsgFinish, where accumulation actually happens; the
	// Round1 copy is for no-robust mode, which accumulates right here.
	wid := uint64(0)
	if r.off < len(r.b) {
		wid = r.u64()
	}
	if !r.done() {
		return nil, errTruncated
	}

	// Verify phase: one batch pass over all submissions. Beaver openings
	// are inherently per-submission, so the reply carries one pair each.
	w := &wbuf{}
	if p.Cfg.Mode != ModeNoRobust {
		st, r1s, err := chSt.ev.Batch().Round1(snipInputs, snipProofs, constServer)
		if err != nil {
			return nil, err
		}
		bs.snipBatch = st
		for j := 0; j < count; j++ {
			wvec(w, f, r1s[j].D)
			wvec(w, f, r1s[j].E)
			if p.Cfg.Mode == ModeMPC {
				w.u32(uint32(len(mpcOpens[j].D)))
				wvec(w, f, mpcOpens[j].D)
				wvec(w, f, mpcOpens[j].E)
			}
		}
	}

	s.mu.Lock()
	if p.Cfg.Mode == ModeNoRobust {
		for _, x := range bs.xShares {
			field.AddVec(f, s.acc, x)
			s.windowAddLocked(wid, x)
		}
		s.accCount += uint64(count)
	} else {
		s.batches[batchID] = bs
		stored = true
	}
	s.mu.Unlock()
	return w.b, nil
}

// handleBatchProbe consumes the opened SNIP masks (on the first probe of a
// batch) and answers random-linear-combination probes over submission
// ranges. The leader probes [0, count) once for the common all-honest case
// and bisects with fresh λ seeds only when a range fails.
func (s *Server[Fd, E]) handleBatchProbe(payload []byte) ([]byte, error) {
	p := s.pro
	f := p.Cfg.Field
	sys := p.snipSys()
	if sys == nil {
		return nil, errors.New("core: Round2Batch in no-robust mode")
	}
	r := &rbuf{b: payload}
	challID := r.u32()
	batchID := r.u64()
	hasOpened := r.u8()
	chSt, bs, err := s.acquireBatch(challID, batchID)
	if err != nil {
		return nil, err
	}
	defer bs.mu.Unlock()
	bv := chSt.ev.Batch()
	if hasOpened == 1 {
		reps := sys.Reps
		if sys.M == 0 {
			reps = 0
		}
		opened := make([]*snip.Round1[E], bs.count)
		for j := range opened {
			opened[j] = &snip.Round1[E]{D: rvec(r, f, reps), E: rvec(r, f, reps)}
		}
		if r.err != nil {
			return nil, errTruncated
		}
		if err := bv.SetOpened(bs.snipBatch, opened, p.Cfg.Servers); err != nil {
			return nil, err
		}
	}
	seed := r.blob()
	lo := int(int32(r.u32()))
	hi := int(int32(r.u32()))
	if r.err != nil || !r.done() || len(seed) != prg.SeedSize {
		return nil, errTruncated
	}
	if lo < 0 || hi > bs.count || lo >= hi {
		return nil, snip.ErrBatchState
	}
	var ps prg.Seed
	copy(ps[:], seed)
	lambda := snip.RLCCoeffs(f, ps, hi-lo)
	r2, err := bv.Combined(bs.snipBatch, lambda, lo, hi)
	if err != nil {
		return nil, err
	}
	w := &wbuf{}
	wvec(w, f, r2.Sigma)
	wvec(w, f, []E{r2.Tau})
	return w.b, nil
}

// handleMPCRound advances the cooperative Valid evaluation by one round
// (ModeMPC only). The response carries, per submission, either the next
// openings or — once evaluation finishes — the Valid assertion share.
func (s *Server[Fd, E]) handleMPCRound(payload []byte) ([]byte, error) {
	p := s.pro
	f := p.Cfg.Field
	if p.Cfg.Mode != ModeMPC {
		return nil, errors.New("core: MPCRound outside MPC mode")
	}
	r := &rbuf{b: payload}
	challID := r.u32()
	batchID := r.u64()
	chSt, bs, err := s.acquireBatch(challID, batchID)
	if err != nil {
		return nil, err
	}
	defer bs.mu.Unlock()
	if bs.validTaus == nil {
		bs.validTaus = make([]E, bs.count)
	}
	w := &wbuf{}
	for j := 0; j < bs.count; j++ {
		n := int(r.u32())
		if r.err != nil {
			return nil, errTruncated
		}
		opened := &mpc.Open[E]{D: rvec(r, f, n), E: rvec(r, f, n)}
		if r.err != nil {
			return nil, errTruncated
		}
		sess := bs.mpcSess[j]
		next, done, err := sess.Step(opened)
		if err != nil {
			return nil, err
		}
		if done {
			tau, err := sess.TauShare(chSt.ch.validRho)
			if err != nil {
				return nil, err
			}
			bs.validTaus[j] = tau
			w.u8(1)
			wvec(w, f, []E{tau})
		} else {
			w.u8(0)
			w.u32(uint32(len(next.D)))
			wvec(w, f, next.D)
			wvec(w, f, next.E)
		}
	}
	if !r.done() {
		return nil, errTruncated
	}
	return w.b, nil
}

// handleFinish applies the leader's accept decisions: accepted submissions'
// truncated shares enter the accumulator, and the batch state is dropped.
func (s *Server[Fd, E]) handleFinish(payload []byte) ([]byte, error) {
	p := s.pro
	f := p.Cfg.Field
	r := &rbuf{b: payload}
	batchID := r.u64()
	bitmap := r.blob()
	if r.err != nil {
		return nil, errTruncated
	}
	// Optional trailing collection-window stamp (window.go); absent means
	// unwindowed, and the per-window path stays dormant.
	wid := uint64(0)
	if r.off < len(r.b) {
		wid = r.u64()
	}
	if !r.done() {
		return nil, errTruncated
	}
	s.mu.Lock()
	bs := s.batches[batchID]
	delete(s.batches, batchID)
	s.mu.Unlock()
	if bs == nil {
		return nil, fmt.Errorf("core: server %d: finish for unknown batch %d", s.idx, batchID)
	}
	// The batch is out of the table; wait out any round still reading its
	// slabs, apply the decisions, and retire the slabs whatever happens.
	bs.mu.Lock()
	defer bs.mu.Unlock()
	defer bs.release()
	if len(bitmap) != (bs.count+7)/8 {
		return nil, errTruncated
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for j := 0; j < bs.count; j++ {
		if bitmap[j/8]&(1<<uint(j%8)) == 0 {
			continue
		}
		field.AddVec(f, s.acc, bs.xShares[j])
		s.accCount++
		s.windowAddLocked(wid, bs.xShares[j])
	}
	return nil, nil
}

// handleAggregate publishes the accumulator (Section 3, step "Publish").
func (s *Server[Fd, E]) handleAggregate() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := &wbuf{}
	w.u64(s.accCount)
	wvec(w, s.pro.Cfg.Field, s.acc)
	return w.b, nil
}

// AddNoise lets a deployment add differential-privacy noise shares to the
// local accumulator before publishing (Section 7): each server adds its own
// share so no single server ever sees the un-noised total.
func (s *Server[Fd, E]) AddNoise(noise []E) error {
	if len(noise) != s.pro.kPrime {
		return errors.New("core: noise vector length mismatch")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	field.AddVec(s.pro.Cfg.Field, s.acc, noise)
	return nil
}
