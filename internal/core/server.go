package core

import (
	"errors"
	"fmt"
	"slices"
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

	mu       sync.Mutex
	batches  map[uint64]*batchState[Fd, E]
	commits  map[uint32]*commitLog // per leader session (batch ID >> 32): batches already committed
	acc      []E
	accCount uint64
	windows  map[uint64]*windowAcc[E] // per-collection-window accumulators (see window.go)
	spilled  uint64                   // shares rolled forward past a sealed window

	// windowFn stamps batches with their collection window (leader sessions
	// read it at commit time); noiseFn is this server's own DP-at-seal
	// policy. Both are atomics so handlers and sessions read them without
	// taking mu; nil means windowing / noise is off.
	windowFn atomic.Pointer[func() uint64]
	noiseFn  atomic.Pointer[func(k int) ([]E, float64, error)]
}

// batchState holds per-batch verification sessions between rounds. The
// batch's challenge seed, carried in its Round1, is all of its verifier
// randomness: ev is the SNIP challenge's evaluator it expands to, the
// combined probe's λ and (Prio-MPC) validRho are derived from it.
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
	seed      prg.Seed
	ev        *snip.Evaluator[Fd, E]
	validRho  []E // MPC: coefficients of the Valid assertion combination
	flats     [][]E
	xShares   [][]E // per submission: the kPrime prefix the accumulator adds
	snipBatch *snip.BatchState[E]
	mpcSess   []*mpc.Session[Fd, E]
	validTaus []E // MPC: shares of the Valid assertion combination
}

// release returns the batch's slabs to p's pool and drops every view of
// them. The caller holds bs.mu, or is the only one who can reach bs.
func (bs *batchState[Fd, E]) release(p *Protocol[Fd, E]) {
	for _, flat := range bs.flats {
		p.putFlat(flat)
	}
	bs.flats, bs.xShares = nil, nil
	bs.snipBatch, bs.mpcSess = nil, nil
	bs.released = true
}

// commitMemory is how many committed batch IDs a server remembers per leader
// session. A leader re-sends a commit only within its retry budget (a few
// backoffs), long before the same session commits this many more batches.
const commitMemory = 1024

// commitLog is one leader session's record of the batches a server has
// committed, so that a re-sent MsgFinish is acknowledged without being
// applied twice: a ring of the session's newest commitMemory batch IDs.
// Only a MsgFinish naming no live batch searches it, which is rare.
type commitLog struct {
	ids  [commitMemory]uint64
	next int // IDs ever added; ids[next%commitMemory] is the oldest once full
}

// committedLocked reports whether this server already applied the commit
// for batchID. Callers hold s.mu.
func (s *Server[Fd, E]) committedLocked(batchID uint64) bool {
	c := s.commits[uint32(batchID>>32)]
	if c == nil {
		return false
	}
	return slices.Contains(c.ids[:min(c.next, commitMemory)], batchID)
}

// noteCommitLocked records batchID as committed. Callers hold s.mu.
func (s *Server[Fd, E]) noteCommitLocked(batchID uint64) {
	ns := uint32(batchID >> 32)
	c := s.commits[ns]
	if c == nil {
		c = &commitLog{}
		s.commits[ns] = c
	}
	c.ids[c.next%commitMemory] = batchID
	c.next++
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
		pro:     pro,
		idx:     idx,
		priv:    priv,
		pub:     priv.Public(),
		batches: make(map[uint64]*batchState[Fd, E]),
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
// (decodeBundle decodes into the batch's own slabs; rvec and the challenge
// seed produce fresh memory); new handlers must do the same.
// The returned response is handed off to the transport with Handle keeping
// no reference, so it must be freshly allocated, never pooled or cached.
func (s *Server[Fd, E]) Handle(msgType byte, payload []byte) ([]byte, error) {
	switch msgType {
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
// behind: in-flight batches (xShares, verifier sessions) and the record of
// committed batches, all those whose IDs carry leader in their top bits.
// Cluster members call it when the health checker declares a peer dead — a
// leader killed between Round1 and MsgFinish can never finish its batches,
// so without this the state would sit in the maps forever. The accumulator
// is untouched: finished batches stay counted. A live leader wrongly
// declared dead loses only the batches in flight; its next batch carries
// its challenge seed again.
//
// It returns how many batches were released, for logging.
func (s *Server[Fd, E]) ReleaseLeader(leader int) int {
	var dropped []*batchState[Fd, E]
	s.mu.Lock()
	for id, bs := range s.batches {
		if int(id>>48) == leader {
			delete(s.batches, id)
			dropped = append(dropped, bs)
		}
	}
	for ns := range s.commits {
		if int(ns>>16) == leader {
			delete(s.commits, ns)
		}
	}
	s.mu.Unlock()
	// Outside s.mu: a round the dead leader started may still be running on
	// one of these batches, and release waits for it.
	for _, bs := range dropped {
		bs.mu.Lock()
		bs.release(s.pro)
		bs.mu.Unlock()
	}
	return len(dropped)
}

// acquireBatch looks up the batch a round handler names and locks it
// against release; the caller unlocks bs.mu when done. The challenge
// number only names the batch's challenge in the error.
func (s *Server[Fd, E]) acquireBatch(challID uint32, batchID uint64) (*batchState[Fd, E], error) {
	s.mu.Lock()
	bs := s.batches[batchID]
	s.mu.Unlock()
	if bs != nil {
		bs.mu.Lock()
		if !bs.released {
			return bs, nil
		}
		bs.mu.Unlock()
	}
	return nil, fmt.Errorf("core: server %d: unknown batch %d (challenge %#x)", s.idx, batchID, challID)
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
	s.commits = make(map[uint32]*commitLog)
	s.windows = make(map[uint64]*windowAcc[E])
	s.spilled = 0
}

// handleRound1 ingests a batch of bundles. In SNIP/MPC modes it returns the
// servers' Round1 shares (and, for MPC, the first openings); in no-robust
// mode it accumulates immediately and returns nothing. In the robust modes
// the request carries the batch's challenge seed after the count; the
// evaluator cache turns it into the SNIP challenge at the cost of a map
// lookup. A no-robust Round1 carries no seed.
//
// A bundle this server cannot decode (bad box, unknown flag, wrong length,
// non-canonical element) costs only its own submission: the server verifies
// the all-zero share in its place, so the servers' shares no longer sum to a
// valid proof and the leader's combined check (or its reveal) rejects
// exactly that submission. A request that is itself malformed still fails
// as a whole — that is the leader's or the transport's fault, not a client's.
func (s *Server[Fd, E]) handleRound1(payload []byte) ([]byte, error) {
	p := s.pro
	f := p.Cfg.Field
	r := &rbuf{b: payload}
	r.u32() // challenge number: names the challenge in traces only
	batchID := r.u64()
	count := int(r.u32())
	var seed prg.Seed
	if p.Cfg.Mode != ModeNoRobust {
		r.raw(seed[:])
	}
	// Every bundle carries a 4-byte length, so the payload bounds the count
	// before anything is sized by it.
	if r.err != nil || count < 0 || count > (len(payload)-r.off)/4 {
		return nil, errTruncated
	}

	bs := &batchState[Fd, E]{count: count, seed: seed}
	stored := false
	defer func() {
		if !stored {
			bs.release(s.pro) // failed, or no-robust: nobody else has seen bs
		}
	}()
	constServer := s.idx == 0

	bundles := make([][]byte, count)
	for j := range bundles {
		bundles[j] = r.blob()
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

	// Decode phase: one batch agreement over the bundles' encapsulations,
	// then materialize every bundle into a slab and hand the verifiers views
	// of it — the SNIP inputs and proof shares (and, in MPC mode, the
	// cooperative sessions' inputs) are never copied.
	agrs := p.agree(bundles, s.priv)
	snipInputs := make([][]E, 0, count)
	proofFlats := make([][]E, 0, count)
	mpcOpens := make([]*mpc.Open[E], 0, count)
	for j, bundle := range bundles {
		flat := p.getFlat()
		bs.flats = append(bs.flats, flat)
		var agr *sealbox.Agreement
		if agrs != nil {
			agr = &agrs[j]
		}
		if err := p.decodeAgreed(bundle, agr, s.idx, flat); err != nil {
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
			snipInputs = append(snipInputs, x)
			proofFlats = append(proofFlats, proofFlat)
		case ModeMPC:
			snipInputs = append(snipInputs, triples)
			proofFlats = append(proofFlats, proofFlat)
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

	// Verify phase: one batch pass over all submissions. Beaver openings
	// are inherently per-submission, so the reply carries one pair each.
	w := &wbuf{}
	if sys := p.snipSys(); sys != nil {
		w.b = make([]byte, 0, count*2*sys.Reps*f.ElemSize())
		// The batch ID's top half is its leader session, the stream its
		// seeds rotate along.
		bs.ev = sys.CachedEvaluator(batchID>>32, seed)
		if p.Cfg.Mode == ModeMPC {
			bs.validRho = p.validRho(seed)
		}
		snipProofs, err := sys.UnflattenProofs(proofFlats)
		if err != nil {
			return nil, err
		}
		st, r1s, err := bs.ev.Batch().Round1(snipInputs, snipProofs, constServer)
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

// handleBatchProbe answers the leader's Round2 probes of one batch. The
// combined probe (probeCombined) consumes the opened SNIP masks and replies
// with this server's share of the random linear combination over the whole
// batch, its λ derived from the batch's challenge seed and ID; the reveal
// (probeReveal), which the leader sends only when that check failed,
// replies with every submission's own Round2 share.
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
	kind := r.u8()
	if r.err != nil || (kind != probeCombined && kind != probeReveal) {
		return nil, errTruncated
	}
	bs, err := s.acquireBatch(challID, batchID)
	if err != nil {
		return nil, err
	}
	defer bs.mu.Unlock()
	bv := bs.ev.Batch()
	w := &wbuf{b: make([]byte, 0, (sys.Reps+1)*f.ElemSize())}
	if kind == probeReveal {
		w.b = make([]byte, 0, bs.count*(sys.Reps+1)*f.ElemSize())
		if !r.done() {
			return nil, errTruncated
		}
		for j := 0; j < bs.count; j++ {
			r2, err := bv.Single(bs.snipBatch, j)
			if err != nil {
				return nil, err
			}
			wvec(w, f, r2.Sigma)
			wvec(w, f, []E{r2.Tau})
		}
		return w.b, nil
	}
	reps := sys.Reps
	if sys.M == 0 {
		reps = 0
	}
	opened := make([]*snip.Round1[E], bs.count)
	for j := range opened {
		opened[j] = &snip.Round1[E]{D: rvec(r, f, reps), E: rvec(r, f, reps)}
	}
	if !r.done() {
		return nil, errTruncated
	}
	if err := bv.SetOpened(bs.snipBatch, opened, p.Cfg.Servers); err != nil {
		return nil, err
	}
	lambda := snip.RLCCoeffs(f, deriveSeed(bs.seed, "rlc", batchID), bs.count)
	r2, err := bv.Combined(bs.snipBatch, lambda, 0, bs.count)
	if err != nil {
		return nil, err
	}
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
	bs, err := s.acquireBatch(challID, batchID)
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
			tau, err := sess.TauShare(bs.validRho)
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

// handleFinish applies the leader's accept decisions — the batch's commit:
// accepted submissions' truncated shares enter the accumulator, and the batch
// state is dropped. A leader that lost the reply re-sends the identical
// commit; a batch ID this server already committed is acknowledged and
// nothing is applied again. The lookup, the accumulation and the record of
// the commit share one critical section, so two copies of a commit can never
// both apply.
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
	if bs == nil {
		committed := s.committedLocked(batchID)
		s.mu.Unlock()
		if committed {
			return nil, nil
		}
		return nil, fmt.Errorf("core: server %d: finish for unknown batch %d", s.idx, batchID)
	}
	delete(s.batches, batchID)
	// A batch found in the table has not been released, and round handlers
	// only read its shares, so they can be summed here without bs.mu.
	valid := len(bitmap) == (bs.count+7)/8
	if valid {
		for j := 0; j < bs.count; j++ {
			if bitmap[j/8]&(1<<uint(j%8)) == 0 {
				continue
			}
			field.AddVec(f, s.acc, bs.xShares[j])
			s.accCount++
			s.windowAddLocked(wid, bs.xShares[j])
		}
		s.noteCommitLocked(batchID)
	}
	s.mu.Unlock()
	// The batch is out of the table; wait out any round still reading its
	// slabs and retire them whatever happened.
	bs.mu.Lock()
	bs.release(s.pro)
	bs.mu.Unlock()
	if !valid {
		return nil, errTruncated
	}
	return nil, nil
}

// handleAggregate publishes the accumulator (Section 3, step "Publish").
// A server that seals windows with DP noise refuses: its all-time
// accumulator carries none of that noise, and every member's all-time share
// summed would undo the per-window release's privacy.
func (s *Server[Fd, E]) handleAggregate() ([]byte, error) {
	if s.noiseFn.Load() != nil {
		return nil, fmt.Errorf("core: server %d: refusing the all-time aggregate: this server seals windows with DP noise, and its accumulator is un-noised", s.idx)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := &wbuf{}
	w.u64(s.accCount)
	wvec(w, s.pro.Cfg.Field, s.acc)
	return w.b, nil
}
