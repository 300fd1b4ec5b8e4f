package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prio/internal/field"
	"prio/internal/mpc"
	"prio/internal/prg"
	"prio/internal/sealbox"
	"prio/internal/snip"
	"prio/internal/transport"
)

// Leader drives the verification of client submissions across the server
// set (Appendix I: "we assign a single Prio server to be the leader that
// coordinates the checking of each client data submission"). The leader is
// itself one of the servers; in processing a batch it transmits roughly s
// times more bytes than a non-leader, which is why deployments rotate
// leadership across servers for load balance (Figure 5).
//
// A batch has two phases. Verification (verify) is Round1 plus the Round2
// probes (and the MPC rounds in Prio-MPC mode) and ends in one decision per
// submission; a failed attempt commits nothing and can be re-run under a
// fresh batch ID. The commit (commit) is the MsgFinish carrying the accept
// bitmap and window stamp, sent once per batch ID and only ever re-sent
// as is. ProcessBatch is the two back to back.
//
// A Leader tolerates concurrent batches: lmu serializes only challenge
// rotation and batch-sequence allocation, while the rounds themselves run
// lock-free, so independent batches overlap on the wire and on the servers'
// cores. One caveat bounds the concurrency: the servers keep a bounded
// window of live challenges per session (three, one of which the prefetcher
// occupies), so a batch survives one rotation but not two. Rotation
// therefore waits until no batch is still verifying under the challenge
// its prefetch evicts (ensureChallenge). A commit names only its batch ID,
// never a challenge, so a decided batch no longer counts. Pipeline keeps
// that wait rare: it dispatches a shard's next batch while others verify
// only if the session's verifying submissions plus that batch stay within
// ChallengeEvery, up to the depth overlapDepth measures, and while the
// shares its verifying and committing batches pin on each server stay
// within the session's share budget.
type Leader[Fd field.Field[E], E any] struct {
	*Server[Fd, E]
	peers []transport.Peer // indexed by server; peers[Index()] is a loopback
	sess  int              // session sub-namespace (0 for NewLeader)

	lmu       sync.Mutex
	challID   uint32
	haveChall bool
	batchSeq  uint64
	sinceCh   int
	next      *challPrefetch // pre-generated, pre-broadcast next challenge
	// verifying counts the batches in verification under the current
	// challenge and the one before it, indexed by challenge-ID parity: the
	// slot of the next challenge is that of the one its rotation evicts.
	verifying [2]int
	idle      sync.Cond // L is &lmu; broadcast when a verifying count drops to zero

	overlap atomic.Uint64 // running average of completed batches' roundClock.load, as math.Float64bits
	// depthCap is the deepest the pipeline's rules let this session's shard
	// go with full batches (NewPipeline sets it; 1 outside a Pipeline). It
	// clamps roundClock.load and overlapDepth.
	depthCap int

	// m carries the pipeline's stage metrics; nil (a Leader built outside a
	// Pipeline) disables them.
	m *pipeMetrics
}

// challPrefetch is a challenge being generated and broadcast off-path, ahead
// of the rotation that will adopt it.
type challPrefetch struct {
	id   uint32
	done chan struct{}
	err  error
}

// NewLeader wraps a server with coordination duties. peers must hold one
// Peer per server in index order; the leader's own slot should be a
// transport.LoopbackPeer (NewLocalCluster arranges this).
//
// Any server may lead, and several may lead concurrently for different
// submissions — the load-balancing arrangement behind Figure 5 ("each
// server is a leader for a smaller share of incoming submissions").
// Challenge and batch identifiers are namespaced by the leader's index so
// concurrent leaders never collide in the servers' session tables.
func NewLeader[Fd field.Field[E], E any](srv *Server[Fd, E], peers []transport.Peer) (*Leader[Fd, E], error) {
	return NewLeaderSession(srv, peers, 0)
}

// NewLeaderSession wraps a server with coordination duties under session
// sub-namespace sess ∈ [0, 256). Sessions extend the per-leader ID
// namespacing one level down: challenge IDs carry (server index, session)
// in their top 16 bits and batch IDs in their top 32, so many sessions of
// the same leader server can verify batches concurrently without colliding
// in the servers' challenge and batch tables. This is the mechanism behind
// Pipeline's shards (and the Appendix-I observation that verification of
// distinct submissions is embarrassingly parallel).
func NewLeaderSession[Fd field.Field[E], E any](srv *Server[Fd, E], peers []transport.Peer, sess int) (*Leader[Fd, E], error) {
	if len(peers) != srv.pro.Cfg.Servers {
		return nil, fmt.Errorf("core: leader needs %d peers, got %d", srv.pro.Cfg.Servers, len(peers))
	}
	if sess < 0 || sess > 0xFF {
		return nil, fmt.Errorf("core: leader session %d out of range [0, 256)", sess)
	}
	l := &Leader[Fd, E]{
		Server:   srv,
		peers:    peers,
		sess:     sess,
		challID:  uint32(srv.idx)<<24 | uint32(sess)<<16,
		batchSeq: uint64(srv.idx)<<48 | uint64(sess)<<32,
		depthCap: 1,
	}
	l.idle.L = &l.lmu
	return l, nil
}

// newChallenge samples fresh verification randomness for the deployment.
func (p *Protocol[Fd, E]) newChallenge() (*challenge[E], error) {
	ch := &challenge[E]{}
	if sys := p.snipSys(); sys != nil {
		sn, err := sys.NewChallenge(rand.Reader)
		if err != nil {
			return nil, err
		}
		ch.sn = sn
	}
	if p.Cfg.Mode == ModeMPC {
		rho, err := field.SampleVec(p.Cfg.Field, rand.Reader, len(p.Cfg.Scheme.Circuit().Asserts))
		if err != nil {
			return nil, err
		}
		ch.validRho = rho
	}
	return ch, nil
}

// roundClock times one batch's verification, the part of its life that
// holds a slot in its shard's depth. wall and self sum its broadcasts' wall
// time and the part of it the leader's own loopback call took: wall/self is
// how many such batches fit in the rounds before the leader's own work,
// rather than waiting on the other servers, fills them. start and cpu0
// bracket the verification against the process's CPU clock, because a wait
// on another server is only worth overlapping if some CPU is idle to
// overlap it with: when the servers share the leader's cores, waiting on
// them is waiting on those cores.
type roundClock struct {
	wall, self time.Duration
	start      time.Time
	cpu0       time.Duration // processCPU at start
}

// load is wall/self scaled by the share of the host's CPU that sat idle
// over the batch's verification, capped at limit: about 50 × 0.5 on a 5 ms
// link with the CPUs half idle, 4 × 0.05 when the servers saturate the
// leader's cores.
func (c *roundClock) load(limit int) float64 {
	if c.self <= 0 {
		return float64(limit)
	}
	life := time.Since(c.start)
	busy := float64(processCPU()-c.cpu0) / (float64(life) * float64(runtime.GOMAXPROCS(0)))
	return min(float64(c.wall)/float64(c.self)*(1-min(busy, 1)), float64(limit))
}

// noteOverlap folds a decided batch's clock into the session's running
// average (weight 1/8: one batch's CPU reading is noisy over a few
// milliseconds). Concurrent batches may race the read-modify-write; a lost
// update only slows the average down.
func (l *Leader[Fd, E]) noteOverlap(c *roundClock) {
	avg := math.Float64frombits(l.overlap.Load())
	l.overlap.Store(math.Float64bits(avg + (c.load(l.depthCap)-avg)/8))
}

// overlapDepth is how many batches this session can usefully keep in
// verification: the running average of roundClock.load, rounded up and
// clamped to [1, depthCap]. It is 1 before any batch is decided and while
// the host's CPUs are saturated, and on a high-latency link with idle CPUs
// it is wall/self times the idle share.
func (l *Leader[Fd, E]) overlapDepth() int {
	return int(min(max(math.Ceil(math.Float64frombits(l.overlap.Load())), 1), float64(l.depthCap)))
}

// broadcast issues the same call to every server in parallel and collects
// the responses in server order. A non-nil rt adds the broadcast's wall time
// and the leader's own call time to it.
func (l *Leader[Fd, E]) broadcast(msgType byte, payloads [][]byte, rt *roundClock) ([][]byte, error) {
	resps, errs := l.call(msgType, payloads, nil, rt)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: server %d: %w", i, err)
		}
	}
	return resps, nil
}

// call is broadcast without the error summary: it calls every server i
// whose skip[i] is false (all of them when skip is nil) in parallel and
// returns each one's response and error in server order.
func (l *Leader[Fd, E]) call(msgType byte, payloads [][]byte, skip []bool, rt *roundClock) ([][]byte, []error) {
	s := len(l.peers)
	resps := make([][]byte, s)
	errs := make([]error, s)
	var self time.Duration
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < s; i++ {
		if skip != nil && skip[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c0 := time.Now()
			resps[i], errs[i] = l.peers[i].Call(msgType, payloads[i])
			if i == l.idx {
				self = time.Since(c0)
			}
		}(i)
	}
	wg.Wait()
	if rt != nil {
		rt.wall += time.Since(t0)
		rt.self += self
	}
	return resps, errs
}

// same builds an identical payload list for broadcast.
func (l *Leader[Fd, E]) same(payload []byte) [][]byte {
	out := make([][]byte, len(l.peers))
	for i := range out {
		out[i] = payload
	}
	return out
}

// ensureChallenge rotates the shared challenge when the Appendix-I window Q
// is exhausted (or none exists yet). Callers must hold lmu; the counter
// increments within the session's 16-bit slot so rotation never bleeds into
// a neighboring session namespace.
//
// Rotation prefers a prefetched challenge: right after each rotation the
// leader starts generating and broadcasting the *next* challenge on a
// background goroutine, so by the time the window is exhausted again the
// servers already hold it and rotation reduces to a counter bump — no
// challenge sampling or MsgSetChallenge round-trip stalls the session (or,
// under the pipeline, the shard) at the window boundary. The servers keep a
// window of three live challenges per session namespace to make the early
// broadcast safe for batches still in flight on the previous challenge.
//
// Rotating to challenge c+1 starts the prefetch of c+2, whose install
// evicts c−1 from the servers' window. A batch still verifying under c−1 —
// one overtaken by a whole window's worth of later batches — would then
// fail, so rotation first waits (releasing lmu) until none is left.
func (l *Leader[Fd, E]) ensureChallenge(upcoming int) error {
	if l.pro.Cfg.Mode == ModeNoRobust {
		return nil
	}
	for {
		if l.haveChall && l.sinceCh+upcoming <= l.pro.Cfg.ChallengeEvery {
			return nil
		}
		if l.verifying[(l.challID+1)&1] == 0 {
			break
		}
		l.idle.Wait()
	}
	if pf := l.next; pf != nil {
		l.next = nil
		<-pf.done // almost always already closed: the prefetch started a full window ago
		if pf.err == nil {
			l.challID = pf.id
			l.haveChall = true
			l.sinceCh = 0
			l.prefetchNext()
			return nil
		}
		// The prefetch failed (e.g. a peer hiccup); fall through and rotate
		// synchronously under the same ID so the counter stays contiguous.
	}
	nextID := l.challID&0xFFFF0000 | (l.challID+1)&0xFFFF
	if err := l.installChallenge(nextID); err != nil {
		return err
	}
	l.challID = nextID
	l.haveChall = true
	l.sinceCh = 0
	l.prefetchNext()
	return nil
}

// installChallenge samples fresh verification randomness and broadcasts it
// to every server under the given challenge ID.
func (l *Leader[Fd, E]) installChallenge(id uint32) error {
	ch, err := l.pro.newChallenge()
	if err != nil {
		return err
	}
	w := &wbuf{}
	w.u32(id)
	w.raw(l.pro.marshalChallenge(ch))
	_, err = l.broadcast(MsgSetChallenge, l.same(w.b), nil)
	return err
}

// prefetchNext starts generating and broadcasting the next challenge in the
// background. Callers must hold lmu. At most one prefetch is outstanding per
// session, and its result is only adopted under lmu, so the session's
// challenge counter stays strictly sequential.
func (l *Leader[Fd, E]) prefetchNext() {
	pf := &challPrefetch{
		id:   l.challID&0xFFFF0000 | (l.challID+1)&0xFFFF,
		done: make(chan struct{}),
	}
	l.next = pf
	go func() {
		pf.err = l.installChallenge(pf.id)
		close(pf.done)
	}()
}

// ProcessBatch verifies and aggregates a batch of submissions, returning the
// per-submission accept decisions. It is the batch's two phases back to
// back: verification (verify), then the commit that applies the decisions
// on every server (commit).
//
// ProcessBatch may be called concurrently: the leader lock covers only
// challenge rotation and batch-ID allocation, after which each batch runs
// its rounds independently. Servers key their per-batch state by the
// allocated batch ID, so overlapping batches never interfere.
//
// A submission that is malformed on its own — the wrong number of bundles
// here, a bundle some server cannot decode in Round1 — is rejected
// individually; it never fails the submissions batched with it.
func (l *Leader[Fd, E]) ProcessBatch(subs []*Submission) ([]bool, error) {
	d, err := l.verify(subs)
	if err != nil {
		return nil, err
	}
	if err := l.commit(d); err != nil {
		return nil, err
	}
	return d.accepts, nil
}

// decision is a verified batch waiting for its commit: the accept verdicts
// and the MsgFinish that applies them on every server.
type decision struct {
	accepts []bool
	finish  []byte // MsgFinish payload: batch ID, accept bitmap, window stamp; nil when there is nothing to commit
	applied []bool // per server: the commit was acknowledged
}

// verify is a batch's verification phase: Round1, the Round2 probes and (in
// Prio-MPC mode) the MPC rounds under a freshly allocated batch ID, ending
// in one decision per submission. It commits nothing, so a failed attempt
// can be re-run under a new batch ID.
func (l *Leader[Fd, E]) verify(subs []*Submission) (*decision, error) {
	servers := l.pro.Cfg.Servers
	good := make([]*Submission, 0, len(subs))
	for _, sub := range subs {
		if len(sub.Bundles) == servers {
			good = append(good, sub)
		}
	}
	d, err := l.verifyBatch(good)
	if err != nil || len(good) == len(subs) {
		return d, err
	}
	verdicts := d.accepts
	d.accepts = make([]bool, len(subs))
	for i, sub := range subs {
		if len(sub.Bundles) == servers {
			d.accepts[i], verdicts = verdicts[0], verdicts[1:]
		}
	}
	return d, nil
}

// commit sends d's MsgFinish to every server that has not acknowledged it.
// A server whose call fails stays pending, so calling commit again re-sends
// the identical commit — same batch ID, bitmap and window stamp — to those
// servers only. Servers acknowledge a commit they already applied without
// applying it again, so a reply lost after the apply is harmless too. Once
// sent, a commit is never replaced by a re-verification: some servers may
// already have applied it.
func (l *Leader[Fd, E]) commit(d *decision) error {
	if d.finish == nil {
		return nil
	}
	if d.applied == nil {
		d.applied = make([]bool, len(l.peers))
	}
	t0 := l.m.start()
	_, errs := l.call(MsgFinish, l.same(d.finish), d.applied, nil)
	var err error
	for i, e := range errs {
		switch {
		case e == nil:
			d.applied[i] = true
		case err == nil:
			err = fmt.Errorf("core: server %d: %w", i, e)
		}
	}
	if err == nil {
		l.m.observeFinish(t0)
	}
	return err
}

// verifyBatch runs the verification rounds over submissions that each carry
// one bundle per server.
func (l *Leader[Fd, E]) verifyBatch(subs []*Submission) (*decision, error) {
	p := l.pro
	f := p.Cfg.Field
	count := len(subs)
	if count == 0 {
		return &decision{}, nil
	}
	// rt times the batch's verification: the slot it holds in its shard's
	// depth. If it reaches a decision, it feeds the session's overlapDepth.
	rt := roundClock{start: time.Now(), cpu0: processCPU()}

	// Critical section: rotate the challenge if the window is exhausted and
	// allocate this batch's identifiers. The network rounds below run
	// outside the lock so in-flight batches pipeline.
	l.lmu.Lock()
	if err := l.ensureChallenge(count); err != nil {
		l.lmu.Unlock()
		return nil, err
	}
	l.sinceCh += count
	// Like the challenge counter, the batch counter increments within its
	// session's 32-bit slot so it can never wrap into a neighboring
	// session's namespace.
	l.batchSeq = l.batchSeq&^uint64(0xFFFFFFFF) | (l.batchSeq+1)&0xFFFFFFFF
	batchID := l.batchSeq
	challID := l.challID
	l.verifying[challID&1]++
	l.lmu.Unlock()
	defer func() {
		l.lmu.Lock()
		l.verifying[challID&1]--
		if l.verifying[challID&1] == 0 {
			l.idle.Broadcast()
		}
		l.lmu.Unlock()
	}()

	// Stamp the batch with the collection window open right now (0 when
	// windowing is off). One stamp per batch, leader-assigned, so every
	// server files these submissions under the same window regardless of
	// clock skew — however late the commit lands; it rides in Round1 (for
	// no-robust accumulation) and in the commit (where the robust modes
	// accumulate).
	wid := l.currentWindow()

	// In the robust modes, Round1 seeds per-batch state on every server
	// that completes it, and only MsgFinish releases that state. If the
	// batch fails in any later round — or Round1 itself fails on just some
	// servers — send a best-effort all-reject finish so a failed batch (a
	// routine, counted outcome under the pipeline) does not leak xShares
	// and verifier sessions on the servers that got through Round1.
	decided := p.Cfg.Mode == ModeNoRobust // no-robust servers keep no batch state
	defer func() {
		if decided {
			return
		}
		fw := &wbuf{}
		fw.u64(batchID)
		fw.blob(make([]byte, (count+7)/8))
		_, _ = l.broadcast(MsgFinish, l.same(fw.b), nil) // best effort
	}()

	// Round 1: relay each server its bundles. Requests are built in pooled
	// arena buffers sized exactly up front, so the steady state allocates
	// nothing; broadcast waits for every peer before returning (even on
	// error), which is what makes freeing the arenas afterwards safe.
	// Responses are never pooled: they are the peer's memory.
	reqs := make([][]byte, p.Cfg.Servers)
	arenas := make([]*transport.Buf, p.Cfg.Servers)
	var w wbuf
	for i := 0; i < p.Cfg.Servers; i++ {
		hint := 4 + 8 + 4 + 8
		for _, sub := range subs {
			hint += 4 + len(sub.Bundles[i])
		}
		w.grab(hint)
		w.u32(challID)
		w.u64(batchID)
		w.u32(uint32(count))
		for _, sub := range subs {
			w.blob(sub.Bundles[i])
		}
		w.u64(wid)
		reqs[i], arenas[i] = w.seal()
	}
	t0 := l.m.start()
	r1resps, err := l.broadcast(MsgRound1, reqs, &rt)
	for _, a := range arenas {
		a.Free()
	}
	if err != nil {
		return nil, err
	}
	l.m.observeRound1(t0)

	if p.Cfg.Mode == ModeNoRobust {
		// Round1 already accumulated: there is nothing to commit.
		accepts := make([]bool, count)
		for i := range accepts {
			accepts[i] = true
		}
		l.noteOverlap(&rt)
		return &decision{accepts: accepts}, nil
	}

	sys := p.snipSys()
	reps := sys.Reps
	if sys.M == 0 {
		reps = 0
	}

	// Parse Round1 responses; sum the Beaver openings per submission.
	opened := make([]*snip.Round1[E], count)
	var mpcOpened []*mpc.Open[E]
	var mpcDone bool
	if p.Cfg.Mode == ModeMPC {
		mpcOpened = make([]*mpc.Open[E], count)
	}
	for i, resp := range r1resps {
		r := &rbuf{b: resp}
		for j := 0; j < count; j++ {
			r1 := &snip.Round1[E]{D: rvec(r, f, reps), E: rvec(r, f, reps)}
			if r.err != nil {
				return nil, fmt.Errorf("core: bad Round1 response from server %d", i)
			}
			if opened[j] == nil {
				opened[j] = r1
			} else {
				field.AddVec(f, opened[j].D, r1.D)
				field.AddVec(f, opened[j].E, r1.E)
			}
			if p.Cfg.Mode == ModeMPC {
				n := int(r.u32())
				op := &mpc.Open[E]{D: rvec(r, f, n), E: rvec(r, f, n)}
				if r.err != nil {
					return nil, fmt.Errorf("core: bad MPC open from server %d", i)
				}
				if mpcOpened[j] == nil {
					mpcOpened[j] = op
				} else {
					field.AddVec(f, mpcOpened[j].D, op.D)
					field.AddVec(f, mpcOpened[j].E, op.E)
				}
				mpcDone = len(op.D) == 0
			}
		}
		if !r.done() {
			return nil, fmt.Errorf("core: trailing bytes in Round1 response from server %d", i)
		}
	}

	// The leader needs its own challenge state to sum and decide shares.
	l.Server.mu.Lock()
	chSt := l.Server.challenges[challID]
	l.Server.mu.Unlock()
	if chSt == nil {
		return nil, errors.New("core: leader lost its own challenge state")
	}

	// Round 2: per-submission accept verdicts for the SNIP check, from the
	// amortized batch probes.
	t0 = l.m.start()
	snipOK, err := l.batchVerify(chSt, challID, batchID, count, reps, opened, &rt)
	if err != nil {
		return nil, err
	}
	l.m.observeRound2(t0)

	// MPC rounds: iterate until every session reports its Valid τ share.
	validTau := make([]E, count)
	if p.Cfg.Mode == ModeMPC {
		for j := range validTau {
			validTau[j] = f.Zero()
		}
		for round := 0; !mpcDone; round++ {
			if round > 64 {
				return nil, errors.New("core: MPC did not converge")
			}
			var w wbuf
			w.grab(4 + 8 + count*4)
			w.u32(challID)
			w.u64(batchID)
			for j := 0; j < count; j++ {
				w.u32(uint32(len(mpcOpened[j].D)))
				wvec(&w, f, mpcOpened[j].D)
				wvec(&w, f, mpcOpened[j].E)
			}
			req, arena := w.seal()
			resps, err := l.broadcast(MsgMPCRound, l.same(req), &rt)
			arena.Free()
			if err != nil {
				return nil, err
			}
			next := make([]*mpc.Open[E], count)
			allDone := true
			for i, resp := range resps {
				r := &rbuf{b: resp}
				for j := 0; j < count; j++ {
					if done := r.u8(); done == 1 {
						tau := rvec(r, f, 1)
						if r.err != nil {
							return nil, fmt.Errorf("core: bad MPC tau from server %d", i)
						}
						validTau[j] = f.Add(validTau[j], tau[0])
						continue
					}
					allDone = false
					n := int(r.u32())
					op := &mpc.Open[E]{D: rvec(r, f, n), E: rvec(r, f, n)}
					if r.err != nil {
						return nil, fmt.Errorf("core: bad MPC open from server %d", i)
					}
					if next[j] == nil {
						next[j] = op
					} else {
						field.AddVec(f, next[j].D, op.D)
						field.AddVec(f, next[j].E, op.E)
					}
				}
				if !r.done() {
					return nil, fmt.Errorf("core: trailing bytes in MPC response from server %d", i)
				}
			}
			mpcOpened = next
			mpcDone = allDone
		}
	}

	// Decide, and build the commit that carries the accept bitmap. It is a
	// plain allocation, not a pooled arena: it lives until every server has
	// acknowledged it, across any re-sends.
	d := &decision{accepts: make([]bool, count)}
	bitmap := make([]byte, (count+7)/8)
	for j := 0; j < count; j++ {
		ok := snipOK[j]
		if p.Cfg.Mode == ModeMPC {
			ok = ok && f.IsZero(validTau[j])
		}
		d.accepts[j] = ok
		if ok {
			bitmap[j/8] |= 1 << uint(j%8)
		}
	}
	fw := wbuf{b: make([]byte, 0, 8+4+len(bitmap)+8)}
	fw.u64(batchID)
	fw.blob(bitmap)
	fw.u64(wid)
	d.finish = fw.b
	decided = true
	l.noteOverlap(&rt)
	return d, nil
}

// batchVerify drives the amortized SNIP check: one MsgRound2Batch probe over
// the full batch (shipping the opened masks along), then — only if the
// combined check fails — a bisection over subranges, each probe under a
// fresh crypto/rand-derived λ seed. Singleton probes are exactly the
// per-submission test (snip.Evaluator.Round2 scaled by a nonzero λ), so the
// verdicts match the reference verifier's; interior probes accept a range
// only when its combined share sums to zero, which a range containing an
// invalid submission survives with probability ≈ 2/|F| per probe.
//
// The worst case (every submission invalid) costs 2·count−1 probes; the
// common all-honest case costs exactly one.
func (l *Leader[Fd, E]) batchVerify(chSt *challState[Fd, E], challID uint32, batchID uint64, count, reps int, opened []*snip.Round1[E], rt *roundClock) ([]bool, error) {
	p := l.pro
	f := p.Cfg.Field
	ok := make([]bool, count)
	type span struct{ lo, hi int }
	stack := []span{{0, count}}
	first := true
	probes := 0
	defer func() { l.m.countBisect(probes) }()
	for len(stack) > 0 {
		sp := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var seed [prg.SeedSize]byte
		if _, err := rand.Read(seed[:]); err != nil {
			return nil, err
		}
		var w wbuf
		hint := 4 + 8 + 1 + 4 + len(seed) + 4 + 4
		if first {
			hint += count * (reps + 1) * 16
		}
		w.grab(hint)
		w.u32(challID)
		w.u64(batchID)
		if first {
			w.u8(1)
			for j := 0; j < count; j++ {
				wvec(&w, f, opened[j].D)
				wvec(&w, f, opened[j].E)
			}
		} else {
			w.u8(0)
		}
		w.blob(seed[:])
		w.u32(uint32(sp.lo))
		w.u32(uint32(sp.hi))
		req, arena := w.seal()
		resps, err := l.broadcast(MsgRound2Batch, l.same(req), rt)
		arena.Free()
		if err != nil {
			return nil, err
		}
		first = false
		probes++
		r2 := make([]*snip.Round2[E], len(resps))
		for i, resp := range resps {
			r := &rbuf{b: resp}
			sig := rvec(r, f, reps)
			tau := rvec(r, f, 1)
			if r.err != nil || !r.done() {
				return nil, fmt.Errorf("core: bad Round2Batch response from server %d", i)
			}
			r2[i] = &snip.Round2[E]{Sigma: sig, Tau: tau[0]}
		}
		switch {
		case chSt.ev.Decide(r2):
			for j := sp.lo; j < sp.hi; j++ {
				ok[j] = true
			}
		case sp.hi-sp.lo == 1:
			// Singleton under nonzero λ: definitively invalid.
		default:
			mid := (sp.lo + sp.hi) / 2
			stack = append(stack, span{mid, sp.hi}, span{sp.lo, mid})
		}
	}
	return ok, nil
}

// Aggregate fetches every server's accumulator, checks that they agree on
// the accepted count, and returns the summed aggregate (the input to the
// AFE's Decode). It takes no leader lock: callers who need a quiescent
// snapshot (batches neither in flight nor queued) must arrange that
// themselves, as Pipeline.Aggregate does.
func (l *Leader[Fd, E]) Aggregate() ([]E, uint64, error) {
	p := l.pro
	f := p.Cfg.Field
	resps, err := l.broadcast(MsgAggregate, l.same(nil), nil)
	if err != nil {
		return nil, 0, err
	}
	var agg []E
	var count uint64
	for i, resp := range resps {
		r := &rbuf{b: resp}
		n := r.u64()
		vec := rvec(r, f, p.kPrime)
		if !r.done() {
			return nil, 0, fmt.Errorf("core: bad aggregate from server %d", i)
		}
		if i == 0 {
			count = n
			agg = vec
			continue
		}
		if n != count {
			return nil, 0, fmt.Errorf("core: server %d accepted %d submissions, server 0 accepted %d", i, n, count)
		}
		field.AddVec(f, agg, vec)
	}
	return agg, count, nil
}

// Reset clears all servers' accumulators and sessions (benchmark runs).
// Concurrent in-flight batches will fail their next round after a reset;
// quiesce first.
func (l *Leader[Fd, E]) Reset() error {
	_, err := l.broadcast(MsgReset, l.same(nil), nil)
	return err
}

// PeerStats exposes the per-server transport counters (Figure 6).
func (l *Leader[Fd, E]) PeerStats(i int) transport.Stats { return l.peers[i].Stats().Snapshot() }

// Cluster is an in-process deployment: s servers wired to a leader over
// byte-counting in-memory peers. It is the configuration used by the
// examples, the integration tests, and the throughput benchmarks.
type Cluster[Fd field.Field[E], E any] struct {
	Leader  *Leader[Fd, E]
	Servers []*Server[Fd, E]
}

// NewLocalCluster builds the in-process deployment for pro.
func NewLocalCluster[Fd field.Field[E], E any](pro *Protocol[Fd, E]) (*Cluster[Fd, E], error) {
	s := pro.Cfg.Servers
	servers := make([]*Server[Fd, E], s)
	peers := make([]transport.Peer, s)
	for i := 0; i < s; i++ {
		srv, err := NewServer(pro, i, nil)
		if err != nil {
			return nil, err
		}
		servers[i] = srv
		peers[i] = &transport.LoopbackPeer{Handler: srv.Handle}
	}
	leader, err := NewLeader(servers[0], peers)
	if err != nil {
		return nil, err
	}
	return &Cluster[Fd, E]{Leader: leader, Servers: servers}, nil
}

// PublicKeys returns the servers' sealbox keys in index order, as clients
// need them.
func (c *Cluster[Fd, E]) PublicKeys() []*sealbox.PublicKey {
	out := make([]*sealbox.PublicKey, len(c.Servers))
	for i, s := range c.Servers {
		out[i] = s.PublicKey()
	}
	return out
}
