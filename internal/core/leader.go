package core

import (
	"crypto/tls"
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
// cores. The challenge travels with the batch — a 16-byte seed in its
// Round1 that every server expands itself — so servers keep no challenge
// state, and a rotation is a local step that never waits on the batches
// still verifying under the seed before it. Pipeline dispatches a shard's
// next batch while others verify up to the depth overlapDepth measures, as
// far as the bytes all its shards' verifying and committing batches are
// charged stay within the pipeline's one budget.
type Leader[Fd field.Field[E], E any] struct {
	*Server[Fd, E]
	peers []transport.Peer // indexed by server; peers[Index()] is a loopback
	sess  int              // session sub-namespace (0 for NewLeader)

	lmu      sync.Mutex
	challID  uint32   // names the current challenge in errors and traces
	seed     prg.Seed // the current challenge (Appendix I's r, shared by ChallengeEvery submissions)
	sinceCh  int      // submissions verified under seed
	batchSeq uint64

	gov     governor
	overlap atomic.Uint64 // the depth gov last read, as math.Float64bits
	// depthCap is how many full batches the pipeline's budget holds, the
	// deepest this session's shard could go were the other shards idle
	// (NewPipeline sets it; 1 outside a Pipeline). It caps the governor's
	// reading and overlapDepth.
	depthCap int

	// m carries the pipeline's stage metrics; nil (a Leader built outside a
	// Pipeline) disables them.
	m *pipeMetrics
}

// NewLeader wraps a server with coordination duties. peers must hold one
// Peer per server in index order; the leader's own slot should be a
// transport.LoopbackPeer (NewLocalCluster arranges this).
//
// Any server may lead, and several may lead concurrently for different
// submissions — the load-balancing arrangement behind Figure 5 ("each
// server is a leader for a smaller share of incoming submissions").
// Batch identifiers are namespaced by the leader's index so concurrent
// leaders never collide in the servers' batch tables.
func NewLeader[Fd field.Field[E], E any](srv *Server[Fd, E], peers []transport.Peer) (*Leader[Fd, E], error) {
	return NewLeaderSession(srv, peers, 0)
}

// ConnectLeader makes srv a leader over the network, connecting to every
// other server by address (with TLS when tlsCfg is non-nil). addrs must have
// one entry per server index; the entry for srv itself is ignored (a
// loopback is used). Peers ride the streamed rounds subprotocol: one
// persistent pipelined connection each, with correlation IDs matching
// replies to in-flight calls, so concurrent leader sessions (NewPipeline)
// overlap their verification rounds on the wire instead of queueing behind
// one another. Connections are dialed lazily on first use and re-dialed
// after transport failures, so boot order across the deployment's servers
// does not matter.
func ConnectLeader[Fd field.Field[E], E any](srv *Server[Fd, E], addrs []string, tlsCfg *tls.Config) (*Leader[Fd, E], error) {
	peers := make([]transport.Peer, len(addrs))
	for i, addr := range addrs {
		if i == srv.Index() {
			peers[i] = &transport.LoopbackPeer{Handler: srv.Handler()}
			continue
		}
		peers[i] = transport.NewStreamPeer(addr, tlsCfg)
	}
	return NewLeader(srv, peers)
}

// Close releases the leader's peer connections. Pipelines built on the
// leader share them, so close those first.
func (l *Leader[Fd, E]) Close() error {
	for _, p := range l.peers {
		p.Close()
	}
	return nil
}

// NewLeaderSession wraps a server with coordination duties under session
// sub-namespace sess ∈ [0, 256). Sessions extend the per-leader ID
// namespacing one level down: batch IDs carry (server index, session) in
// their top 32 bits, and challenge numbers in their top 16, so many
// sessions of the same leader server can verify batches concurrently
// without colliding in the servers' batch tables. Each session draws its
// own challenge seeds. This is the mechanism behind Pipeline's shards (and
// the Appendix-I observation that verification of distinct submissions is
// embarrassingly parallel).
func NewLeaderSession[Fd field.Field[E], E any](srv *Server[Fd, E], peers []transport.Peer, sess int) (*Leader[Fd, E], error) {
	if len(peers) != srv.pro.Cfg.Servers {
		return nil, fmt.Errorf("core: leader needs %d peers, got %d", srv.pro.Cfg.Servers, len(peers))
	}
	if sess < 0 || sess > 0xFF {
		return nil, fmt.Errorf("core: leader session %d out of range [0, 256)", sess)
	}
	seed, err := prg.NewSeed()
	if err != nil {
		return nil, err
	}
	return &Leader[Fd, E]{
		Server:   srv,
		peers:    peers,
		sess:     sess,
		challID:  uint32(srv.idx)<<24 | uint32(sess)<<16,
		seed:     seed,
		batchSeq: uint64(srv.idx)<<48 | uint64(sess)<<32,
		depthCap: 1,
	}, nil
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

// idle is the share of the host's CPU that sat idle over the batch's
// verification so far.
func (c *roundClock) idle() float64 {
	life := time.Since(c.start)
	busy := float64(processCPU()-c.cpu0) / (float64(life) * float64(runtime.GOMAXPROCS(0)))
	return 1 - min(busy, 1)
}

// governor is a session's running averages (weight 1/8) of its decided
// batches' roundClock readings, and the depth they read: mean wall over
// mean self, scaled twice by the mean idle share.
//
// The first idle factor is the overlap rule: a wait on another server is
// worth overlapping only with CPU that would otherwise sit idle. The second
// takes out the queueing wall already holds: when the batches share the
// host's CPUs at utilisation b, each round's CPU work waits behind theirs,
// and a queue at utilisation b stretches work by 1/(1-b) (M/M/1), so
// wall·idle estimates the rounds' time on the wire and the CPUs alone.
// Without it the reading chases its own queueing: more depth lengthens the
// rounds, which reads as more depth. On the WAN workload (2 vCPUs, 5 ms
// links) the single-factor reading settled near 50 batches a shard with the
// CPUs 80 % busy and the rounds' wall time more than doubled (p50 53 ms for
// two 10 ms round trips); the squared one keeps about a dozen, for four
// fifths of those submissions/s at a sixth less peak RSS.
//
// It is a ratio of averages, not an average of each batch's ratio: one
// batch whose own call was unusually quick (tens of microseconds against
// milliseconds of rounds) would put a ratio in the hundreds into an average
// of ratios and, for the next several batches, let the shard dispatch every
// queued batch at once.
type governor struct {
	mu               sync.Mutex
	wall, self, idle float64 // seconds, seconds, share
}

// note folds a decided batch's clock into the averages and returns the
// depth they now read, capped at limit.
func (g *governor) note(c *roundClock, limit int) float64 {
	idle := c.idle()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.self == 0 {
		g.wall, g.self, g.idle = c.wall.Seconds(), c.self.Seconds(), idle
	} else {
		g.wall += (c.wall.Seconds() - g.wall) / 8
		g.self += (c.self.Seconds() - g.self) / 8
		g.idle += (idle - g.idle) / 8
	}
	if g.self <= 0 {
		return float64(limit)
	}
	return min(g.wall/g.self*g.idle*g.idle, float64(limit))
}

// noteOverlap folds a decided batch's clock into the session's governor
// and publishes the depth it reads for overlapDepth.
func (l *Leader[Fd, E]) noteOverlap(c *roundClock) {
	l.overlap.Store(math.Float64bits(l.gov.note(c, l.depthCap)))
}

// overlapDepth is how many batches this session can usefully keep in
// verification: the governor's reading, rounded up and clamped to [1,
// depthCap]. It is 1 before any batch is decided and while the host's CPUs
// are saturated, and on a high-latency link with idle CPUs it is wall/self
// times the idle share squared. No constant caps it: a sum8 batch is cheap
// against the pipeline's budget, so on the WAN workload this reading is the
// depth.
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
// whose skip[i] is false (all of them when skip is nil) and returns each
// one's response and error in server order. Every other server's call runs
// on a goroutine of its own, so one server's dial or full write queue never
// holds back the others; the leader's own server handles its call on this
// goroutine meanwhile, which times it (self) without the wait for a free
// CPU that a goroutine of its own would add.
func (l *Leader[Fd, E]) call(msgType byte, payloads [][]byte, skip []bool, rt *roundClock) ([][]byte, []error) {
	s := len(l.peers)
	resps := make([][]byte, s)
	errs := make([]error, s)
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < s; i++ {
		if i == l.idx || skip != nil && skip[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = l.peers[i].Call(msgType, payloads[i])
		}(i)
	}
	var self time.Duration
	if skip == nil || !skip[l.idx] {
		c0 := time.Now()
		resps[l.idx], errs[l.idx] = l.peers[l.idx].Call(msgType, payloads[l.idx])
		self = time.Since(c0)
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

	// Critical section: rotate the challenge once this batch would take it
	// past ChallengeEvery submissions (the Q of Appendix I) — a fresh
	// crypto/rand seed, nothing sent — and allocate this batch's
	// identifiers. No-robust mode verifies nothing, so it never rotates and
	// its Round1 carries no seed. The network rounds below run outside the
	// lock so in-flight batches pipeline. The counters increment within
	// their session's slot (16 bits, 32 bits) so they never wrap into a
	// neighboring session's namespace.
	robust := p.Cfg.Mode != ModeNoRobust
	l.lmu.Lock()
	if robust && l.sinceCh+count > p.Cfg.ChallengeEvery {
		seed, err := prg.NewSeed()
		if err != nil {
			l.lmu.Unlock()
			return nil, err
		}
		l.seed, l.sinceCh = seed, 0
		l.challID = l.challID&0xFFFF0000 | (l.challID+1)&0xFFFF
	}
	l.sinceCh += count
	l.batchSeq = l.batchSeq&^uint64(0xFFFFFFFF) | (l.batchSeq+1)&0xFFFFFFFF
	batchID, challID, seed := l.batchSeq, l.challID, l.seed
	l.lmu.Unlock()

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
	decided := !robust // no-robust servers keep no batch state
	defer func() {
		if decided {
			return
		}
		fw := &wbuf{}
		fw.u64(batchID)
		fw.blob(make([]byte, (count+7)/8))
		_, _ = l.broadcast(MsgFinish, l.same(fw.b), nil) // best effort
	}()

	// Round 1: relay each server the challenge seed and its bundles.
	// Requests are built in pooled arena buffers sized exactly up front, so
	// the steady state allocates nothing; broadcast waits for every peer
	// before returning (even on error), which is what makes freeing the
	// arenas afterwards safe. Responses are never pooled: they are the
	// peer's memory.
	var seedField []byte
	if robust {
		seedField = seed[:]
	}
	reqs := make([][]byte, p.Cfg.Servers)
	arenas := make([]*transport.Buf, p.Cfg.Servers)
	var w wbuf
	for i := 0; i < p.Cfg.Servers; i++ {
		hint := 4 + 8 + 4 + len(seedField) + 8
		for _, sub := range subs {
			hint += 4 + len(sub.Bundles[i])
		}
		w.grab(hint)
		w.u32(challID)
		w.u64(batchID)
		w.u32(uint32(count))
		w.raw(seedField)
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

	// Round 2: per-submission accept verdicts for the SNIP check, from the
	// amortized batch probes, decided under the batch's challenge (a cache
	// hit: the leader's own server looked it up in Round1).
	t0 = l.m.start()
	snipOK, err := l.batchVerify(sys.CachedEvaluator(batchID>>32, seed), challID, batchID, count, reps, opened, &rt)
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

// batchVerify decides the batch's SNIP checks in at most two MsgRound2Batch
// probes. The combined probe ships the opened masks, and every server
// answers its share of the random linear combination over the whole batch
// under λ derived from the batch's challenge seed and ID: when the shares
// sum to zero, every submission is accepted. Otherwise the reveal fetches
// each submission's own Round2 share — the paper's per-submission Round2
// (§4.2) — and decides each one exactly, as the reference verifier does. A
// failed batch of one needs no reveal: its combined share is its own scaled
// by a nonzero λ.
func (l *Leader[Fd, E]) batchVerify(ev *snip.Evaluator[Fd, E], challID uint32, batchID uint64, count, reps int, opened []*snip.Round1[E], rt *roundClock) ([]bool, error) {
	f := l.pro.Cfg.Field
	ok := make([]bool, count)
	for kind := probeCombined; ; kind = probeReveal {
		var w wbuf
		w.grab(4 + 8 + 1 + count*2*reps*f.ElemSize())
		w.u32(challID)
		w.u64(batchID)
		w.u8(kind)
		n := count // Round2 shares per reply
		if kind == probeCombined {
			n = 1
			for j := 0; j < count; j++ {
				wvec(&w, f, opened[j].D)
				wvec(&w, f, opened[j].E)
			}
		}
		req, arena := w.seal()
		resps, err := l.broadcast(MsgRound2Batch, l.same(req), rt)
		arena.Free()
		if err != nil {
			return nil, err
		}
		rs := make([]rbuf, len(resps))
		for i, resp := range resps {
			rs[i].b = resp
		}
		shares := make([]*snip.Round2[E], len(rs))
		for j := 0; j < n; j++ {
			for i := range rs {
				sig := rvec(&rs[i], f, reps)
				tau := rvec(&rs[i], f, 1)
				if rs[i].err != nil || j == n-1 && !rs[i].done() {
					return nil, fmt.Errorf("core: bad Round2Batch response from server %d", i)
				}
				shares[i] = &snip.Round2[E]{Sigma: sig, Tau: tau[0]}
			}
			ok[j] = ev.Decide(shares)
		}
		if kind == probeReveal || count == 1 {
			return ok, nil
		}
		if ok[0] {
			for j := range ok {
				ok[j] = true
			}
			return ok, nil
		}
		l.m.countFallback()
	}
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
