package cluster

import (
	"crypto/tls"
	"fmt"
	"strconv"
	"sync"
	"time"

	"prio/internal/telemetry"
	"prio/internal/transport"
)

// Config describes one member's view of the cluster.
type Config struct {
	// Roster lists every member in protocol-index order; all members must
	// agree on it. Required.
	Roster *Roster
	// Self is this member's roster index. Required (0 is a valid index).
	Self int
	// TLS is the client configuration for dialing peers (nil = plaintext).
	TLS *tls.Config
	// PingInterval is the per-peer health probe cadence (default 250ms,
	// jittered ±20% by the checker).
	PingInterval time.Duration
	// PingTimeout bounds one probe (default PingInterval).
	PingTimeout time.Duration
	// FailAfter is the consecutive probe failures marking a peer down
	// (default 3); failover latency is roughly FailAfter·PingInterval.
	FailAfter int
	// RotateEvery, when positive, makes the sitting leader cede duty on the
	// interval by bumping the epoch — the Figure 5 load-balancing rotation.
	// Zero rotates only on failover.
	RotateEvery time.Duration
	// Grace is how long after Start the member refuses to claim leadership,
	// giving epoch gossip time to catch a restarted member up to the
	// cluster's present instead of letting it reassert epoch 0 (default
	// 4·PingInterval).
	Grace time.Duration
	// Registry receives the cluster gauges and counters (nil = private).
	Registry *telemetry.Registry
	// OnLeaderChange observes every local leadership-view change. Runs off
	// the probe goroutines; must not block.
	OnLeaderChange func(epoch uint64, leader int)
	// OnPeerDown and OnPeerUp observe peer liveness transitions. The server
	// wires OnPeerDown to core.Server.ReleaseLeader so a dead coordinator's
	// half-finished round state is dropped. Must not block.
	OnPeerDown func(peer int)
	OnPeerUp   func(peer int)
	// Probe overrides the network probe (tests). The default sends
	// MsgClusterInfo to the peer with StreamPeer.CallTimeout — a connection
	// of its own, re-dialed after any failure or overrun — and returns its
	// Info payload, so every health probe doubles as epoch gossip.
	Probe func(peer int, timeout time.Duration) ([]byte, error)
}

func (c Config) withDefaults() Config {
	if c.PingInterval <= 0 {
		c.PingInterval = 250 * time.Millisecond
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = c.PingInterval
	}
	if c.FailAfter < 1 {
		c.FailAfter = 3
	}
	if c.Grace <= 0 {
		c.Grace = 4 * c.PingInterval
	}
	return c
}

// Node is one cluster member's control plane: it probes peers, maintains the
// liveness view and the epoch counter, and answers "am I the leader right
// now?" for the data plane (ingest gate, publish loop). Leadership is
// deterministic given (epoch, liveness): the first live member scanning the
// roster from epoch mod n. Members converge on epoch through gossip
// (highest wins) and on liveness through their own probes; transient
// disagreement is safe because leader duty is namespaced coordination work,
// not exclusive state.
type Node struct {
	cfg     Config
	n, self int
	checker *transport.HealthChecker
	peers   []*transport.StreamPeer
	quit    chan struct{}
	wg      sync.WaitGroup
	stop    sync.Once

	mu     sync.Mutex
	epoch  uint64
	leader int
	ready  bool

	failovers *telemetry.Counter
	rotations *telemetry.Counter
	adoptions *telemetry.Counter
	pingFails *telemetry.Counter
	pings     *telemetry.Counter
}

// New validates cfg and builds the member. Call Start to begin probing.
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Roster == nil {
		return nil, fmt.Errorf("cluster: config needs a roster")
	}
	n := cfg.Roster.N()
	if cfg.Self < 0 || cfg.Self >= n {
		return nil, fmt.Errorf("cluster: self index %d outside roster of %d", cfg.Self, n)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.New()
	}
	nd := &Node{
		cfg:       cfg,
		n:         n,
		self:      cfg.Self,
		quit:      make(chan struct{}),
		failovers: reg.Counter("prio_cluster_failovers_total", "epoch bumps caused by the sitting leader going down"),
		rotations: reg.Counter("prio_cluster_rotations_total", "epoch bumps from timed leadership rotation"),
		adoptions: reg.Counter("prio_cluster_epoch_adoptions_total", "higher epochs adopted from peer gossip"),
		pings:     reg.Counter("prio_cluster_pings_total", "peer health probes sent"),
		pingFails: reg.Counter("prio_cluster_ping_failures_total", "peer health probes that failed or timed out"),
	}

	probes := make([]transport.ProbeFunc, n)
	for i := 0; i < n; i++ {
		if i == nd.self {
			continue // own slot: always up, never probed
		}
		i := i
		call := cfg.Probe
		if call == nil {
			p := transport.NewStreamPeer(cfg.Roster.Addrs[i], cfg.TLS)
			nd.peers = append(nd.peers, p)
			call = func(_ int, timeout time.Duration) ([]byte, error) {
				return p.CallTimeout(MsgClusterInfo, nil, timeout)
			}
		}
		probes[i] = func(timeout time.Duration) error {
			nd.pings.Inc()
			resp, err := call(i, timeout)
			if err != nil {
				nd.pingFails.Inc()
				return err
			}
			info, err := ParseInfo(resp)
			if err != nil {
				nd.pingFails.Inc()
				return err
			}
			nd.observe(info)
			return nil
		}
	}
	nd.checker = transport.NewHealthChecker(probes, transport.HealthConfig{
		Interval:      cfg.PingInterval,
		Timeout:       cfg.PingTimeout,
		FailThreshold: cfg.FailAfter,
		OnChange:      nd.peerChange,
	})
	nd.leader = nd.leaderAtLocked(0)

	reg.GaugeFunc("prio_cluster_leader", "roster index this member believes holds leadership",
		func() float64 { _, l := nd.View(); return float64(l) })
	reg.GaugeFunc("prio_cluster_epoch", "leadership rotation epoch",
		func() float64 { e, _ := nd.View(); return float64(e) })
	reg.GaugeFunc("prio_cluster_is_leader", "1 when this member holds leadership",
		func() float64 {
			if nd.IsLeader() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("prio_cluster_size", "roster size", func() float64 { return float64(n) })
	for i := 0; i < n; i++ {
		i := i
		reg.GaugeFunc("prio_cluster_peer_up", "1 while the member is considered live",
			func() float64 {
				if nd.checker.Up(i) {
					return 1
				}
				return 0
			}, telemetry.Label{Key: "peer", Value: strconv.Itoa(i)})
	}
	return nd, nil
}

// Start begins probing, arms the boot grace, and (on the leader) the
// rotation timer.
func (n *Node) Start() {
	n.checker.Start()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		select {
		case <-time.After(n.cfg.Grace):
			n.mu.Lock()
			n.ready = true
			n.mu.Unlock()
		case <-n.quit:
		}
	}()
	if n.cfg.RotateEvery > 0 {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			tick := time.NewTicker(n.cfg.RotateEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					n.rotate()
				case <-n.quit:
					return
				}
			}
		}()
	}
}

// Stop halts probing and timers and drops the peer connections.
func (n *Node) Stop() {
	n.stop.Do(func() {
		close(n.quit)
		n.checker.Stop()
		n.wg.Wait()
		for _, p := range n.peers {
			p.Close()
		}
	})
}

// leaderAtLocked resolves epoch to a member: the first live one scanning
// from epoch mod n. Callers hold mu (or the node is not yet started).
func (n *Node) leaderAtLocked(epoch uint64) int {
	start := int(epoch % uint64(n.n))
	for k := 0; k < n.n; k++ {
		i := (start + k) % n.n
		if i == n.self || n.checker.Up(i) {
			return i
		}
	}
	return start
}

// recomputeLocked re-derives the leader from (epoch, liveness); returns the
// OnLeaderChange callback to run outside mu, or nil.
func (n *Node) recomputeLocked() func() {
	l := n.leaderAtLocked(n.epoch)
	if l == n.leader {
		return nil
	}
	n.leader = l
	epoch := n.epoch
	if cb := n.cfg.OnLeaderChange; cb != nil {
		return func() { cb(epoch, l) }
	}
	return func() {}
}

// peerChange is the health checker's transition callback.
func (n *Node) peerChange(peer int, up bool) {
	n.mu.Lock()
	if !up && peer == n.leader {
		// The coordinator died mid-round: advance the epoch so duty moves
		// to the next live member instead of merely skipping the dead one
		// at the same epoch (which would hand duty straight back on
		// recovery, re-interrupting in-flight rounds).
		n.epoch++
		n.failovers.Inc()
	}
	cb := n.recomputeLocked()
	n.mu.Unlock()
	if up {
		if f := n.cfg.OnPeerUp; f != nil {
			f(peer)
		}
	} else {
		if f := n.cfg.OnPeerDown; f != nil {
			f(peer)
		}
	}
	if cb != nil {
		cb()
	}
}

// observe folds a peer's gossiped Info into the local view: higher epochs
// win. This is how a restarted member (back at epoch 0) catches up within
// one probe round instead of contesting leadership.
func (n *Node) observe(info Info) {
	n.mu.Lock()
	var cb func()
	if info.Epoch > n.epoch {
		n.epoch = info.Epoch
		n.adoptions.Inc()
		cb = n.recomputeLocked()
	}
	n.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// rotate is the timed leadership handoff: only the sitting leader bumps, so
// the cluster's epoch advances once per interval, not once per member.
func (n *Node) rotate() {
	n.mu.Lock()
	if !(n.ready && n.leader == n.self) {
		n.mu.Unlock()
		return
	}
	n.epoch++
	n.rotations.Inc()
	cb := n.recomputeLocked()
	n.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// View returns the current (epoch, leader) pair.
func (n *Node) View() (epoch uint64, leader int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch, n.leader
}

// IsLeader reports whether this member currently holds coordination duty.
// Always false during the boot grace.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ready && n.leader == n.self
}

// Alive snapshots the liveness view (own slot always true).
func (n *Node) Alive() []bool { return n.checker.View() }

// InfoNow assembles this member's gossip payload.
func (n *Node) InfoNow() Info {
	var alive uint64
	for i, up := range n.Alive() {
		if up {
			alive |= 1 << uint(i)
		}
	}
	epoch, leader := n.View()
	return Info{
		Epoch:  epoch,
		Leader: uint32(leader),
		Self:   uint32(n.self),
		N:      uint32(n.n),
		Alive:  alive,
	}
}

// HandleInfo answers one MsgClusterInfo request; servers splice it into
// their transport handler.
func (n *Node) HandleInfo(payload []byte) ([]byte, error) {
	return n.InfoNow().Marshal(), nil
}

// LeaderGate returns the ingest-admission check: nil while this member
// leads, an error naming the real leader otherwise. Wire it into
// ingest.Config.Gate so clients probing a non-leader are refused at stream
// open and re-resolve instead of submitting into the void.
func (n *Node) LeaderGate() func() error {
	return func() error {
		n.mu.Lock()
		epoch, leader, ready := n.epoch, n.leader, n.ready
		n.mu.Unlock()
		if ready && leader == n.self {
			return nil
		}
		return fmt.Errorf("cluster: member %d is not the leader (epoch %d, leader %d)", n.self, epoch, leader)
	}
}
