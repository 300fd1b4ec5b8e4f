package cluster

import (
	"errors"
	"net"
	"strconv"

	"prio/internal/core"
	"prio/internal/field"
	"prio/internal/ingest"
	"prio/internal/sealbox"
	"prio/internal/telemetry"
	"prio/internal/transport"
	"prio/internal/window"
)

// MemberConfig assembles one Member from its subsystems' configurations;
// NewMember fills in the fields that join them.
type MemberConfig[Fd field.Field[E], E any] struct {
	// Listener is the protocol endpoint, TLS-wrapped when the deployment
	// speaks TLS. The member owns it from the NewMember call on.
	Listener net.Listener
	// Protocol's server count must equal the roster's length.
	Protocol *core.Protocol[Fd, E]
	// Key is the sealbox key (nil: a fresh one a restart cannot recover).
	Key *sealbox.PrivateKey
	// Registry receives every subsystem's metrics (nil: a private one). It
	// replaces the Registry fields of the configurations below.
	Registry *telemetry.Registry

	// Cluster.Self is also the protocol index, and Cluster.TLS also dials
	// the peers the member leads. OnPeerDown runs after the dead peer's
	// round state has been released.
	Cluster  Config
	Pipeline core.PipelineConfig
	// Ingest.Gate is replaced by the node's LeaderGate.
	Ingest ingest.Config
	// Window, when non-nil, runs windowed aggregation with this member's
	// Server, Leader, Quiesce and IsLeader.
	Window *window.Config[Fd, E]
}

// Member is one deployment server: its protocol state, its cluster node, and
// the verification stack every member keeps warm — a leader over lazily
// dialed, re-dialing peers (so boot order does not matter), a pipeline, and
// an ingest endpoint. The node decides whose pipeline is fed: a follower
// refuses client streams at the gate, naming the leader.
type Member[Fd field.Field[E], E any] struct {
	Server   *core.Server[Fd, E]
	Node     *Node
	Leader   *core.Leader[Fd, E]
	Pipeline *core.Pipeline[Fd, E]
	Window   *window.Service[Fd, E] // nil without MemberConfig.Window
	Listener *transport.Server
	Ingest   *ingest.Server
}

// NewMember builds the member (recovering its window state from any
// checkpoint), serves cfg.Listener and starts the node. On error it tears
// down what it built, listener included.
func NewMember[Fd field.Field[E], E any](cfg MemberConfig[Fd, E]) (m *Member[Fd, E], err error) {
	if cfg.Listener == nil || cfg.Protocol == nil {
		return nil, errors.New("cluster: member needs a listener and a protocol")
	}
	m = &Member[Fd, E]{}
	defer func() {
		if err != nil {
			if m.Listener == nil {
				cfg.Listener.Close()
			}
			m.Close()
			m = nil
		}
	}()
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.New()
	}
	if m.Server, err = core.NewServer(cfg.Protocol, cfg.Cluster.Self, cfg.Key); err != nil {
		return m, err
	}

	ccfg := cfg.Cluster
	ccfg.Registry = reg
	onDown := ccfg.OnPeerDown
	ccfg.OnPeerDown = func(peer int) {
		// Drop whatever half-finished verification state the dead member
		// seeded here as coordinator: whoever leads next re-runs its batches
		// under fresh IDs.
		m.Server.ReleaseLeader(peer)
		if onDown != nil {
			onDown(peer)
		}
	}
	if m.Node, err = New(ccfg); err != nil {
		return m, err
	}
	if m.Leader, err = core.ConnectLeader(m.Server, ccfg.Roster.Addrs, ccfg.TLS); err != nil {
		return m, err
	}
	pcfg := cfg.Pipeline
	pcfg.Registry = reg
	if m.Pipeline, err = core.NewPipeline(m.Leader, pcfg); err != nil {
		return m, err
	}
	// Every member windows its shares; only the sitting leader closes
	// windows, and a close never races a committing batch.
	if cfg.Window != nil {
		wcfg := *cfg.Window
		wcfg.Server, wcfg.Leader = m.Server, m.Leader
		wcfg.Quiesce, wcfg.IsLeader = m.Pipeline.Quiesce, m.Node.IsLeader
		wcfg.Registry = reg
		if m.Window, err = window.New(wcfg); err != nil {
			return m, err
		}
		m.Window.Start()
	}

	base := m.Server.Handler()
	m.Listener = transport.Serve(cfg.Listener, func(msgType byte, payload []byte) ([]byte, error) {
		if msgType == MsgClusterInfo {
			return m.Node.HandleInfo(payload)
		}
		return base(msgType, payload)
	})
	icfg := cfg.Ingest
	icfg.Registry = reg
	icfg.Gate = m.Node.LeaderGate()
	m.Ingest = ingest.NewServer(m.Pipeline, icfg)
	m.Listener.OnStream(m.Ingest.Handler())
	registerPeerStats(reg, m.Leader, ccfg.Roster.N())

	m.Node.Start()
	return m, nil
}

// Close tears the member down, dependents first, and returns the pipeline's
// first batch-level error.
func (m *Member[Fd, E]) Close() error {
	if m.Node != nil {
		m.Node.Stop()
	}
	if m.Ingest != nil {
		m.Ingest.Close()
	}
	if m.Listener != nil {
		m.Listener.Close()
	}
	if m.Window != nil {
		m.Window.Close()
	}
	var err error
	if m.Pipeline != nil {
		err = m.Pipeline.Close()
	}
	if m.Leader != nil {
		m.Leader.Close()
	}
	return err
}

// registerPeerStats exports the per-peer RPC traffic counters, read live at
// scrape time. The member's own slot is a loopback: its series count the
// bytes a network would have carried.
func registerPeerStats[Fd field.Field[E], E any](reg *telemetry.Registry, leader *core.Leader[Fd, E], n int) {
	for i := 0; i < n; i++ {
		i := i
		lbl := telemetry.Label{Key: "peer", Value: strconv.Itoa(i)}
		reg.CounterFunc("prio_peer_bytes_sent_total",
			"framed bytes sent to each server over the leader's RPC connection",
			func() uint64 { return leader.PeerStats(i).BytesSent }, lbl)
		reg.CounterFunc("prio_peer_bytes_recv_total",
			"framed bytes received from each server over the leader's RPC connection",
			func() uint64 { return leader.PeerStats(i).BytesRecv }, lbl)
		reg.CounterFunc("prio_peer_msgs_sent_total",
			"messages sent to each server over the leader's RPC connection",
			func() uint64 { return leader.PeerStats(i).MsgsSent }, lbl)
		reg.CounterFunc("prio_peer_msgs_recv_total",
			"messages received from each server over the leader's RPC connection",
			func() uint64 { return leader.PeerStats(i).MsgsRecv }, lbl)
	}
}
