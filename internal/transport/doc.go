// Package transport carries the Prio wire protocol between servers (and
// from clients to the leader). The paper's deployment (Section 6.2) runs a
// handful of servers in distinct data centers speaking TLS, and its server
// side is a constant number of broadcast rounds per batch (Section 4.2,
// Appendix I), so one correlated call primitive is all the protocol needs
// from the network. This package provides exactly that, once:
//
//   - a tagged framing (1-byte type, 4-byte length) and FrameConn, a
//     buffered, concurrency-safe framed connection. Every served connection
//     opens with a MsgStreamOpen frame naming its subprotocol;
//   - Peer, the call interface the protocol layers are written against,
//     with two implementations: StreamPeer over TCP with optional TLS
//     (lazy dial, re-dial after failure, many correlated calls in flight on
//     one connection, CallTimeout for probes and fetches) and LoopbackPeer
//     in memory (single-process clusters, tests, a leader's own server);
//   - Server, which accepts connections and runs the rounds subprotocol
//     (StreamPeer's server side) over a Handler, handing every other stream
//     to the OnStream handler — the streaming ingest subsystem
//     (internal/ingest, docs/INGEST.md);
//   - per-peer byte counters, which is how Figure 6 (per-server data
//     transfer per submission) is measured rather than estimated;
//   - HealthChecker, the jittered probe loop under cluster failover, and a
//     size-classed buffer pool for the marshalling hot paths.
//
// docs/TRANSPORT.md has the wire formats and the buffer-ownership rules.
package transport
