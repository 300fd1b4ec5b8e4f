// Package ingest is the streaming submission subsystem: the layer between
// the transport and the verification pipeline that lets one client
// connection carry many submissions in flight at once.
//
// It is the only way a submission enters a deployment. A request/response
// upload costs a full round-trip per submission, which caps a client's rate
// at 1/RTT regardless of how fast the servers verify — once the sharded
// pipeline parallelized verification, that round-trip was the system's
// front-door bottleneck, and the one-shot path that had it is gone. The
// paper's deployment model (§6.2) is millions of clients holding long-lived
// TLS connections, which only makes sense if those connections are
// pipelined.
//
// # Protocol
//
// A client opens a stream with transport.MsgStreamOpen carrying the
// subprotocol magic, and the server answers with a hello frame granting an
// initial credit window. From then on the stream is asymmetric and fully
// asynchronous:
//
//   - client → server: submit frames, each a client-chosen 64-bit submission
//     ID plus a marshalled core.Submission. Each submit spends one credit.
//   - server → client: ack frames, each batching one or more (ID, status)
//     decisions. Each ack returns one credit.
//
// Statuses are Accepted (shares entered the accumulators), Rejected
// (verification refused the submission), Shed (dropped unverified because
// the server's intake was full or the stream overran its credits — safe to
// retry), and Failed (lost to a batch-level error).
//
// # Backpressure
//
// Credits make overload degrade into queuing at the client instead of
// unbounded memory or silent drops on the server. A stream may have at most
// its credit grant un-acked; StreamSubmitter.Submit blocks once the window
// is full, so a flooding client stalls on its own connection while the
// server's exposure per stream stays fixed. Server-side, submissions go to
// the verification pipeline through a non-blocking enqueue; when the
// pipeline is saturated they fall into a bounded intake queue that a pump
// goroutine drains into the pipeline's blocking path, and only when that
// buffer is also full — aggregate arrivals beyond Credits×streams — does the
// server shed, explicitly, with an ack the client can act on.
//
// See docs/INGEST.md for the design note and cmd/prio-load for the matching
// open/closed-loop load generator.
package ingest
