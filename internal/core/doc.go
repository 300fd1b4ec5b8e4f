// Package core assembles the full Prio pipeline of Section 5.1 / Appendix H
// of "Prio: Private, Robust, and Scalable Computation of Aggregate
// Statistics" (Corrigan-Gibbs & Boneh, NSDI 2017):
//
//	Upload    — each client AFE-encodes its value, splits encoding and SNIP
//	            proof into per-server shares (PRG-compressed, Appendix I),
//	            seals the explicit share to its server and derives every
//	            other server's seed from one key agreement with it (the
//	            sealbox package doc), and sends the submission to the
//	            current leader.
//	Validate  — the leader relays shares, with the batch's challenge as a
//	            16-byte seed that every server expands itself, and drives
//	            the two verification rounds; servers exchange constant-size
//	            messages per submission in Round1 and one combined share per
//	            batch probe in Round2 (Section 4.2, docs/VERIFY.md).
//	Aggregate — servers add the truncated encodings of accepted submissions
//	            into local accumulators.
//	Publish   — accumulators are summed and decoded with the AFE.
//
// The same pipeline runs in three modes: full Prio (SNIP verification),
// Prio-MPC (server-side Valid evaluation, Section 4.4), and the
// no-robustness baseline of Section 6.1 (secret-sharing sums without
// proofs). The modes share the transport, sharing, and accumulation code, so
// benchmark comparisons between them isolate the cost of robustness — the
// design of the paper's evaluation.
//
// # Roles
//
// Server (one per deployment slot) verifies its share of every submission
// and keeps the local accumulator of Section 3. Leader is a server that
// additionally coordinates verification for a slice of the traffic
// (Appendix I: "we assign a single Prio server to be the leader that
// coordinates the checking of each client data submission"). Client builds
// submissions. All three are driven through the byte-level wire protocol in
// wire.go, so the same code runs in-process (Cluster, the benchmarks) and
// over TCP/TLS (cmd/prio-server).
//
// # Concurrency
//
// Verifying distinct submissions is embarrassingly parallel — the paper
// scales throughput by giving every server a leader slice (Figure 5,
// Appendix I). This package applies the same idea at two levels:
//
//   - Leader sessions: NewLeaderSession opens an independent batch ID
//     namespace and challenge seed on one leader server, so several
//     sessions can drive verification rounds concurrently against the
//     shared server set, which keeps no challenge state. ProcessBatch holds
//     the leader lock only to rotate the seed and allocate batch IDs; the
//     network rounds run lock-free.
//   - Pipeline: a sharded front-end that fans a stream of submissions
//     across K leader sessions with bounded queuing and adaptive batching,
//     then merges the per-shard results into the final aggregate.
//
// See docs/PIPELINE.md for the design and its paper grounding.
package core
