package ingest

import "sync/atomic"

// Stats counts one stream's — or, merged, the whole ingest subsystem's —
// traffic and outcomes. All fields are updated atomically; read a consistent
// copy with Snapshot. A frame that breaks the protocol — an unexpected type,
// an undecodable submit, an oversized frame of a type other than submit —
// ends its stream and counts nothing.
type Stats struct {
	Streams  uint64 // streams opened (aggregate only; 0 on per-stream stats)
	Received uint64 // submit frames decoded, or refused oversized at their length prefix
	Accepted uint64 // acked accepted
	Rejected uint64 // acked rejected (verification refused)
	Shed     uint64 // acked shed (intake full or credit overrun)
	Failed   uint64 // acked failed (batch-level error), or submit frames refused oversized
}

// Snapshot returns a consistent copy of the counters.
func (s *Stats) Snapshot() Stats {
	return Stats{
		Streams:  atomic.LoadUint64(&s.Streams),
		Received: atomic.LoadUint64(&s.Received),
		Accepted: atomic.LoadUint64(&s.Accepted),
		Rejected: atomic.LoadUint64(&s.Rejected),
		Shed:     atomic.LoadUint64(&s.Shed),
		Failed:   atomic.LoadUint64(&s.Failed),
	}
}

// countAck records one decision in the counters.
func (s *Stats) countAck(status AckStatus) {
	switch status {
	case StatusAccepted:
		atomic.AddUint64(&s.Accepted, 1)
	case StatusRejected:
		atomic.AddUint64(&s.Rejected, 1)
	case StatusShed:
		atomic.AddUint64(&s.Shed, 1)
	case StatusFailed:
		atomic.AddUint64(&s.Failed, 1)
	}
}

// Acked sums the decided outcomes.
func (s Stats) Acked() uint64 { return s.Accepted + s.Rejected + s.Shed + s.Failed }
