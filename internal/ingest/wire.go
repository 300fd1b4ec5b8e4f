package ingest

import (
	"encoding/binary"
	"errors"

	"prio/internal/core"
	"prio/internal/transport"
)

// magic names the stream subprotocol in the MsgStreamOpen payload.
const magic = "prio-ingest/1"

// Frame types of the ingest stream, disjoint from core's message space
// (1–9) and below transport's reserved range (0xFD–0xFF).
const (
	msgHello  byte = 0x20 // server → client: u32 credit grant
	msgSubmit byte = 0x21 // client → server: u64 id ‖ Submission.Marshal
	msgAcks   byte = 0x22 // server → client: u32 n, then n × (u64 id ‖ u8 status)
	// msgCredit retunes the stream's window mid-flight (dynamic credits):
	// the client raises its submit limit immediately on a grow and lets a
	// shrink take effect as outstanding submissions drain. The server
	// enforces the shrink the same way — one window slot retired per ack —
	// so a submission sent legally under the old window is never shed for
	// arriving after the retune.
	msgCredit byte = 0x23 // server → client: u32 new window
)

// errProto reports a malformed ingest frame.
var errProto = errors.New("ingest: malformed frame")

// AckStatus is the server's per-submission decision, delivered
// asynchronously and matched to the submission by ID.
type AckStatus uint8

const (
	// StatusRejected: the servers verified the submission and refused it.
	StatusRejected AckStatus = iota
	// StatusAccepted: the submission's shares entered the accumulators.
	StatusAccepted
	// StatusShed: the server dropped the submission unverified — its intake
	// was full, or the stream overran its credit window. Retrying later is
	// safe: a shed submission never reached the accumulators.
	StatusShed
	// StatusFailed: a batch-level verification error lost the submission.
	StatusFailed
)

// String implements fmt.Stringer.
func (st AckStatus) String() string {
	switch st {
	case StatusRejected:
		return "rejected"
	case StatusAccepted:
		return "accepted"
	case StatusShed:
		return "shed"
	case StatusFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// statusOf maps a pipeline decision to its wire status.
func statusOf(r core.SubmitResult) AckStatus {
	switch {
	case r.Err != nil:
		return StatusFailed
	case r.Accepted:
		return StatusAccepted
	default:
		return StatusRejected
	}
}

// ackEntry is one (submission ID, decision) pair awaiting transmission.
type ackEntry struct {
	id     uint64
	status AckStatus
}

// queuedSubmit is one submission awaiting the stream's writer.
type queuedSubmit struct {
	id  uint64
	sub *core.Submission
}

// writeSubmit appends q's submit frame, the stream-local ID followed by the
// submission's encoding (core.Submission.AppendBinary), to fc's write
// buffer, copying each bundle there straight from the submission: no
// frame-sized buffer holds a queued submission a second time.
func writeSubmit(fc *transport.FrameConn, q queuedSubmit) error {
	n := len(q.sub.Bundles)
	head := make([]byte, 12+4*n) // ID, bundle count, one length per bundle
	binary.LittleEndian.PutUint64(head, q.id)
	binary.LittleEndian.PutUint32(head[8:], uint32(n))
	parts := make([][]byte, 1, 1+2*n)
	parts[0] = head[:12]
	for i, b := range q.sub.Bundles {
		l := head[12+4*i : 16+4*i]
		binary.LittleEndian.PutUint32(l, uint32(len(b)))
		parts = append(parts, l, b)
	}
	return fc.WriteFrameParts(msgSubmit, parts...)
}

// decodeSubmit parses a submit frame.
func decodeSubmit(payload []byte) (uint64, *core.Submission, error) {
	if len(payload) < 8 {
		return 0, nil, errProto
	}
	id := binary.LittleEndian.Uint64(payload)
	sub, err := core.UnmarshalSubmission(payload[8:])
	if err != nil {
		return 0, nil, err
	}
	return id, sub, nil
}

// writeAcks sends one ack frame carrying the batch and flushes it.
func writeAcks(fc *transport.FrameConn, acks []ackEntry) error {
	out := make([]byte, 0, 4+9*len(acks))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(acks)))
	for _, a := range acks {
		out = binary.LittleEndian.AppendUint64(out, a.id)
		out = append(out, byte(a.status))
	}
	if err := fc.WriteFrame(msgAcks, out); err != nil {
		return err
	}
	return fc.Flush()
}

// decodeAcks parses an ack frame into the callback.
func decodeAcks(payload []byte, fn func(id uint64, status AckStatus)) error {
	if len(payload) < 4 {
		return errProto
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if n < 0 || len(payload) != 4+9*n {
		return errProto
	}
	off := 4
	for i := 0; i < n; i++ {
		id := binary.LittleEndian.Uint64(payload[off:])
		status := AckStatus(payload[off+8])
		off += 9
		fn(id, status)
	}
	return nil
}
