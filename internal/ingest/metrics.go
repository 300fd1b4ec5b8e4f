package ingest

import (
	"sync/atomic"

	"prio/internal/telemetry"
	"prio/internal/transport"
)

// ingestMetrics is the ingest edge's view into the telemetry registry. The
// subsystem-wide ledger totals live in Server.totals, plain atomics that
// count under every build tag; the registry exports them through
// CounterFuncs, so Server.Stats and a scrape read the same numbers.
type ingestMetrics struct {
	frameDur  *telemetry.DurationHistogram // submit frame decode → routed (fast path or parked)
	intakeDur *telemetry.DurationHistogram // wait in the intake queue before the pump drains it
	decision  *telemetry.DurationHistogram // frame decode → ack decision, any outcome

	retunes     *telemetry.Counter // dynamic-credit window changes pushed to clients
	busyStreams int64              // streams the last tune tick saw submitting (atomic)

	// Wire totals fold each closed stream's FrameConn counters into these;
	// the registered CounterFuncs add the live streams on top, so the
	// exported series never move backwards when a stream closes.
	closedWire transport.Stats
}

// newIngestMetrics registers the ingest metric families in reg. The ledger
// CounterFuncs read s.totals; the wire CounterFuncs close over s to include
// the live streams' FrameConn counters.
func newIngestMetrics(reg *telemetry.Registry, s *Server) *ingestMetrics {
	for _, c := range []struct {
		name, help string
		v          *uint64
	}{
		{"prio_ingest_streams_total", "ingest streams opened", &s.totals.Streams},
		{"prio_ingest_received_total", "submit frames decoded or refused oversized", &s.totals.Received},
		{"prio_ingest_accepted_total", "submissions acked accepted (shares entered the accumulators)", &s.totals.Accepted},
		{"prio_ingest_rejected_total", "submissions acked rejected (verification refused the proof)", &s.totals.Rejected},
		{"prio_ingest_shed_total", "submissions acked shed (credit overrun or intake queue full)", &s.totals.Shed},
		{"prio_ingest_failed_total", "submissions acked failed (batch-level verification error), or submit frames refused oversized", &s.totals.Failed},
	} {
		v := c.v
		reg.CounterFunc(c.name, c.help, func() uint64 { return atomic.LoadUint64(v) })
	}
	m := &ingestMetrics{
		frameDur: reg.Duration("prio_ingest_frame_seconds",
			"submit frame handling: decode through routing into the sink or intake queue"),
		intakeDur: reg.Duration("prio_ingest_intake_wait_seconds",
			"time a parked submission waits in the intake queue before the pump drains it"),
		decision: reg.Duration("prio_ingest_decision_seconds",
			"submit frame decode to ack decision, across all outcomes"),
		retunes: reg.Counter("prio_ingest_credit_retunes_total",
			"dynamic-credit window retunes pushed to clients"),
	}
	wire := func(v *uint64, fc func(*transport.Stats) *uint64) func() uint64 {
		return func() uint64 {
			total := atomic.LoadUint64(v)
			s.mu.Lock()
			for _, st := range s.streams {
				total += atomic.LoadUint64(fc(st.fc.Stats()))
			}
			s.mu.Unlock()
			return total
		}
	}
	reg.CounterFunc("prio_ingest_wire_frames_in_total",
		"frames received on ingest streams, live and closed",
		wire(&m.closedWire.MsgsRecv, func(st *transport.Stats) *uint64 { return &st.MsgsRecv }))
	reg.CounterFunc("prio_ingest_wire_frames_out_total",
		"frames sent on ingest streams, live and closed",
		wire(&m.closedWire.MsgsSent, func(st *transport.Stats) *uint64 { return &st.MsgsSent }))
	reg.CounterFunc("prio_ingest_wire_bytes_in_total",
		"framed bytes received on ingest streams, live and closed",
		wire(&m.closedWire.BytesRecv, func(st *transport.Stats) *uint64 { return &st.BytesRecv }))
	reg.CounterFunc("prio_ingest_wire_bytes_out_total",
		"framed bytes sent on ingest streams, live and closed",
		wire(&m.closedWire.BytesSent, func(st *transport.Stats) *uint64 { return &st.BytesSent }))
	reg.GaugeFunc("prio_ingest_intake_depth",
		"submissions parked in the intake queue",
		func() float64 { return float64(len(s.intake)) })
	reg.GaugeFunc("prio_ingest_streams_active",
		"ingest streams currently open",
		func() float64 {
			s.mu.Lock()
			n := len(s.streams)
			s.mu.Unlock()
			return float64(n)
		})
	reg.GaugeFunc("prio_ingest_busy_streams",
		"streams the last dynamic-credit tick saw submitting",
		func() float64 { return float64(atomic.LoadInt64(&m.busyStreams)) })
	reg.GaugeFunc("prio_ingest_credit_windows",
		"per-stream windows granted, summed across open streams: what the streams may have un-acked between them",
		func() float64 {
			s.mu.Lock()
			total := 0
			for _, st := range s.streams {
				st.cmu.Lock()
				total += st.window
				st.cmu.Unlock()
			}
			s.mu.Unlock()
			return float64(total)
		})
	reg.GaugeFunc("prio_ingest_credit_target",
		"mean per-stream window target across open streams",
		func() float64 {
			s.mu.Lock()
			total, n := 0, 0
			for _, st := range s.streams {
				st.cmu.Lock()
				total += st.target
				st.cmu.Unlock()
				n++
			}
			s.mu.Unlock()
			if n == 0 {
				return 0
			}
			return float64(total) / float64(n)
		})
	return m
}

// setBusyStreams records the busy-stream count from the latest tune tick.
func (m *ingestMetrics) setBusyStreams(n int) {
	atomic.StoreInt64(&m.busyStreams, int64(n))
}

// foldWire accumulates a closing stream's FrameConn counters into the
// process totals.
func (m *ingestMetrics) foldWire(st transport.Stats) {
	atomic.AddUint64(&m.closedWire.MsgsRecv, st.MsgsRecv)
	atomic.AddUint64(&m.closedWire.MsgsSent, st.MsgsSent)
	atomic.AddUint64(&m.closedWire.BytesRecv, st.BytesRecv)
	atomic.AddUint64(&m.closedWire.BytesSent, st.BytesSent)
}
