// Package telemetry is the process-wide metrics core: lock-free sharded
// counters, gauges, log-linear bounded-memory latency histograms with
// mergeable snapshots and quantile extraction, a named registry that
// serializes everything as Prometheus text or expvar JSON, and a sampled
// submission-lifecycle tracer.
//
// The package depends only on the standard library, so every layer of the
// server — transport, snip, core, ingest — can record into it without
// import cycles. Hot-path write operations (Counter.Add,
// Histogram.Observe) are single atomic adds on striped cells; reading is
// the expensive side (a scrape sums the stripes), which is the right
// trade for counters written millions of times per scrape.
//
// Conventions follow Prometheus: counters end in _total, durations are
// exported in seconds (recorded internally in nanoseconds), and names
// are prio_<subsystem>_<what>[_unit]. See docs/OBSERVABILITY.md for the
// full metric catalog.
package telemetry
