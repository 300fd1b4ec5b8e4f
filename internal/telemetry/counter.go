package telemetry

import (
	"math"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// cell is one cache-line-padded counter stripe. The padding keeps
// concurrent writers on different cores from false-sharing a line, which
// is the entire point of striping.
type cell struct {
	v uint64
	_ [7]uint64
}

// Counter is a monotonically increasing, lock-free sharded counter. Adds
// land on one of several cache-line-padded stripes chosen by a cheap
// goroutine-affine hash, so concurrent writers do not contend on a single
// cache line; Value sums the stripes. The zero Counter is not usable —
// obtain one from a Registry (or NewCounter for an unregistered one).
//
// A nil *Counter is a valid no-op target for both Add and Value, so
// optional instrumentation needs no call-site branching.
type Counter struct {
	cells []cell
	mask  uint32
}

// counterStripes returns the stripe count: the next power of two covering
// GOMAXPROCS, capped so one counter stays a few KB at most.
func counterStripes() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n <<= 1
	}
	return n
}

// NewCounter builds an unregistered counter. Most callers want
// Registry.Counter instead, which also names and exports it.
func NewCounter() *Counter {
	n := counterStripes()
	return &Counter{cells: make([]cell, n), mask: uint32(n - 1)}
}

// stripeHint derives a goroutine-affine stripe index from the address of
// a stack variable: goroutine stacks live in distinct allocations, so
// concurrent goroutines spread across stripes while one goroutine keeps
// hitting the same hot cell. Any index is correct — the hint only shapes
// contention.
func stripeHint() uint32 {
	var b byte
	p := uintptr(unsafe.Pointer(&b))
	return uint32((p >> 9) * 0x9E3779B1 >> 16)
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	atomic.AddUint64(&c.cells[stripeHint()&c.mask].v, n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the stripes. It is safe concurrently with Add; the result is
// a momentary snapshot.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.cells {
		sum += atomic.LoadUint64(&c.cells[i].v)
	}
	return sum
}

// Gauge is a float64 value that can go up and down (queue depths,
// occupancy ratios). Reads and writes are atomic on the float's bit
// pattern. A nil *Gauge is a no-op.
type Gauge struct {
	bits uint64
}

// NewGauge builds an unregistered gauge; most callers want Registry.Gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.bits, math.Float64bits(v))
}

// Add adjusts the gauge by delta (CAS loop; gauges are low-rate).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := atomic.LoadUint64(&g.bits)
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(&g.bits, old, next) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.bits))
}
