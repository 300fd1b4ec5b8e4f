package telemetry

import (
	"testing"
	"time"
)

// The overhead benchmarks measure what instrumentation costs at each call
// site.

func BenchmarkCounterAdd(b *testing.B) {
	c := NewCounter()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	_ = c.Value()
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.RunParallel(func(pb *testing.PB) {
		v := uint64(1)
		for pb.Next() {
			h.Observe(v)
			v = v*2862933555777941757 + 3037000493 // cheap LCG: spread the octaves
		}
	})
}

func BenchmarkDurationSince(b *testing.B) {
	d := &DurationHistogram{H: NewHistogram()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		d.Since(t0)
	}
}

func BenchmarkTracerUnsampled(b *testing.B) {
	tr := NewTracer(1<<30, 8) // effectively never samples
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if t := tr.Sample(); t != nil {
				t.Finish("bench")
			}
		}
	})
}

func BenchmarkRegistrySnapshot(b *testing.B) {
	r := New()
	for _, n := range []string{"a", "b", "c", "d"} {
		r.Counter("bench_"+n+"_total", "bench").Inc()
	}
	h := r.Duration("bench_seconds", "bench")
	h.Observe(time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}
