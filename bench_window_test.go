// BenchmarkWindowCheckpoint measures the durability tax of windowed
// aggregation: one durable checkpoint write (marshal, CRC, fsync, atomic
// rename) and one crash recovery (scan, CRC validation, decode) as the
// persisted accumulator grows in aggregate width and retained windows. The
// write is fsync-bound at small sizes and linear in state beyond; recovery
// stays below the write at every size, which is what makes boot-time
// recovery cheap relative to the periodic write cadence it rides on.
package prio_test

import (
	"fmt"
	"testing"

	"prio/internal/core"
	"prio/internal/field"
	"prio/internal/window"
)

// windowSnapshotFixture builds checkpoint state with aggregate width k and
// `windows` retained windows, half sealed — a steady-state retention buffer.
func windowSnapshotFixture(k, windows int) *window.Snapshot[uint64] {
	vec := func(seed uint64) []uint64 {
		v := make([]uint64, k)
		for i := range v {
			v[i] = seed*uint64(i+1) + uint64(i)
		}
		return v
	}
	snap := &window.Snapshot[uint64]{
		LastPublished: uint64(windows / 2),
		DPSpent:       0.5 * float64(windows/2),
		Acc: core.AccState[uint64]{
			Total:      vec(7),
			TotalCount: 1 << 20,
		},
	}
	for w := 1; w <= windows; w++ {
		snap.Acc.Windows = append(snap.Acc.Windows, core.WindowState[uint64]{
			ID:     uint64(w),
			Sealed: w <= windows/2,
			Noised: w <= windows/2,
			Eps:    0.5,
			Count:  uint64(1000 + w),
			Vec:    vec(uint64(w)),
		})
	}
	return snap
}

func BenchmarkWindowCheckpoint(b *testing.B) {
	f := field.NewF64()
	for _, sh := range []struct{ k, windows int }{
		{64, 8}, {256, 8}, {1024, 8}, {1024, 64}, {4096, 64}, {16384, 64},
	} {
		snap := windowSnapshotFixture(sh.k, sh.windows)
		b.Run(fmt.Sprintf("write/k=%d/windows=%d", sh.k, sh.windows), func(b *testing.B) {
			st, err := window.NewStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			var bytes int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := window.Save(st, f, snap)
				if err != nil {
					b.Fatal(err)
				}
				bytes = n
			}
			b.SetBytes(int64(bytes))
			b.ReportMetric(float64(bytes), "bytes/file")
		})
		b.Run(fmt.Sprintf("recover/k=%d/windows=%d", sh.k, sh.windows), func(b *testing.B) {
			st, err := window.NewStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			n, err := window.Save(st, f, snap)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, _, err := window.Load(st, f, sh.k)
				if err != nil || got == nil {
					b.Fatalf("recovery failed: %v", err)
				}
			}
		})
	}
}
