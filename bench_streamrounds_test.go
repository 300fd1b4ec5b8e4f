package prio_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"prio"
)

// benchRTT is the simulated one-way propagation delay between the leader
// and each remote server. Prio servers deploy across trust domains —
// different operators, typically different datacenters — so verification
// rounds cross links where round-trip time, not bandwidth, is the cost.
const benchRTT = 500 * time.Microsecond

// delayChunk is one read buffered for delivery after the propagation delay.
type delayChunk struct {
	at   time.Time
	data []byte
}

// pipeDelay forwards src to dst, delivering each chunk one-way-delay after
// it was read: fixed propagation delay, unconstrained bandwidth, order
// preserved.
func pipeDelay(src, dst net.Conn, delay time.Duration) {
	defer dst.Close()
	q := make(chan delayChunk, 1024)
	go func() {
		defer close(q)
		buf := make([]byte, 64<<10)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				q <- delayChunk{at: time.Now().Add(delay), data: append([]byte(nil), buf[:n]...)}
			}
			if err != nil {
				return
			}
		}
	}()
	for c := range q {
		if d := time.Until(c.at); d > 0 {
			time.Sleep(d)
		}
		if _, err := dst.Write(c.data); err != nil {
			return
		}
	}
}

// latencyProxy exposes backend behind a TCP proxy that adds delay of
// propagation latency each way.
func latencyProxy(tb testing.TB, backend string, delay time.Duration) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			b, err := net.Dial("tcp", backend)
			if err != nil {
				c.Close()
				continue
			}
			go pipeDelay(c, b, delay)
			go pipeDelay(b, c, delay)
		}
	}()
	return ln.Addr().String()
}

// BenchmarkStreamedRounds measures end-to-end verification throughput with
// four concurrent pipeline shards over TCP links carrying a realistic
// propagation delay (2×benchRTT round trip). What it exercises is the
// streamed rounds subprotocol keeping every shard's rounds in flight
// concurrently, correlation IDs matching replies as they return. The
// sub-benchmark name Streamed is what scripts/alloc-gate.sh and the CI
// bench job's bench-<sha>.txt archive key on.
func BenchmarkStreamedRounds(b *testing.B) {
	b.Run("Streamed", func(b *testing.B) {
		scheme := prio.NewSum(2)
		pro := newDiffProtocol(b, scheme)
		servers, addrs, _ := deployServers(b, pro, nil)
		for i := 1; i < len(addrs); i++ {
			addrs[i] = latencyProxy(b, addrs[i], benchRTT)
		}
		leader, err := prio.ConnectLeader(servers[0], addrs)
		if err != nil {
			b.Fatal(err)
		}
		pl, err := prio.NewPipeline(leader, prio.PipelineConfig{Shards: 4, MaxBatch: 8})
		if err != nil {
			b.Fatal(err)
		}
		defer pl.Close()
		subs, _ := buildMixedSubs(b, pro, scheme, 64)

		// Warm the path: establishes the peer connections and the
		// marshalling arenas, so -benchtime=1x measures steady state.
		if _, err := pl.SubmitWait(subs[0]); err != nil {
			b.Fatal(err)
		}

		var wg sync.WaitGroup
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wg.Add(1)
			if err := pl.SubmitFunc(subs[i%len(subs)], func(prio.SubmitResult) { wg.Done() }); err != nil {
				b.Fatal(err)
			}
		}
		wg.Wait()
		b.StopTimer()
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(b.N)/s, "subs/s")
		}
	})
}
