package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"prio/internal/afe"
	"prio/internal/field"
	"prio/internal/transport"
)

// gatePeer holds every call of one message type until release is closed.
type gatePeer struct {
	transport.Peer
	hold    byte
	held    *atomic.Int64
	release chan struct{}
}

func (p *gatePeer) Call(msgType byte, payload []byte) ([]byte, error) {
	if msgType == p.hold {
		p.held.Add(1)
		<-p.release
	}
	return p.Peer.Call(msgType, payload)
}

// liveBytes is the heap and stack the process holds after a full collection.
func liveBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc + ms.StackInuse
}

// measureBatchPin runs depth full batches of maxBatch submissions on an
// in-process sealed cluster, holds all of them at their first call of type
// hold on every server, and returns the live bytes they add per batch.
func measureBatchPin(t *testing.T, scheme afe.Scheme[uint64], servers, depth, maxBatch int, hold byte) (measured, charged int) {
	t.Helper()
	f := field.NewF64()
	pro, err := NewProtocol(Config[field.F64, uint64]{Field: f, Scheme: scheme, Servers: servers, Mode: ModeSNIP, SnipReps: 2, Seal: true})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewLocalCluster(pro)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(pro, cl.PublicKeys(), nil)
	if err != nil {
		t.Fatal(err)
	}
	batches := make([][]*Submission, depth+1)
	for k := range batches {
		batches[k] = make([]*Submission, maxBatch)
		for j := range batches[k] {
			if batches[k][j], err = client.BuildSubmission(make([]uint64, pro.l)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var held atomic.Int64
	release := make(chan struct{})
	ld := leaderOn(t, cl, 0, func(j int, p transport.Peer) transport.Peer {
		return &gatePeer{Peer: p, hold: hold, held: &held, release: release}
	})
	// A warm-up batch fills the pools and the evaluator cache.
	warm := leaderOn(t, cl, 0, nil)
	if _, err := warm.ProcessBatch(batches[depth]); err != nil {
		t.Fatal(err)
	}

	before := liveBytes()
	var wg sync.WaitGroup
	for k := 0; k < depth; k++ {
		wg.Add(1)
		go func(subs []*Submission) {
			defer wg.Done()
			if _, err := ld.ProcessBatch(subs); err != nil {
				t.Error(err)
			}
		}(batches[k])
	}
	for held.Load() < int64(depth*servers) {
		runtime.Gosched()
	}
	during := liveBytes()
	close(release)
	wg.Wait()
	runtime.KeepAlive(batches)
	return int(during-before) / depth, pro.batchCharge(maxBatch)
}

// TestBatchChargeHonest: the bytes the pipeline's budget charges a full
// batch are within 2× of what such a batch holds live, measured on an
// in-process cluster with eight batches held at their Round2 probe (all
// servers' verifier state, the Round1 replies, the batch goroutines) and
// again at their commit, for a small, a medium and a large share.
func TestBatchChargeHonest(t *testing.T) {
	if testing.Short() {
		t.Skip("measures live heap")
	}
	defer func(r int) { runtime.MemProfileRate = r }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	f := field.NewF64()
	for _, tc := range []struct {
		name    string
		scheme  afe.Scheme[uint64]
		servers int
	}{
		{"sum8/s5", afe.NewSum(f, 8), 5},
		{"linreg10x14/s3", afe.NewLinRegUniform(f, 10, 14), 3},
		{"bits1024/s3", afe.NewBitVector(f, 1024), 3},
	} {
		for _, hold := range []byte{MsgRound2Batch, MsgFinish} {
			measured, charged := measureBatchPin(t, tc.scheme, tc.servers, 8, 16, hold)
			t.Logf("%s held at %#x: %d B live per batch, charged %d B (%.2f×)", tc.name, hold, measured, charged, float64(charged)/float64(measured))
			if charged > 2*measured || measured > 2*charged {
				t.Errorf("%s held at %#x: charged %d B for a batch holding %d B, not within 2×", tc.name, hold, charged, measured)
			}
		}
	}
}

// TestPipelineMaxHeld pins what the pipeline tells the ingest edge it can
// hold, at the deployment prio-server and the benchmark run (MaxBatch 16, two
// shards, sealed, two SNIP repetitions): the queue's 128 plus the submissions
// its byte budget lets out in full batches. Only bits1024's is below the
// 1,024-slot intake queue, so only there does it bound the ingest credits.
func TestPipelineMaxHeld(t *testing.T) {
	f := field.NewF64()
	for _, tc := range []struct {
		name    string
		scheme  afe.Scheme[uint64]
		servers int
		want    int
	}{
		{"sum8/s5", afe.NewSum(f, 8), 5, 5366},
		{"linreg10x14/s3", afe.NewLinRegUniform(f, 10, 14), 3, 1429},
		{"bits1024/s3", afe.NewBitVector(f, 1024), 3, 377},
	} {
		pro, err := NewProtocol(Config[field.F64, uint64]{Field: f, Scheme: tc.scheme, Servers: tc.servers, Mode: ModeSNIP, SnipReps: 2, Seal: true})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := NewLocalCluster(pro)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := NewPipeline(cl.Leader, PipelineConfig{Shards: 2, MaxBatch: 16})
		if err != nil {
			t.Fatal(err)
		}
		if got := pl.MaxHeld(); got != tc.want {
			t.Errorf("%s: MaxHeld = %d, want %d (queue %d, budget %d B, full batch %d B)", tc.name, got, tc.want, cap(pl.queue), pl.budget, pl.fullCharge)
		}
		pl.Close()
	}
}
