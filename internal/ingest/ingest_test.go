package ingest

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prio/internal/afe"
	"prio/internal/core"
	"prio/internal/field"
	"prio/internal/sealbox"
	"prio/internal/transport"
)

// fakeSink is a scriptable Sink for protocol-level tests: decide controls
// each submission's outcome, gate (when non-nil) delays decisions until
// released, and full (atomic) makes TrySubmitFunc report a saturated queue.
type fakeSink struct {
	decide func(sub *core.Submission) core.SubmitResult
	gate   chan struct{}
	full   int32

	mu       sync.Mutex
	inflight int
	maxSeen  int
}

func (f *fakeSink) SubmitFunc(sub *core.Submission, fn func(core.SubmitResult)) error {
	f.mu.Lock()
	f.inflight++
	if f.inflight > f.maxSeen {
		f.maxSeen = f.inflight
	}
	f.mu.Unlock()
	go func() {
		if f.gate != nil {
			<-f.gate
		}
		r := core.SubmitResult{Accepted: true}
		if f.decide != nil {
			r = f.decide(sub)
		}
		f.mu.Lock()
		f.inflight--
		f.mu.Unlock()
		fn(r)
	}()
	return nil
}

func (f *fakeSink) TrySubmitFunc(sub *core.Submission, fn func(core.SubmitResult)) (bool, error) {
	if atomic.LoadInt32(&f.full) != 0 {
		return false, nil
	}
	return true, f.SubmitFunc(sub, fn)
}

// serveIngest stands up a TCP endpoint running the ingest stream handler.
func serveIngest(t *testing.T, sink Sink, cfg Config) (*Server, string, func()) {
	t.Helper()
	ing := NewServer(sink, cfg)
	srv, err := transport.Listen("127.0.0.1:0", nil, func(byte, []byte) ([]byte, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.OnStream(ing.Handler())
	return ing, srv.Addr().String(), func() {
		srv.Close()
		ing.Close()
	}
}

// testSub fabricates a submission whose first bundle byte tags it.
func testSub(tag byte) *core.Submission {
	return &core.Submission{Bundles: [][]byte{{tag, 1, 2, 3}}}
}

// TestWriteSubmitFrame: the frame writeSubmit builds from a queued
// submission's bundles is its stream-local ID followed by the submission's
// own encoding, and decodes back to it.
func TestWriteSubmitFrame(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	w, r := transport.NewFrameConn(a), transport.NewFrameConn(b)
	sub := &core.Submission{Bundles: [][]byte{{1, 2, 3}, {}, make([]byte, 300)}}
	errc := make(chan error, 1)
	go func() {
		if err := writeSubmit(w, queuedSubmit{7, sub}); err != nil {
			errc <- err
			return
		}
		errc <- w.Flush()
	}()
	msgType, payload, err := r.ReadFrame()
	if err != nil || msgType != msgSubmit {
		t.Fatalf("frame type %d, err %v", msgType, err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if want := sub.AppendBinary(binary.LittleEndian.AppendUint64(nil, 7)); string(payload) != string(want) {
		t.Fatalf("frame %x, want %x", payload, want)
	}
	id, got, err := decodeSubmit(payload)
	if err != nil || id != 7 || len(got.Bundles) != len(sub.Bundles) {
		t.Fatalf("decoded id %d, %d bundles, err %v", id, len(got.Bundles), err)
	}
}

// TestAckIDMatching pipelines submissions from several goroutines over one
// stream, with the sink deciding accept/reject from each submission's own
// payload, and checks every ack matches the expectation recorded for its ID.
// Run under -race: it exercises the submitter's shared pending table.
func TestAckIDMatching(t *testing.T) {
	sink := &fakeSink{decide: func(sub *core.Submission) core.SubmitResult {
		return core.SubmitResult{Accepted: sub.Bundles[0][0]%2 == 0}
	}}
	_, addr, stop := serveIngest(t, sink, Config{Credits: 8})
	defer stop()

	var mu sync.Mutex
	want := make(map[uint64]bool) // id → expect accepted
	got := make(map[uint64]AckStatus)
	sub, err := Dial(addr, SubmitterConfig{OnAck: func(a Ack) {
		mu.Lock()
		got[a.ID] = a.Status
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const workers, per = 4, 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tag := byte(w*per + i)
				id, err := sub.Submit(testSub(tag))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				want[id] = tag%2 == 0
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := sub.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != workers*per || len(want) != workers*per {
		t.Fatalf("acked %d of %d submissions", len(got), workers*per)
	}
	for id, accepted := range want {
		wantStatus := StatusRejected
		if accepted {
			wantStatus = StatusAccepted
		}
		if got[id] != wantStatus {
			t.Errorf("id %d: status %v, want %v", id, got[id], wantStatus)
		}
	}
	st := sub.Stats()
	if st.Accepted+st.Rejected != workers*per || st.Shed != 0 || st.Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestBackpressureNoDrops wedges the sink so credits exhaust, keeps
// submitting past the window, and checks that (a) the client was actually
// gated — the server never saw more than the credit window in flight — and
// (b) nothing was shed: backpressure queued the flood at the client.
func TestBackpressureNoDrops(t *testing.T) {
	const credits, total = 8, 50
	sink := &fakeSink{gate: make(chan struct{})}
	ing, addr, stop := serveIngest(t, sink, Config{Credits: credits, QueueDepth: 64})
	defer stop()

	sub, err := Dial(addr, SubmitterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.Credits() != credits {
		t.Fatalf("granted %d credits, want %d", sub.Credits(), credits)
	}

	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if _, err := sub.Submit(testSub(byte(i))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	// With the sink wedged, the submitter must stall at the credit window.
	deadline := time.Now().Add(2 * time.Second)
	for sub.Outstanding() < credits && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := sub.Outstanding(); n != credits {
		t.Fatalf("outstanding = %d, want the full window %d", n, credits)
	}
	select {
	case err := <-done:
		t.Fatalf("submitter finished while gated (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(sink.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := sub.Wait(); err != nil {
		t.Fatal(err)
	}
	st := sub.Stats()
	if st.Accepted != total || st.Shed != 0 || st.Failed != 0 {
		t.Errorf("client stats = %+v, want %d accepted and no sheds", st, total)
	}
	srvStats := ing.Stats()
	if srvStats.Accepted != total || srvStats.Shed != 0 {
		t.Errorf("server stats = %+v", srvStats)
	}
	sink.mu.Lock()
	maxSeen := sink.maxSeen
	sink.mu.Unlock()
	if maxSeen > credits {
		t.Errorf("sink saw %d submissions in flight, credits allow %d", maxSeen, credits)
	}
}

// TestIntakeQueueAbsorbsFullPipeline forces the non-blocking pipeline path
// to report "full": submissions must detour through the intake queue and
// still be decided, with nothing shed.
func TestIntakeQueueAbsorbsFullPipeline(t *testing.T) {
	sink := &fakeSink{}
	atomic.StoreInt32(&sink.full, 1) // TrySubmitFunc always refuses
	ing, addr, stop := serveIngest(t, sink, Config{Credits: 8, QueueDepth: 32})
	defer stop()

	sub, err := Dial(addr, SubmitterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	const total = 24
	for i := 0; i < total; i++ {
		if _, err := sub.Submit(testSub(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sub.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := sub.Stats(); st.Accepted != total || st.Shed != 0 {
		t.Errorf("stats = %+v, want %d accepted via the intake queue", st, total)
	}
	if st := ing.Stats(); st.Accepted != total || st.Shed != 0 {
		t.Errorf("server stats = %+v", st)
	}
}

// TestShedWhenEverythingFull exhausts both the pipeline and the intake
// queue: the overflow must come back as explicit shed acks (returning their
// credits), not silent drops or a wedged stream.
func TestShedWhenEverythingFull(t *testing.T) {
	sink := &fakeSink{gate: make(chan struct{})}
	atomic.StoreInt32(&sink.full, 1)
	// The pump's blocking submit stays wedged too, so it holds exactly one
	// submission instead of draining the intake queue as fast as it fills.
	wedged := &wedgedSink{fakeSink: sink, release: make(chan struct{})}
	ing, addr, stop := serveIngest(t, wedged, Config{Credits: 16, QueueDepth: 4})
	defer stop()

	var shed atomic.Int64
	sub, err := Dial(addr, SubmitterConfig{OnAck: func(a Ack) {
		if a.Status == StatusShed {
			shed.Add(1)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	const total = 16 // within credits, beyond QueueDepth+pump
	for i := 0; i < total; i++ {
		if _, err := sub.Submit(testSub(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Sheds ack immediately; everything else waits on the gate. The pump
	// holds one item, the queue four, so ≥ 11 must shed.
	deadline := time.Now().Add(2 * time.Second)
	for shed.Load() < total-5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := shed.Load(); got < total-5 {
		t.Fatalf("shed %d, want ≥ %d", got, total-5)
	}
	close(wedged.release)
	close(sink.gate)
	atomic.StoreInt32(&sink.full, 0)
	if err := sub.Wait(); err != nil {
		t.Fatal(err)
	}
	st := sub.Stats()
	if st.Shed != uint64(shed.Load()) || st.Accepted+st.Shed != total {
		t.Errorf("stats = %+v", st)
	}
	if srvStats := ing.Stats(); srvStats.Shed != st.Shed {
		t.Errorf("server shed %d, client saw %d", srvStats.Shed, st.Shed)
	}
}

// TestTeardownMidFlight kills the server while submissions are in flight:
// blocked and future Submits must fail promptly, Wait must return the
// stream error, and nothing may deadlock (run under -race and -timeout).
func TestTeardownMidFlight(t *testing.T) {
	sink := &fakeSink{gate: make(chan struct{})}
	defer close(sink.gate)
	_, addr, stop := serveIngest(t, sink, Config{Credits: 4})

	sub, err := Dial(addr, SubmitterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i := 0; i < 4; i++ {
		if _, err := sub.Submit(testSub(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// One more submitter is now blocked on the exhausted window.
	blocked := make(chan error, 1)
	go func() {
		_, err := sub.Submit(testSub(0xEE))
		blocked <- err
	}()
	select {
	case err := <-blocked:
		t.Fatalf("fifth submit returned early (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	stop() // tear the server down mid-flight
	if err := <-blocked; err == nil {
		t.Error("blocked Submit survived teardown")
	}
	if err := sub.Wait(); err == nil {
		t.Error("Wait returned nil after teardown with acks outstanding")
	}
	if _, err := sub.Submit(testSub(0xFF)); err == nil {
		t.Error("Submit on a dead stream succeeded")
	}
}

// TestStreamedPipelineOverTCP is the full-stack integration test:
// real servers behind TCP listeners, a leader whose peers ride streamed TCP
// connections, a sharded verification pipeline, the ingest stream handler on
// the leader's own listener, and a StreamSubmitter pushing pipelined
// submissions — then the aggregate must be exact and every ack accounted.
func TestStreamedPipelineOverTCP(t *testing.T) {
	f := field.NewF64()
	scheme := afe.NewSum(f, 8)
	pro, err := core.NewProtocol(core.Config[field.F64, uint64]{
		Field: f, Scheme: scheme, Servers: 3, Mode: core.ModeSNIP, SnipReps: 1, Seal: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Two follower servers behind real TCP listeners.
	servers := make([]*core.Server[field.F64, uint64], 3)
	peers := make([]transport.Peer, 3)
	for i := 0; i < 3; i++ {
		srv, err := core.NewServer(pro, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
	}
	peers[0] = &transport.LoopbackPeer{Handler: servers[0].Handle}
	for i := 1; i < 3; i++ {
		ln, err := transport.Listen("127.0.0.1:0", nil, servers[i].Handle)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		peers[i] = transport.NewStreamPeer(ln.Addr().String(), nil)
	}
	leader, err := core.NewLeader(servers[0], peers)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.NewPipeline(leader, core.PipelineConfig{Shards: 4, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	// The leader's own listener terminates ingest streams.
	ing := NewServer(pl, Config{Credits: 32, QueueDepth: 256})
	defer ing.Close()
	ln, err := transport.Listen("127.0.0.1:0", nil, servers[0].Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ln.OnStream(ing.Handler())

	keys := make([]*sealbox.PublicKey, 3)
	for i, srv := range servers {
		keys[i] = srv.PublicKey()
	}
	client, err := core.NewClient(pro, keys, nil)
	if err != nil {
		t.Fatal(err)
	}

	const total = 120
	var want uint64
	subs := make([]*core.Submission, total)
	for i := range subs {
		v := uint64(i % 200)
		want += v
		enc, err := scheme.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		subs[i], err = client.BuildSubmission(enc)
		if err != nil {
			t.Fatal(err)
		}
	}

	var acked atomic.Int64
	streamer, err := Dial(ln.Addr().String(), SubmitterConfig{OnAck: func(a Ack) {
		acked.Add(1)
		if a.Status != StatusAccepted {
			t.Errorf("submission %d: %v", a.ID, a.Status)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer streamer.Close()
	for _, sub := range subs {
		if _, err := streamer.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	if err := streamer.Wait(); err != nil {
		t.Fatal(err)
	}
	if acked.Load() != total {
		t.Fatalf("acked %d of %d", acked.Load(), total)
	}

	agg, n, err := pl.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("aggregated %d of %d", n, total)
	}
	got, err := scheme.Decode(agg, int(n))
	if err != nil {
		t.Fatal(err)
	}
	if got.Uint64() != want {
		t.Errorf("aggregate = %v, want %d", got, want)
	}
	if st := ing.Stats(); st.Accepted != total || st.Shed != 0 || st.Streams != 1 {
		t.Errorf("ingest stats = %+v", st)
	}
}

// TestNonReadingFloodDoesNotWedge regresses the shard-wedging hazard: a
// client that floods submissions while never reading acks eventually fills
// the server's ack channel (the ack writer is blocked against the client's
// full socket). finish must drop that stream rather than block — blocking
// there would stall a pipeline shard goroutine and take the whole server
// down with one bad connection. Afterwards a compliant stream must work.
func TestNonReadingFloodDoesNotWedge(t *testing.T) {
	sink := &fakeSink{}
	ing, addr, stop := serveIngest(t, sink, Config{Credits: 8, QueueDepth: 16})
	defer stop()

	fc, err := transport.DialStream(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if err := fc.WriteFrame(transport.MsgStreamOpen, []byte(magic)); err != nil {
		t.Fatal(err)
	}
	if err := fc.Flush(); err != nil {
		t.Fatal(err)
	}
	if msgType, _, err := fc.ReadFrame(); err != nil || msgType != msgHello {
		t.Fatalf("hello: type %d err %v", msgType, err)
	}
	// Flood without ever reading an ack. Acks pile into the kernel buffers,
	// then into the server's ack channel; once that overflows the server
	// must kill the stream, surfacing here as a write error.
	payload := testSub(1).AppendBinary(binary.LittleEndian.AppendUint64(nil, 0))
	killed := false
	for i := 0; i < 2_000_000; i++ {
		binary.LittleEndian.PutUint64(payload, uint64(i+1))
		if err := fc.WriteFrame(msgSubmit, payload); err != nil {
			killed = true
			break
		}
		if i%64 == 0 {
			if err := fc.Flush(); err != nil {
				killed = true
				break
			}
		}
	}
	if !killed {
		t.Fatal("server never dropped a 2M-submission non-reading flood")
	}

	// The server must still serve compliant streams.
	s, err := Dial(addr, SubmitterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 20; i++ {
		if _, err := s.Submit(testSub(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Accepted != 20 {
		t.Fatalf("post-flood stream: %+v", st)
	}
	if st := ing.Stats(); st.Streams != 2 {
		t.Errorf("server saw %d streams, want 2", st.Streams)
	}
}

// limitSink is a fakeSink that reports max as its largest submission.
type limitSink struct {
	*fakeSink
	max int
}

func (s *limitSink) MaxSubmission() int { return s.max }

// TestSubmitFrameLimit: a sink that reports its largest submission bounds
// the submit frame. A frame exactly at the bound is verified; a length
// prefix one byte over is refused with MsgError before its payload is even
// sent, the sink never sees it, and it counts as failed; an oversized frame
// of another type is refused the same way and counts nothing. A sink that
// reports no bound takes a frame far past the connection's buffer.
func TestSubmitFrameLimit(t *testing.T) {
	big := &core.Submission{Bundles: [][]byte{make([]byte, 100<<10)}}
	size := len(big.Marshal())
	var seen atomic.Int64
	newSink := func() *fakeSink {
		return &fakeSink{decide: func(*core.Submission) core.SubmitResult {
			seen.Add(1)
			return core.SubmitResult{Accepted: true}
		}}
	}
	accepts := func(t *testing.T, sink Sink) {
		t.Helper()
		seen.Store(0)
		ing, addr, stop := serveIngest(t, sink, Config{})
		defer stop()
		s, err := Dial(addr, SubmitterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Submit(big); err != nil {
			t.Fatal(err)
		}
		if err := s.Wait(); err != nil {
			t.Fatal(err)
		}
		if st := ing.Stats(); st.Accepted != 1 || st.Failed != 0 || seen.Load() != 1 {
			t.Errorf("ingest stats %+v, sink saw %d: want the submission accepted", st, seen.Load())
		}
	}

	t.Run("at the limit", func(t *testing.T) { accepts(t, &limitSink{fakeSink: newSink(), max: size}) })
	t.Run("no limit", func(t *testing.T) { accepts(t, newSink()) })
	t.Run("zero limit", func(t *testing.T) { accepts(t, &limitSink{fakeSink: newSink(), max: 0}) })

	// refuses sends the length prefix of a frame of msgType one byte over the
	// bound and expects MsgError and a closed stream; only a submit frame is
	// counted, as one failed submission.
	refuses := func(t *testing.T, msgType byte) {
		t.Helper()
		seen.Store(0)
		ing, addr, stop := serveIngest(t, &limitSink{fakeSink: newSink(), max: size - 1}, Config{})
		defer stop()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		fc := transport.NewFrameConn(conn)
		defer fc.Close()
		if err := fc.WriteFrame(transport.MsgStreamOpen, []byte(magic)); err != nil {
			t.Fatal(err)
		}
		if err := fc.Flush(); err != nil {
			t.Fatal(err)
		}
		if msgType, _, err := fc.ReadFrame(); err != nil || msgType != msgHello {
			t.Fatalf("hello: type %d err %v", msgType, err)
		}
		// The length prefix alone: the ID and the submission, one byte over.
		var hdr [5]byte
		hdr[0] = msgType
		binary.LittleEndian.PutUint32(hdr[1:], uint32(8+size))
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		type frame struct {
			msgType byte
			err     error
		}
		got := make(chan frame, 1)
		go func() {
			msgType, _, err := fc.ReadFrame()
			got <- frame{msgType, err}
		}()
		select {
		case f := <-got:
			if f.err != nil || f.msgType != transport.MsgError {
				t.Fatalf("got type %#x err %v, want MsgError", f.msgType, f.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the server waited for the payload of an oversized frame")
		}
		if _, _, err := fc.ReadFrame(); err == nil {
			t.Error("the stream stayed open after the refusal")
		}
		want := Stats{Streams: 1}
		if msgType == msgSubmit {
			want.Received, want.Failed = 1, 1
		}
		if st := ing.Stats(); st != want || seen.Load() != 0 {
			t.Errorf("ingest stats %+v, sink saw %d: want %+v and nothing at the sink", st, seen.Load(), want)
		}
	}
	t.Run("one byte over", func(t *testing.T) { refuses(t, msgSubmit) })
	t.Run("one byte over, not a submit", func(t *testing.T) { refuses(t, msgHello) })
}
