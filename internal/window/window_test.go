package window

import (
	"encoding/json"
	"errors"
	"math"
	mathrand "math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prio/internal/afe"
	"prio/internal/core"
	"prio/internal/dp"
	"prio/internal/field"
)

// fakeClock is a settable clock shared by every service in a test.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) Set(t time.Time)         { c.ns.Store(t.UnixNano()) }
func (c *fakeClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// newDeployment builds a local SNIP-mode cluster summing 8-bit integers.
func newDeployment(t *testing.T, servers int) (*core.Cluster[field.F64, uint64], *core.Client[field.F64, uint64], *afe.Sum[field.F64, uint64]) {
	t.Helper()
	f := field.NewF64()
	scheme := afe.NewSum(f, 8)
	pro, err := core.NewProtocol(core.Config[field.F64, uint64]{
		Field:    f,
		Scheme:   scheme,
		Servers:  servers,
		Mode:     core.ModeSNIP,
		SnipReps: 2,
		Seal:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewLocalCluster(pro)
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(pro, cl.PublicKeys(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return cl, client, scheme
}

func submit(t *testing.T, cl *core.Cluster[field.F64, uint64], client *core.Client[field.F64, uint64], scheme *afe.Sum[field.F64, uint64], vals ...uint64) {
	t.Helper()
	var subs []*core.Submission
	for _, v := range vals {
		enc, err := scheme.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := client.BuildSubmission(enc)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	accepts, err := cl.Leader.ProcessBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range accepts {
		if !ok {
			t.Fatalf("submission %d rejected", i)
		}
	}
}

// recorder collects OnPublish records.
type recorder struct {
	mu   sync.Mutex
	recs []Record
}

func (rc *recorder) add(r Record) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.recs = append(rc.recs, r)
}

func (rc *recorder) all() []Record {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append([]Record(nil), rc.recs...)
}

// newServices builds one Service per cluster member: member 0 carries the
// Leader and the recorder, every member gets its own checkpoint store under
// base (reused across "restarts" of the same test).
func newServices(t *testing.T, cl *core.Cluster[field.F64, uint64], now func() time.Time, width time.Duration, base string, eps float64, budget func() *dp.Budget, rec *recorder) []*Service[field.F64, uint64] {
	t.Helper()
	f := field.NewF64()
	svcs := make([]*Service[field.F64, uint64], len(cl.Servers))
	for i, srv := range cl.Servers {
		st, err := NewStore(filepath.Join(base, "m"+string(rune('0'+i))))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config[field.F64, uint64]{
			Field:  f,
			Width:  width,
			Server: srv,
			Store:  st,
			Clock:  now,
		}
		if eps > 0 {
			cfg.DP = dp.Params{Epsilon: eps, Sensitivity: 1}
		}
		if budget != nil {
			cfg.Budget = budget()
		}
		if i == 0 {
			cfg.Leader = cl.Leader
			if rec != nil {
				cfg.OnPublish = rec.add
			}
		}
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = svc
	}
	return svcs
}

func TestIDHelpers(t *testing.T) {
	w := time.Minute
	t0 := time.Unix(7200, 0)
	id := ID(t0, w)
	if id == 0 {
		t.Fatal("ID 0 is reserved")
	}
	if got := ID(t0, 0); got != 0 {
		t.Fatalf("zero width ID = %d, want 0", got)
	}
	if s, e := StartOf(id, w), EndOf(id, w); t0.Before(s) || !t0.Before(e) {
		t.Fatalf("t=%v outside its window [%v, %v)", t0, s, e)
	}
	if ID(EndOf(id, w), w) != id+1 {
		t.Fatal("window end does not open the next window")
	}
}

func testSnapshot(k int) *Snapshot[uint64] {
	total := make([]uint64, k)
	vec1 := make([]uint64, k)
	vec2 := make([]uint64, k)
	for i := 0; i < k; i++ {
		total[i] = uint64(i * 3)
		vec1[i] = uint64(i + 1)
		vec2[i] = uint64(i * i)
	}
	return &Snapshot[uint64]{
		LastPublished: 41,
		DPSpent:       1.25,
		Acc: core.AccState[uint64]{
			Total:      total,
			TotalCount: 99,
			Spilled:    2,
			Windows: []core.WindowState[uint64]{
				{ID: 41, Sealed: true, Noised: true, Eps: 0.5, Count: 60, Vec: vec1},
				{ID: 42, Count: 39, Vec: vec2},
			},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	f := field.NewF64()
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const k = 9
	snap := testSnapshot(k)
	if _, err := Save(st, f, snap); err != nil {
		t.Fatal(err)
	}
	// Re-open the store (a restart) and load.
	st2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := Load(st2, f, k)
	if err != nil {
		t.Fatal(err)
	}
	if info.Skipped != 0 || info.File == "" {
		t.Fatalf("load info = %+v", info)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("round trip not exact:\nsaved %+v\ngot   %+v", snap, got)
	}
	// Saves prune down to ckptKeep files, and the re-opened store resumed
	// the sequence (no name collision with the first file).
	for i := 0; i < 4; i++ {
		if _, err := Save(st2, f, snap); err != nil {
			t.Fatal(err)
		}
	}
	files, err := st2.list()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != ckptKeep {
		t.Fatalf("kept %d files, want %d", len(files), ckptKeep)
	}
}

func TestCheckpointCorruptFallsBack(t *testing.T) {
	f := field.NewF64()
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	older := testSnapshot(k)
	older.LastPublished = 1
	newer := testSnapshot(k)
	newer.LastPublished = 2
	if _, err := Save(st, f, older); err != nil {
		t.Fatal(err)
	}
	if _, err := Save(st, f, newer); err != nil {
		t.Fatal(err)
	}
	files, _ := st.list()
	if len(files) != 2 {
		t.Fatalf("have %d files", len(files))
	}
	// Flip one payload byte of the newest file: the CRC must catch it and
	// Load must fall back to the older snapshot.
	newest := filepath.Join(dir, files[1].name)
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(ckptMagic)+8+3] ^= 0xFF
	if err := os.WriteFile(newest, b, 0o600); err != nil {
		t.Fatal(err)
	}
	got, info, err := Load(st, f, k)
	if err != nil {
		t.Fatal(err)
	}
	if info.Skipped != 1 || got == nil || got.LastPublished != 1 {
		t.Fatalf("fallback failed: info=%+v got=%+v", info, got)
	}
	// Truncate the older file too (a torn write): nothing usable remains,
	// which is a clean empty start, not an error.
	oldest := filepath.Join(dir, files[0].name)
	ob, _ := os.ReadFile(oldest)
	if err := os.WriteFile(oldest, ob[:len(ob)/2], 0o600); err != nil {
		t.Fatal(err)
	}
	got, info, err = Load(st, f, k)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil || info.Skipped != 2 {
		t.Fatalf("fully corrupt store: info=%+v got=%+v", info, got)
	}
	// A snapshot for the wrong aggregate width is rejected as corrupt, not
	// restored into a mismatched server.
	if _, err := Save(st, f, testSnapshot(k)); err != nil {
		t.Fatal(err)
	}
	if _, info, err := Load(st, f, k+1); err != nil || info.File != "" {
		t.Fatalf("wrong-width snapshot accepted: info=%+v err=%v", info, err)
	}
}

func TestBoundaryPublishAndLedger(t *testing.T) {
	cl, client, scheme := newDeployment(t, 3)
	clk := &fakeClock{}
	width := time.Minute
	clk.Set(time.Unix(6000, 0))
	rec := &recorder{}
	svcs := newServices(t, cl, clk.Now, width, t.TempDir(), 0, nil, rec)
	w1 := svcs[0].Current()

	submit(t, cl, client, scheme, 3, 4, 5)
	clk.Advance(width)
	for _, s := range svcs {
		s.CloseBoundary()
	}
	recs := rec.all()
	if len(recs) != 1 {
		t.Fatalf("published %d windows, want 1", len(recs))
	}
	r := recs[0]
	if r.ID != w1 || r.Count != 3 || !r.Consistent || r.Noised || r.Republished {
		t.Fatalf("record = %+v", r)
	}
	if r.Agg[0] != "12" {
		t.Fatalf("aggregate = %v, want [12 ...]", r.Agg)
	}
	if svcs[0].LastPublished() != w1 {
		t.Fatalf("lastPub = %d, want %d", svcs[0].LastPublished(), w1)
	}
	// Every member checkpointed at the boundary.
	for i, s := range svcs {
		if files, _ := s.cfg.Store.list(); len(files) == 0 {
			t.Fatalf("member %d has no checkpoint", i)
		}
	}
	// An idle boundary publishes the (empty) next window rather than
	// stalling the release schedule.
	clk.Advance(width)
	svcs[0].CloseBoundary()
	recs = rec.all()
	if len(recs) != 2 || recs[1].ID != w1+1 || recs[1].Count != 0 {
		t.Fatalf("idle window record: %+v", recs)
	}
}

// TestNoisedMemberRefusesAllTimeAggregate: once members seal windows with
// DP noise, the all-time aggregate (MsgAggregate) is refused — summing the
// members' un-noised accumulators would recover exactly what the noised
// window release hides. Without DP the exact aggregate stays available.
func TestNoisedMemberRefusesAllTimeAggregate(t *testing.T) {
	for _, eps := range []float64{0, 0.5} {
		cl, client, scheme := newDeployment(t, 3)
		clk := &fakeClock{}
		width := time.Minute
		clk.Set(time.Unix(6000, 0))
		rec := &recorder{}
		svcs := newServices(t, cl, clk.Now, width, t.TempDir(), eps, nil, rec)

		submit(t, cl, client, scheme, 3, 4, 5)
		clk.Advance(width)
		for _, s := range svcs {
			s.CloseBoundary()
		}
		if recs := rec.all(); len(recs) != 1 || recs[0].Noised != (eps > 0) {
			t.Fatalf("eps=%g: records = %+v", eps, recs)
		}
		agg, n, err := cl.Leader.Aggregate()
		if eps > 0 {
			if err == nil || !strings.Contains(err.Error(), "DP noise") {
				t.Fatalf("noised deployment served the all-time aggregate %v over %d (err %v)", agg, n, err)
			}
			continue
		}
		if err != nil || n != 3 || agg[0] != 12 {
			t.Fatalf("un-noised all-time aggregate = %v over %d, err %v; want 12 over 3", agg, n, err)
		}
	}
}

func TestCatchUpHorizonSkips(t *testing.T) {
	cl, _, _ := newDeployment(t, 2)
	clk := &fakeClock{}
	width := time.Minute
	clk.Set(time.Unix(60000, 0))
	rec := &recorder{}
	svcs := newServices(t, cl, clk.Now, width, t.TempDir(), 0, nil, rec)
	w1 := svcs[0].Current()
	// Jump ten windows: only the newest MaxCatchUp close, the rest are
	// skipped, and the cursor lands on the latest closed window.
	clk.Advance(10 * width)
	svcs[0].CloseBoundary()
	recs := rec.all()
	if len(recs) != defaultMaxCatchUp {
		t.Fatalf("published %d windows, want %d", len(recs), defaultMaxCatchUp)
	}
	if first, last := recs[0].ID, recs[len(recs)-1].ID; last != w1+9 || first != w1+10-uint64(defaultMaxCatchUp) {
		t.Fatalf("published %d..%d", first, last)
	}
	if svcs[0].LastPublished() != w1+9 {
		t.Fatalf("lastPub = %d", svcs[0].LastPublished())
	}
}

func TestCrashRecoveryBitIdentical(t *testing.T) {
	base := t.TempDir()
	clk := &fakeClock{}
	width := time.Minute
	clk.Set(time.Unix(120000, 0))

	cl, client, scheme := newDeployment(t, 3)
	rec := &recorder{}
	budget := func() *dp.Budget {
		b, err := dp.NewBudget(10, false)
		if err != nil {
			panic(err)
		}
		return b
	}
	svcs := newServices(t, cl, clk.Now, width, base, 0.5, budget, rec)
	w1 := svcs[0].Current()

	submit(t, cl, client, scheme, 5, 6)
	clk.Advance(width)
	for _, s := range svcs {
		s.CloseBoundary() // leader publishes w1 (sealing with noise); all checkpoint
	}
	recs := rec.all()
	if len(recs) != 1 || !recs[0].Noised || recs[0].Eps != 0.5 {
		t.Fatalf("pre-crash publish: %+v", recs)
	}
	sealed, err := cl.Leader.PublishWindow(w1)
	if err != nil {
		t.Fatal(err)
	}
	if !sealed.Resealed {
		t.Fatal("replay of a published window should report resealed")
	}

	// Submissions for the next window land after the boundary checkpoint —
	// these are the in-flight state a kill -9 may lose.
	submit(t, cl, client, scheme, 200)

	// "kill -9": drop the whole cluster, rebuild from scratch, and recover
	// each member from its checkpoint directory.
	cl2, client2, scheme2 := newDeployment(t, 3)
	rec2 := &recorder{}
	svcs2 := newServices(t, cl2, clk.Now, width, base, 0.5, budget, rec2)
	for i, s := range svcs2 {
		ok, info := s.Recovered()
		if !ok || info.Skipped != 0 {
			t.Fatalf("member %d did not recover: %+v", i, info)
		}
	}
	if lp := svcs2[0].LastPublished(); lp != w1 {
		t.Fatalf("recovered cursor = %d, want %d", lp, w1)
	}

	// The recovered sealed aggregate is bit-identical to the pre-crash one
	// — stored noise replays, it is never redrawn.
	replay, err := cl2.Leader.PublishWindow(w1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sealed.Agg, replay.Agg) {
		t.Fatalf("recovered aggregate differs:\npre  %v\npost %v", sealed.Agg, replay.Agg)
	}
	if !reflect.DeepEqual(sealed.Counts, replay.Counts) || !reflect.DeepEqual(sealed.Eps, replay.Eps) {
		t.Fatal("recovered metadata differs")
	}
	if !replay.Resealed {
		t.Fatal("recovered publish should replay sealed shares")
	}

	// The in-flight window 2 submission (200) died with the process; the
	// next window still closes correctly with post-restart traffic only.
	submit(t, cl2, client2, scheme2, 7, 8)
	clk.Advance(width)
	for _, s := range svcs2 {
		s.CloseBoundary()
	}
	got := rec2.all()
	if len(got) != 1 || got[0].ID != w1+1 || got[0].Count != 2 {
		t.Fatalf("post-restart window: %+v", got)
	}
	// DP ledger survived the crash: w1 (pre-crash) + w2 (post-restart).
	if spent := svcs2[0].cfg.Budget.Spent(); spent != 1.0 {
		t.Fatalf("recovered budget spent = %g, want 1.0", spent)
	}
}

func TestCrashMidWindowLosesOnlyInFlight(t *testing.T) {
	base := t.TempDir()
	clk := &fakeClock{}
	width := time.Minute
	clk.Set(time.Unix(180000, 0))

	cl, client, scheme := newDeployment(t, 2)
	svcs := newServices(t, cl, clk.Now, width, base, 0, nil, nil)
	w1 := svcs[0].Current()

	submit(t, cl, client, scheme, 10, 20)
	for _, s := range svcs {
		s.Checkpoint() // mid-window snapshot
	}
	submit(t, cl, client, scheme, 99) // in-flight, not checkpointed

	// Crash before the window closed: recovery replays the checkpoint, so
	// exactly the un-checkpointed submission is lost and the window seals
	// from the durable state.
	cl2, _, _ := newDeployment(t, 2)
	rec2 := &recorder{}
	svcs2 := newServices(t, cl2, clk.Now, width, base, 0, nil, rec2)
	clk.Advance(width)
	for _, s := range svcs2 {
		s.CloseBoundary()
	}
	recs := rec2.all()
	if len(recs) != 1 || recs[0].ID != w1 || recs[0].Count != 2 {
		t.Fatalf("recovered window: %+v", recs)
	}
	if recs[0].Agg[0] != "30" {
		t.Fatalf("recovered aggregate = %v, want [30 ...]", recs[0].Agg)
	}
}

func TestBudgetExhaustionBlocksSeal(t *testing.T) {
	cl, client, scheme := newDeployment(t, 2)
	clk := &fakeClock{}
	width := time.Minute
	clk.Set(time.Unix(240000, 0))
	rec := &recorder{}
	// Cap 0.5, ε 0.4 per window, no clamping: the first window fits, the
	// second refuses to seal and the publish cursor does not advance.
	budget := func() *dp.Budget {
		b, err := dp.NewBudget(0.5, false)
		if err != nil {
			panic(err)
		}
		return b
	}
	svcs := newServices(t, cl, clk.Now, width, t.TempDir(), 0.4, budget, rec)
	w1 := svcs[0].Current()

	submit(t, cl, client, scheme, 1)
	clk.Advance(width)
	svcs[0].CloseBoundary()
	submit(t, cl, client, scheme, 2)
	clk.Advance(width)
	svcs[0].CloseBoundary()

	recs := rec.all()
	if len(recs) != 1 || recs[0].ID != w1 {
		t.Fatalf("records = %+v", recs)
	}
	if svcs[0].LastPublished() != w1 {
		t.Fatalf("cursor advanced past a refused window: %d", svcs[0].LastPublished())
	}
	if _, err := cl.Leader.PublishWindow(w1 + 1); !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("publish error = %v, want budget exhaustion", err)
	}
}

func TestBudgetClampTrimsWindowEpsilon(t *testing.T) {
	cl, client, scheme := newDeployment(t, 2)
	clk := &fakeClock{}
	width := time.Minute
	clk.Set(time.Unix(300000, 0))
	rec := &recorder{}
	budget := func() *dp.Budget {
		b, err := dp.NewBudget(0.5, true)
		if err != nil {
			panic(err)
		}
		return b
	}
	svcs := newServices(t, cl, clk.Now, width, t.TempDir(), 0.4, budget, rec)

	submit(t, cl, client, scheme, 1)
	clk.Advance(width)
	svcs[0].CloseBoundary()
	submit(t, cl, client, scheme, 2)
	clk.Advance(width)
	svcs[0].CloseBoundary()

	recs := rec.all()
	if len(recs) != 2 {
		t.Fatalf("published %d windows, want 2", len(recs))
	}
	if recs[0].Eps != 0.4 || !almostEqual(recs[1].Eps, 0.1) {
		t.Fatalf("eps = %g, %g; want 0.4 then clamped 0.1", recs[0].Eps, recs[1].Eps)
	}
}

func almostEqual(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestAggregatesHandler(t *testing.T) {
	cl, client, scheme := newDeployment(t, 2)
	clk := &fakeClock{}
	width := time.Minute
	clk.Set(time.Unix(360000, 0))
	svcs := newServices(t, cl, clk.Now, width, t.TempDir(), 0, nil, nil)
	w1 := svcs[0].Current()

	submit(t, cl, client, scheme, 4, 4)
	clk.Advance(width)
	svcs[0].CloseBoundary()

	rr := httptest.NewRecorder()
	svcs[0].AggregatesHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/aggregates", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var view struct {
		Width         string   `json:"width"`
		Current       uint64   `json:"current_window"`
		LastPublished uint64   `json:"last_published"`
		Windows       []Record `json:"windows"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Width != "1m0s" || view.LastPublished != w1 || len(view.Windows) != 1 {
		t.Fatalf("view = %+v", view)
	}
	if w := view.Windows[0]; w.ID != w1 || w.Count != 2 || w.Agg[0] != "8" {
		t.Fatalf("window = %+v", w)
	}
}

func TestServiceLoopRealTime(t *testing.T) {
	cl, client, scheme := newDeployment(t, 2)
	rec := &recorder{}
	svcs := newServices(t, cl, time.Now, 75*time.Millisecond, t.TempDir(), 0, nil, rec)
	for _, s := range svcs {
		s.Start()
	}
	defer func() {
		for _, s := range svcs {
			s.Close()
		}
	}()
	submit(t, cl, client, scheme, 1, 2, 3)
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		for _, r := range rec.all() {
			if r.Count == 3 {
				return // the submissions' window closed and published
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("window never published; records: %+v", rec.all())
}

// TestLoopServesBoundaryOnCheckpointWake is the regression test for the
// loop's wake logic. The clock is the test's and the window is an hour wide,
// so the boundary timer the loop arms — a real timer for an hour of the
// test's time — never fires: the loop's only wake-ups are checkpoint ticks,
// every few real milliseconds. Moving the clock to 1 ms past the boundary
// therefore reproduces, deterministically, a checkpoint tick landing between
// a boundary and its +5 ms timer. The loop must close the window on that
// wake-up. It used to checkpoint, re-derive the following boundary from the
// clock, and leave the closed window unpublished for a whole width — at
// every boundary, when CheckpointEvery divides Width.
func TestLoopServesBoundaryOnCheckpointWake(t *testing.T) {
	cl, client, scheme := newDeployment(t, 2)
	clk := &fakeClock{}
	width := time.Hour
	clk.Set(time.Unix(7200, 0).Add(10 * time.Minute))
	rec := &recorder{}
	svc, err := New(Config[field.F64, uint64]{
		Field:           field.NewF64(),
		Width:           width,
		Server:          cl.Servers[0],
		Leader:          cl.Leader,
		CheckpointEvery: 5 * time.Millisecond,
		Clock:           clk.Now,
		OnPublish:       rec.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := svc.Current()
	submit(t, cl, client, scheme, 1, 2, 3)
	svc.Start()
	defer svc.Close()

	// A few checkpoint wake-ups inside the window: nothing to publish yet.
	time.Sleep(30 * time.Millisecond)
	if recs := rec.all(); len(recs) != 0 {
		t.Fatalf("published before the boundary: %+v", recs)
	}

	clk.Set(EndOf(w, width).Add(time.Millisecond))
	deadline := time.Now().Add(3 * time.Second)
	for len(rec.all()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("window %d not published by the checkpoint wake-ups after its boundary", w)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if r := rec.all()[0]; r.ID != w || r.Count != 3 {
		t.Fatalf("published %+v, want window %d with 3 submissions", r, w)
	}

	// The loop re-armed on the following boundary: the next window is
	// published once the clock passes that one, and not before.
	time.Sleep(30 * time.Millisecond)
	if n := len(rec.all()); n != 1 {
		t.Fatalf("%d windows published before the second boundary, want 1", n)
	}
	clk.Set(EndOf(w+1, width).Add(time.Millisecond))
	deadline = time.Now().Add(3 * time.Second)
	for len(rec.all()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("window %d not published after its boundary", w+1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if r := rec.all()[1]; r.ID != w+1 || r.Count != 0 {
		t.Fatalf("second record %+v, want empty window %d", r, w+1)
	}
}

// TestNoisedWindowsRenderSigned: an empty noised window's aggregate is the
// sum of every server's discrete-Laplace noise, which is negative about half
// the time. Over 10³ seeded windows of three servers at ε = 0.5, Δ = 1,
// every rendered component is a small signed integer: |v| stays within the
// union tail bound s·(Δ/ε)·ln(2s·N/δ) at δ = 10⁻⁹, and some are negative.
// An un-noised window still renders the field element itself.
func TestNoisedWindowsRenderSigned(t *testing.T) {
	const windows, servers, k = 1000, 3, 2
	f := field.NewF64()
	p := dp.Params{Epsilon: 0.5, Sensitivity: 1}
	rnd := newSeededReader(1)
	bound := float64(servers) * p.Sensitivity / p.Epsilon * math.Log(2*servers*windows*k/1e-9)
	negative := 0
	for w := 0; w < windows; w++ {
		agg := make([]uint64, k)
		for s := 0; s < servers; s++ {
			noise, err := dp.NoiseVector(f, rnd, k, p)
			if err != nil {
				t.Fatal(err)
			}
			field.AddVec(f, agg, noise)
		}
		for _, r := range renderVec(f, agg, true) {
			v, err := strconv.ParseInt(r, 10, 64)
			if err != nil {
				t.Fatalf("window %d rendered %q, not a signed integer", w, r)
			}
			if math.Abs(float64(v)) > bound {
				t.Fatalf("window %d rendered %d, beyond the tail bound %.0f", w, v, bound)
			}
			if v < 0 {
				negative++
			}
		}
	}
	if negative == 0 {
		t.Error("no noised component rendered negative")
	}
	if got := renderVec(f, []uint64{f.FromInt64(-3)}, false)[0]; got != "18446744069414584318" {
		t.Errorf("un-noised p-3 rendered %s, want the field element", got)
	}
}

// seededReader is a deterministic byte source for the noise sampler.
type seededReader struct{ r *mathrand.Rand }

func newSeededReader(seed int64) *seededReader {
	return &seededReader{r: mathrand.New(mathrand.NewSource(seed))}
}

func (s *seededReader) Read(p []byte) (int, error) { return s.r.Read(p) }
