package ingest

import (
	"sync"
	"testing"
	"time"

	"prio/internal/core"
	"prio/internal/telemetry"
)

// waitCredits polls a submitter's window until cond holds or the deadline
// passes, returning the last observed window either way.
func waitCredits(s *StreamSubmitter, cond func(int) bool) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := s.Credits()
		if cond(n) || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDynamicCreditsTuning drives one busy and one idle stream against a
// dynamic-credit server and checks the asymmetry the tuner exists for: the
// busy stream's window grows toward the intake queue's free space (clamped
// to MaxCredits) while the idle stream decays to MinCredits — and once the
// busy stream quiesces, it decays to the floor too. Every submission must
// still be decided accepted: growing and shrinking windows shed nothing.
func TestDynamicCreditsTuning(t *testing.T) {
	gate := make(chan struct{})
	sink := &fakeSink{gate: gate}
	cfg := Config{
		Credits:        8,
		MinCredits:     4,
		MaxCredits:     64,
		QueueDepth:     256,
		DynamicCredits: true,
		TuneInterval:   10 * time.Millisecond,
	}
	_, addr, stop := serveIngest(t, sink, cfg)
	defer stop()

	busy, err := Dial(addr, SubmitterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	idle, err := Dial(addr, SubmitterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	if got := busy.Credits(); got != cfg.Credits {
		t.Fatalf("initial window = %d, want the static grant %d", got, cfg.Credits)
	}

	// Park the hello grant's worth of submissions in flight: the gated sink
	// never decides, so the stream stays busy across tune ticks.
	const parked = 8
	for i := 0; i < parked; i++ {
		if _, err := busy.Submit(testSub(byte(i))); err != nil {
			t.Fatal(err)
		}
	}

	if got := waitCredits(busy, func(n int) bool { return n == cfg.MaxCredits }); got != cfg.MaxCredits {
		t.Errorf("busy stream window = %d, want grown to MaxCredits %d", got, cfg.MaxCredits)
	}
	if got := waitCredits(idle, func(n int) bool { return n == cfg.MinCredits }); got != cfg.MinCredits {
		t.Errorf("idle stream window = %d, want decayed to MinCredits %d", got, cfg.MinCredits)
	}

	// Release the sink; once the acks drain, the busy stream has neither
	// in-flight submissions nor fresh receives, so it decays to the floor.
	close(gate)
	if err := busy.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := waitCredits(busy, func(n int) bool { return n == cfg.MinCredits }); got != cfg.MinCredits {
		t.Errorf("quiesced stream window = %d, want decayed to MinCredits %d", got, cfg.MinCredits)
	}

	st := busy.Stats()
	if st.Accepted != parked || st.Shed != 0 || st.Rejected != 0 || st.Failed != 0 {
		t.Errorf("busy stream stats = %+v, want %d accepted and no losses", st, parked)
	}
}

// TestDynamicCreditsGrowUnblocksSubmit proves a grow retune takes effect
// mid-flight: a submitter blocked on an exhausted static window proceeds as
// soon as the tuner widens it, without waiting for any ack.
func TestDynamicCreditsGrowUnblocksSubmit(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	sink := &fakeSink{gate: gate}
	cfg := Config{
		Credits:        4,
		MinCredits:     4,
		MaxCredits:     32,
		QueueDepth:     128,
		DynamicCredits: true,
		TuneInterval:   10 * time.Millisecond,
	}
	_, addr, stop := serveIngest(t, sink, cfg)
	defer stop()

	sub, err := Dial(addr, SubmitterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Exhaust the hello window, then submit one more: with no acks coming
	// (gated sink) only a grow retune can admit it.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < cfg.Credits+1; i++ {
			if _, err := sub.Submit(testSub(byte(i))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit beyond the static window never unblocked; grow retune not applied")
	}
}

// TestDynamicCreditsOffKeepsStaticWindow pins the escape hatch: without
// DynamicCredits the window never moves, no matter how busy the stream is.
func TestDynamicCreditsOffKeepsStaticWindow(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	sink := &fakeSink{gate: gate}
	_, addr, stop := serveIngest(t, sink, Config{Credits: 8, QueueDepth: 256})
	defer stop()

	sub, err := Dial(addr, SubmitterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i := 0; i < 8; i++ {
		if _, err := sub.Submit(testSub(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond)
	if got := sub.Credits(); got != 8 {
		t.Fatalf("static-mode window = %d, want 8 forever", got)
	}
}

// slowSink stands in for a saturated pipeline: it decides one submission
// every `every`, in arrival order, and holds at most cap(jobs) undecided, so
// TrySubmitFunc refuses beyond that and SubmitFunc waits for room, as the
// pipeline's queue does. MaxHeld reports held.
type slowSink struct {
	held int
	jobs chan func(core.SubmitResult)
	done chan struct{}
}

func newSlowSink(held, slots int, every time.Duration) *slowSink {
	s := &slowSink{held: held, jobs: make(chan func(core.SubmitResult), slots), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for fn := range s.jobs {
			time.Sleep(every)
			fn(core.SubmitResult{Accepted: true})
		}
	}()
	return s
}

func (s *slowSink) MaxHeld() int { return s.held }

func (s *slowSink) SubmitFunc(_ *core.Submission, fn func(core.SubmitResult)) error {
	s.jobs <- fn
	return nil
}

func (s *slowSink) TrySubmitFunc(_ *core.Submission, fn func(core.SubmitResult)) (bool, error) {
	select {
	case s.jobs <- fn:
		return true, nil
	default:
		return false, nil
	}
}

// stop decides what is left and ends the decider; the ingest server must be
// closed first, so nothing submits after it.
func (s *slowSink) stop() {
	close(s.jobs)
	<-s.done
}

// cappedSink is a fakeSink that reports what it can hold.
type cappedSink struct {
	*fakeSink
	held int
}

func (s cappedSink) MaxHeld() int { return s.held }

// creditWindows reads the summed per-stream windows from the registry.
func creditWindows(reg *telemetry.Registry) int {
	return int(reg.Snapshot()["prio_ingest_credit_windows"].(float64))
}

// TestDynamicCreditsCappedByPipeline: the tuner divides the lesser of the
// intake queue's free slots and what the sink can hold.
//
// Below the free slots, two streams kept busy against a slow sink settle at
// the sink's figure: once the first retune has spread it, the summed windows
// stay at most that figure and within the 12.5 % hysteresis band of it, tick
// after tick. Dividing the free slots alone, the same rig's windows first
// grow to the whole queue (256) and then hover near 150, with the queue
// holding the backlog the sink refuses.
//
// Above the free slots the figure changes nothing: a busy stream's window is
// the free slots, exactly as it is for a sink that reports no figure.
func TestDynamicCreditsCappedByPipeline(t *testing.T) {
	const tick = 10 * time.Millisecond
	t.Run("below_free", func(t *testing.T) {
		const held = 96
		sink := newSlowSink(held, 32, 50*time.Microsecond)
		reg := telemetry.New()
		cfg := Config{
			Credits:        8,
			MinCredits:     4,
			MaxCredits:     256,
			QueueDepth:     256,
			DynamicCredits: true,
			TuneInterval:   tick,
			Registry:       reg,
		}
		_, addr, stop := serveIngest(t, sink, cfg)
		done := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			sub, err := Dial(addr, SubmitterConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; ; j++ {
					select {
					case <-done:
						return
					default:
					}
					if _, err := sub.Submit(testSub(byte(j))); err != nil {
						return // the server closed the stream
					}
				}
			}()
		}

		deadline := time.Now().Add(5 * time.Second)
		got := creditWindows(reg)
		for got != held && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			got = creditWindows(reg)
		}
		if got != held {
			t.Errorf("summed windows = %d after the first retunes, want the sink's %d", got, held)
		}
		for i := 0; i < 15 && !t.Failed(); i++ {
			time.Sleep(tick)
			if got := creditWindows(reg); got > held || 8*(held-got) > held {
				t.Errorf("tick %d: summed windows = %d, want within 12.5%% below %d", i, got, held)
			}
		}
		close(done)
		stop()
		sink.stop()
		wg.Wait()
	})
	t.Run("above_free", func(t *testing.T) {
		gate := make(chan struct{})
		defer close(gate)
		for _, sink := range []Sink{&fakeSink{gate: gate}, cappedSink{&fakeSink{gate: gate}, 10000}} {
			cfg := Config{
				Credits:        8,
				MinCredits:     4,
				MaxCredits:     1024,
				QueueDepth:     256,
				DynamicCredits: true,
				TuneInterval:   tick,
			}
			_, addr, stop := serveIngest(t, sink, cfg)
			sub, err := Dial(addr, SubmitterConfig{})
			if err != nil {
				t.Fatal(err)
			}
			// One parked submission keeps the stream busy; the gated sink
			// takes everything at once, so the intake queue stays empty and
			// its free slots are the whole queue.
			if _, err := sub.Submit(testSub(0)); err != nil {
				t.Fatal(err)
			}
			if got := waitCredits(sub, func(n int) bool { return n == cfg.QueueDepth }); got != cfg.QueueDepth {
				t.Errorf("%T: busy stream window = %d, want the intake's free slots %d", sink, got, cfg.QueueDepth)
			}
			sub.Close()
			stop()
		}
	})
}
