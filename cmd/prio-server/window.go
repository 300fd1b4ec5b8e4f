// Windowed aggregation wiring: flags and configuration for the member's
// internal/window service, the only way a member releases an aggregate.
// Every accepted submission lands in a tumbling collection window, each
// window seals with this member's own DP noise (-dp-epsilon), and the
// sitting leader publishes per-window aggregates (ledger lines below plus
// the /aggregates admin view). -checkpoint-dir adds durable recovery: a
// kill -9 and restart replays the newest valid checkpoint and loses at most
// the in-flight window.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math/big"
	"strconv"
	"strings"
	"time"

	"prio"
	"prio/internal/cli"
	"prio/internal/dp"
	"prio/internal/field"
	"prio/internal/window"
)

var (
	windowFlag = flag.Duration("window", 30*time.Second, "tumbling collection window width; the leader publishes each window's aggregate when it closes")
	ckptDir    = flag.String("checkpoint-dir", "", "directory for durable accumulator checkpoints (empty = memory only)")
	ckptEvery  = flag.Duration("checkpoint-every", 0, "periodic checkpoint cadence (0 = half the window, clamped to [1s, 30s])")
	dpEpsilon  = flag.Float64("dp-epsilon", 0, "differential-privacy epsilon this server spends per aggregate component when sealing a window (0 = publish without noise)")
	dpSens     = flag.Float64("dp-sensitivity", 1, "DP sensitivity: the most one client can move one aggregate component (1 for counts; 2^b for b-bit sums)")
	dpBudgetFl = flag.Float64("dp-budget", 0, "total epsilon this server may spend across all windows, linear composition (0 = unlimited)")
	dpClamp    = flag.Bool("dp-clamp", false, "clamp the final window's epsilon to the budget remainder instead of refusing to seal")
)

// windowConfig is the window service configuration the flags describe. The
// member fills in its own server, leader, quiesce and leadership hooks.
func windowConfig(scheme prio.Scheme) *window.Config[field.F64, uint64] {
	if *windowFlag <= 0 {
		cli.Fatal("-window must be positive", "window", windowFlag.String())
	}
	cfg := &window.Config[field.F64, uint64]{
		Field:           prio.DefaultField(),
		Width:           *windowFlag,
		CheckpointEvery: *ckptEvery,
		Logf: func(format string, args ...any) {
			slog.Info(fmt.Sprintf(format, args...))
		},
		OnPublish: func(r window.Record) { fmt.Println(ledgerLine(scheme, r)) },
	}
	if *ckptDir != "" {
		var err error
		cfg.Store, err = window.NewStore(*ckptDir)
		if err != nil {
			cli.Fatal("opening -checkpoint-dir", "err", err)
		}
	}
	if *dpBudgetFl > 0 {
		var err error
		cfg.Budget, err = dp.NewBudget(*dpBudgetFl, *dpClamp)
		if err != nil {
			cli.Fatal("bad -dp-budget", "err", err)
		}
	}
	if *dpEpsilon > 0 {
		cfg.DP = dp.Params{Epsilon: *dpEpsilon, Sensitivity: *dpSens}
	}
	return cfg
}

// reportWindow logs how the member's window service recovered and serves
// its published windows on /aggregates.
func reportWindow(svc *window.Service[field.F64, uint64]) {
	if ok, info := svc.Recovered(); ok {
		slog.Info("window state recovered from checkpoint",
			"file", info.File, "skipped", info.Skipped, "last_published", svc.LastPublished())
	} else if *ckptDir != "" {
		slog.Info("no usable checkpoint; starting empty", "dir", *ckptDir, "skipped", info.Skipped)
	}
	setAggregatesHandler(svc.AggregatesHandler())
	slog.Info("window service started", "width", windowFlag.String(),
		"checkpoint_dir", *ckptDir, "dp_epsilon", *dpEpsilon, "dp_budget", *dpBudgetFl)
}

// ledgerCounters name the registry series a ledger line reports, as deltas
// since this member's previous publish (Record.Stages).
var ledgerCounters = []struct{ name, series string }{
	{"accepted", `prio_pipeline_submissions_total{outcome="accepted"}`},
	{"rejected", `prio_pipeline_submissions_total{outcome="rejected"}`},
	{"failed", `prio_pipeline_submissions_total{outcome="failed"}`},
	{"shed", "prio_ingest_shed_total"},
	{"rounds", "prio_verify_batches_total"},
	{"streamed", "prio_ingest_received_total"},
}

// ledgerLine renders one published window as the leader's stdout release
// ledger: the decoded aggregate, its noise, and the verification and ingest
// counters of the window.
func ledgerLine(scheme prio.Scheme, r window.Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "window %d [%s, %s): clients=%d %s noised=%v",
		r.ID, r.Start.Format(time.TimeOnly), r.End.Format(time.TimeOnly),
		r.Count, describeAggregate(scheme, r.Agg, int(r.Count)), r.Noised)
	if r.Noised {
		fmt.Fprintf(&b, " eps=%.4g", r.Eps)
	}
	if !r.Consistent {
		fmt.Fprintf(&b, " INCONSISTENT counts=%v", r.Counts)
	}
	if r.Republished {
		b.WriteString(" republished")
	}
	for _, c := range ledgerCounters {
		fmt.Fprintf(&b, " %s=%d", c.name, r.Stages[c.series].Counter)
	}
	return b.String()
}

// describeAggregate renders a window's aggregate vector (decimal field
// elements, signed when the window is noised) with the scheme's own decoder
// where the type is known, falling back to the raw vector. A negative
// component — noise outweighing the window's true value — is no field
// element a decoder takes; a sum's aggregate is its first component, so a
// negative one still reads as the sum.
func describeAggregate(scheme prio.Scheme, vec []string, n int) string {
	agg := make([]uint64, len(vec))
	for i, s := range vec {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			if _, sum := scheme.(*prio.Sum); sum && i == 0 {
				if _, err := strconv.ParseInt(s, 10, 64); err == nil {
					return "sum=" + s
				}
			}
			return fmt.Sprintf("raw=%v", vec)
		}
		agg[i] = v
	}
	switch s := scheme.(type) {
	case *prio.Sum:
		if v, err := s.Decode(agg, n); err == nil {
			return "sum=" + v.String()
		}
	case *prio.Variance:
		if mean, v, err := s.Decode(agg, n); err == nil {
			return fmt.Sprintf("mean=%.3f variance=%.3f", mean, v)
		}
	case *prio.FreqCount:
		if h, err := s.Decode(agg, n); err == nil {
			return fmt.Sprintf("histogram=%v", h)
		}
	case *prio.BitVector:
		if c, err := s.Decode(agg, n); err == nil {
			return fmt.Sprintf("counts=%v", c)
		}
	case *prio.IntVector:
		if c, err := s.Decode(agg, n); err == nil {
			return fmt.Sprintf("sums=%v", bigs(c))
		}
	case *prio.LinReg:
		if coef, err := s.Decode(agg, n); err == nil {
			return fmt.Sprintf("coefficients=%v", coef)
		}
	}
	return fmt.Sprintf("raw=%v", vec)
}

func bigs(v []*big.Int) []string {
	out := make([]string, len(v))
	for i, b := range v {
		out[i] = b.String()
	}
	return out
}
