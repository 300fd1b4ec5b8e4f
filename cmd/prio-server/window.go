// Windowed aggregation wiring: flags and configuration for the member's
// internal/window service. The service is off unless -window is set; with it,
// every accepted submission lands in a tumbling collection window, each
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
	"strings"
	"time"

	"prio"
	"prio/internal/cli"
	"prio/internal/dp"
	"prio/internal/field"
	"prio/internal/window"
)

var (
	windowFlag = flag.Duration("window", 0, "tumbling collection window width; each window publishes its own DP-noised aggregate (0 = all-time aggregate only)")
	ckptDir    = flag.String("checkpoint-dir", "", "directory for durable accumulator checkpoints (requires -window; empty = memory only)")
	ckptEvery  = flag.Duration("checkpoint-every", 0, "periodic checkpoint cadence (0 = half the window, clamped to [1s, 30s])")
	dpEpsilon  = flag.Float64("dp-epsilon", 0, "differential-privacy epsilon this server spends per aggregate component when sealing a window (0 = publish without noise)")
	dpSens     = flag.Float64("dp-sensitivity", 1, "DP sensitivity: the most one client can move one aggregate component (1 for counts; 2^b for b-bit sums)")
	dpBudgetFl = flag.Float64("dp-budget", 0, "total epsilon this server may spend across all windows, linear composition (0 = unlimited)")
	dpClamp    = flag.Bool("dp-clamp", false, "clamp the final window's epsilon to the budget remainder instead of refusing to seal")
)

// windowConfig is the window service configuration the flags describe, or
// nil when -window is off. The member fills in its own server, leader,
// quiesce and leadership hooks.
func windowConfig() *window.Config[field.F64, uint64] {
	if *windowFlag <= 0 {
		if *ckptDir != "" {
			cli.Fatal("-checkpoint-dir requires -window")
		}
		if *dpEpsilon > 0 {
			cli.Fatal("-dp-epsilon requires -window")
		}
		return nil
	}
	cfg := &window.Config[field.F64, uint64]{
		Field:           prio.DefaultField(),
		Width:           *windowFlag,
		CheckpointEvery: *ckptEvery,
		Logf: func(format string, args ...any) {
			slog.Info(fmt.Sprintf(format, args...))
		},
		OnPublish: printWindowLedger,
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

// printWindowLedger emits one stdout line per published window — the
// leader-side release ledger, shaped like the interval aggregate line.
func printWindowLedger(r window.Record) {
	agg := r.Agg
	truncated := ""
	if len(agg) > 8 {
		agg = agg[:8]
		truncated = fmt.Sprintf(" …+%d", len(r.Agg)-8)
	}
	extra := ""
	if r.Noised {
		extra = fmt.Sprintf(" eps=%.4g", r.Eps)
	}
	if !r.Consistent {
		extra += fmt.Sprintf(" INCONSISTENT counts=%v", r.Counts)
	}
	if r.Republished {
		extra += " republished"
	}
	fmt.Printf("window %d [%s, %s): clients=%d aggregate=[%s%s] noised=%v%s\n",
		r.ID, r.Start.Format(time.TimeOnly), r.End.Format(time.TimeOnly),
		r.Count, strings.Join(agg, " "), truncated, r.Noised, extra)
}
