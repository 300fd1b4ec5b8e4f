package main

import (
	"strings"
	"testing"
	"time"

	"prio"
	"prio/internal/telemetry"
	"prio/internal/window"
)

// TestLedgerLine: a published window's ledger line carries the decoded
// aggregate, its noise, and the window's verification and ingest counters
// read from Record.Stages.
func TestLedgerLine(t *testing.T) {
	start := time.Date(2026, 1, 2, 10, 0, 0, 0, time.UTC)
	rec := window.Record{
		ID:         7,
		Start:      start,
		End:        start.Add(30 * time.Second),
		Count:      3,
		Counts:     []uint64{3, 3, 3},
		Agg:        []string{"12"},
		Noised:     true,
		Eps:        0.5,
		Consistent: true,
		Stages: map[string]telemetry.SeriesDelta{
			`prio_pipeline_submissions_total{outcome="accepted"}`: {Counter: 3},
			`prio_pipeline_submissions_total{outcome="rejected"}`: {Counter: 1},
			"prio_ingest_shed_total":                              {Counter: 2},
			"prio_verify_batches_total":                           {Counter: 4},
			"prio_ingest_received_total":                          {Counter: 6},
		},
	}
	got := ledgerLine(prio.NewSum(8), rec)
	want := "window 7 [10:00:00, 10:00:30): clients=3 sum=12 noised=true eps=0.5" +
		" accepted=3 rejected=1 failed=0 shed=2 rounds=4 streamed=6"
	if got != want {
		t.Errorf("ledger line\n got %q\nwant %q", got, want)
	}

	// An inconsistent, republished window says so; a vector no decoder
	// accepts prints raw.
	rec.Consistent, rec.Republished, rec.Counts = false, true, []uint64{3, 2, 3}
	rec.Agg = []string{"12", "5"}
	got = ledgerLine(prio.NewSum(8), rec)
	for _, part := range []string{" raw=[12 5] ", " INCONSISTENT counts=[3 2 3] republished "} {
		if !strings.Contains(got, part) {
			t.Errorf("ledger line %q lacks %q", got, part)
		}
	}
}

// TestLedgerLineSignedNoise: a noised window renders its components signed,
// so an empty window whose noise came out negative reads as a negative sum,
// and a vector with a negative component no decoder takes prints raw, signed.
func TestLedgerLineSignedNoise(t *testing.T) {
	if got := describeAggregate(prio.NewSum(8), []string{"-3"}, 0); got != "sum=-3" {
		t.Errorf("noised empty sum window described %q, want sum=-3", got)
	}
	if got := describeAggregate(prio.NewFreqCount(2), []string{"-1", "4", "0", "2"}, 5); got != "raw=[-1 4 0 2]" {
		t.Errorf("noised histogram with a negative bucket described %q, want the signed raw vector", got)
	}
}
