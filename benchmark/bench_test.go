package main

import (
	"math"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogue holds BENCHMARK.json to the program: the same workloads and
// the same two metric sets, by name and unit, and nothing the contract
// refuses.
func TestCatalogue(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, i int, name, unit string, defs []metricDef) {
		if i >= len(defs) {
			t.Errorf("%s metric %q is not one the program emits", kind, name)
			return
		}
		if defs[i].name != name || defs[i].unit != unit {
			t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], the program %s [%s]", kind, i, name, unit, defs[i].name, defs[i].unit)
		}
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q has characters the contract refuses", name)
		}
		if seen[name] {
			t.Errorf("metric name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(sp.EndToEnd) != len(endToEnd) || len(sp.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(sp.EndToEnd), len(sp.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, m := range sp.EndToEnd {
		check("end-to-end", i, m.Name, m.Unit, endToEnd)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for i, m := range sp.PerLayer {
		check("per-layer", i, m.Name, m.Unit, perLayer)
	}
}

// TestSmoke runs every workload, untraced and traced, at a window of half a
// second: the correctness checks must pass and each run must emit exactly
// its metric set, finite, with the catalogue's units. The second seed keeps
// anything from being tuned to seed 1.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := *w
		if w.window > 0 {
			w.window = 500 * time.Millisecond // fewer seconds waiting for boundaries
		}
		for _, tc := range []struct {
			seed  int64
			trace bool
		}{{1, false}, {2, false}, {1, true}} {
			cfg := &runConfig{
				w:            &w,
				seed:         tc.seed,
				seconds:      0.5,
				warmup:       0.2,
				trace:        tc.trace,
				pool:         48,
				setups:       1,
				lateSetups:   1,
				buildSeconds: 0.1,
				spans:        filepath.Join(t.TempDir(), "spans.jsonl"),
				notef:        t.Logf,
			}
			if tc.trace {
				cfg.seconds = 1 // split between the two passes
			}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s seed %d trace %v: %v", w.name, tc.seed, tc.trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s seed %d trace %v: correct=%v attempted=%d failed=%d", w.name, tc.seed, tc.trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if tc.trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %v: %d metrics emitted, catalogue has %d", w.name, tc.trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace %v: %s not emitted", w.name, tc.trace, d.name)
				case m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace %v: %s = %v [%s], want a finite value in %s", w.name, tc.trace, d.name, m.Value, m.Unit, d.unit)
				case !tc.trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// TestQuartiles pins compare's cut points to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
