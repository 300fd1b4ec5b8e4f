package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// spec is BENCHMARK.json, as far as compare needs it.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readSet loads the untraced records of a result set: workload → metric →
// one value per run.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 || rec.Result == nil {
			continue
		}
		if !rec.Result.Correct {
			return nil, fmt.Errorf("%s: %s seed %d is an incorrect run", path, rec.Workload, rec.Seed)
		}
		m := set[rec.Workload]
		if m == nil {
			m = map[string][]float64{}
			set[rec.Workload] = m
		}
		for name, v := range rec.Result.Metrics {
			m[name] = append(m[name], v.Value)
		}
	}
	return set, sc.Err()
}

// quartiles are the cut points statistics.quantiles(vals, n=4) of Python
// gives (the exclusive method), so a spread computed here is the spread the
// benchmark's driver computes.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), vals...)
	sort.Float64s(data)
	if len(data) < 2 {
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		m := len(data) + 1
		j := min(max(i*m/4, 1), len(data)-1)
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// compareMain prints, per workload and end-to-end metric, both sets'
// medians, how much worse the second is, the bound, and a verdict:
//
//	ok          the second median is within the bound of the first
//	worse       it is worse by more than the bound
//	unresolved  it is within the bound, but a set's own spread (the distance
//	            between its quartiles over its median) is wider than the
//	            bound, so the comparison shows nothing
//
// It returns 1 when any row is worse, 2 on bad input.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark's description, for directions and bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [--spec BENCHMARK.json] first.jsonl second.jsonl")
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	a, err := readSet(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	b, err := readSet(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}

	code := 0
	fmt.Printf("%-26s %-22s %4s %14s %14s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "runs", "first", "second", "worse", "bound", "spread1", "spread2", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-26s %-22s missing from a set\n", w.Name, m.Name)
				code = 2
				continue
			}
			a1, ma, a3 := quartiles(va)
			b1, mb, b3 := quartiles(vb)
			worse := (mb - ma) / math.Abs(ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := (a3-a1)/math.Abs(ma), (b3-b1)/math.Abs(mb)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "worse"
				if code == 0 {
					code = 1
				}
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-26s %-22s %2d/%-2d %14.6g %14.6g %+7.1f%% %6.1f%% %7.1f%% %7.1f%%  %s\n",
				w.Name, m.Name, len(va), len(vb), ma, mb, 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	return code
}
