// Command benchmark is the repository's one benchmark: four named workloads
// over the shipped Prio service, all in this process (every server, the load
// generator and, where a workload has one, the delay proxy), over real
// loopback TCP. See README.md for the metric catalogue and the known limits.
//
//	go run ./benchmark --workload verify_bits1024_s3 --seed 1 --seconds 20 --trace 0
//	go run ./benchmark --workload all --seed 1 --out set.jsonl
//	go run ./benchmark --workload service_linreg10_s3_open --calibrate
//	go run ./benchmark compare a.jsonl b.jsonl
//
// The last line of standard output of each workload is one JSON object with
// the keys correct, attempted, failed and metrics. The exit code is non-zero
// when an output was wrong or a run failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// hardDeadline is how long one workload may take before the watchdog dumps
// every goroutine and exits: a hung run must fail, not block whatever is
// driving it. Above it sits the seconds the caller asked for.
const hardDeadline = 90 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name      = flag.String("workload", "", "workload name, or \"all\" to run the four back-to-back")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", 20, "measured window, seconds (a traced run splits it between its two passes)")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: prints the end-to-end metrics")
		calibrate = flag.Bool("calibrate", false, "run an open-loop workload closed, to measure the capacity its rate is half of")
		out       = flag.String("out", "", "append each workload's result to this JSON-lines file, for compare")
		spans     = flag.String("spans", "", "span file of a traced run (default .bench_build/spans/<workload>.jsonl)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var todo []*workload
	if *name == "all" {
		todo = workloads
	} else if w := findWorkload(*name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q; the workloads are:\n", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-26s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}

	runtime.GOMAXPROCS(maxProcs)
	fmt.Printf("# seed=%d seconds=%g trace=%d GOMAXPROCS=%d nproc=%d go=%s commit=%s\n",
		*seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())

	code := 0
	for _, w := range todo {
		cfg := &runConfig{
			w:            w,
			seed:         *seed,
			seconds:      *seconds,
			warmup:       warmupSeconds,
			trace:        *trace == 1,
			pool:         poolSize,
			setups:       setupRepeats,
			lateSetups:   lateSetups,
			buildSeconds: buildSeconds,
			spans:        *spans,
			calibrate:    *calibrate,
			notef:        func(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) },
		}
		if cfg.spans == "" {
			cfg.spans = filepath.Join(".bench_build", "spans", w.name+".jsonl")
		}
		fmt.Printf("# workload %s: %s\n", w.name, w.why)
		watchdog := time.AfterFunc(hardDeadline+time.Duration(*seconds*float64(time.Second)), func() {
			fmt.Fprintf(os.Stderr, "benchmark: %s exceeded its deadline; goroutines:\n", w.name)
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
			os.Exit(3)
		})
		res, err := runWorkload(cfg)
		watchdog.Stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if !res.Correct {
			code = 1
		}
		printTable(res)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		if *out != "" {
			if err := appendRecord(*out, record{Workload: w.name, Seed: *seed, Trace: *trace, Result: res}); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				os.Exit(1)
			}
		}
	}
	os.Exit(code)
}

// runWorkload runs one workload once. The smoke test calls it too.
func runWorkload(cfg *runConfig) (*result, error) {
	if cfg.w.mix != nil {
		return runClient(cfg)
	}
	return runServer(cfg)
}

// commit is the revision the binary was built from, when the build saw one
// (a benchmark checkout is not a git repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printTable(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(&b, "%-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Print(b.String())
}

// record is one line of a result set (--out), the input of compare.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
