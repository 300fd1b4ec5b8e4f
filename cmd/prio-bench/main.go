// Command prio-bench regenerates every table and figure of the paper's
// evaluation section (Section 6). Each subcommand prints the same rows or
// series the paper reports, measured on this host:
//
//	prio-bench table2   — asymptotic comparison NIZK / SNARK / SNIP
//	prio-bench table3   — client encoding time vs field size (87/265-bit)
//	prio-bench fig4     — server throughput vs submission length
//	prio-bench fig5     — server throughput vs number of servers
//	prio-bench fig6     — per-server bytes transmitted per submission
//	prio-bench fig7     — client encoding time per application
//	prio-bench fig8     — client time vs regression dimension
//	prio-bench table9   — server throughput for d-dim regression
//	prio-bench pipeline — throughput vs concurrent verification shards
//	prio-bench ingest   — streamed submission throughput vs streams × credit window
//	prio-bench batchverify — batched vs per-submission (reference) SNIP verification
//	prio-bench window   — checkpoint write/recovery latency vs accumulator size
//	prio-bench all      — everything above, in order
//
// Absolute numbers differ from the paper's 2016 EC2 testbed; the shapes —
// who wins, by what factor, and how costs scale — are the reproduction
// target (see EXPERIMENTS.md). Use -full for the paper's complete parameter
// sweeps; the default is a faster subset.
package main

import (
	"flag"
	"fmt"
	"os"

	"prio/internal/cli"
)

var full = flag.Bool("full", false, "run the paper's full parameter sweeps (slower)")

func main() {
	flag.Parse()
	cli.InitLog()
	if flag.NArg() < 1 {
		usage()
	}
	cmd := flag.Arg(0)
	if cmd == "benchjson" {
		if err := benchJSON(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "prio-bench: benchjson:", err)
			os.Exit(1)
		}
		return
	}
	experiments := map[string]func(){
		"table2":      table2,
		"table3":      table3,
		"fig4":        fig4,
		"fig5":        fig5,
		"fig6":        fig6,
		"fig7":        fig7,
		"fig8":        fig8,
		"table9":      table9,
		"pipeline":    figPipeline,
		"ingest":      figIngest,
		"batchverify": figBatchVerify,
		"window":      figWindow,
	}
	if cmd == "all" {
		for _, name := range []string{"table2", "table3", "fig4", "fig5", "fig6", "fig7", "fig8", "table9", "pipeline", "ingest", "batchverify", "window"} {
			experiments[name]()
			fmt.Println()
		}
		return
	}
	fn, ok := experiments[cmd]
	if !ok {
		usage()
	}
	fn()
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: prio-bench [-full] {table2|table3|fig4|fig5|fig6|fig7|fig8|table9|pipeline|ingest|batchverify|window|all}")
	fmt.Fprintln(os.Stderr, "       prio-bench benchjson < go-test-bench-output > report.json")
	os.Exit(2)
}
