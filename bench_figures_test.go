package prio_test

import (
	"fmt"
	"testing"

	"prio"
	"prio/internal/afe"
	"prio/internal/baseline"
	"prio/internal/core"
	"prio/internal/field"
	"prio/internal/nizk"
)

// BenchmarkTable3_Client measures client submission generation for L
// four-bit integers across field implementations (Table 3's field-size
// comparison; FP87/FP265 are the paper's exact field widths). The table's
// per-multiplication row is BenchmarkFieldMul.
func BenchmarkTable3_Client(b *testing.B) {
	for _, l := range []int{10, 100, 1000} {
		benchTable3Client(b, "F64", field.NewF64(), l)
		benchTable3Client(b, "F128", field.NewF128(), l)
		benchTable3Client(b, "FP87", field.NewFP87(), l)
		benchTable3Client(b, "FP265", field.NewFP265(), l)
	}
}

// benchTable3Client runs one (field, L) cell of Table 3.
func benchTable3Client[Fd field.Field[E], E any](b *testing.B, name string, f Fd, l int) {
	b.Run(fmt.Sprintf("%s/L=%d", name, l), func(b *testing.B) {
		scheme := afe.NewIntVector(f, l, 4)
		pro, err := core.NewProtocol(core.Config[Fd, E]{
			Field: f, Scheme: scheme, Servers: 5, Mode: core.ModeSNIP, SnipReps: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		client, err := core.NewClient(pro, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		vals := make([]uint64, l)
		enc, err := scheme.Encode(vals)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.BuildSubmission(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// figModes are the validation modes the figures compare: Figures 4 and 5
// plot all three, Figures 6 and 7 the robust two (figModes[1:]), and
// Figure 8 and Table 9 the SNIP against no robustness (figModes[:2]).
var figModes = []struct {
	name string
	m    prio.Mode
}{
	{"NoRobust", prio.ModeNoRobustness},
	{"Prio", prio.ModePrio},
	{"PrioMPC", prio.ModePrioMPC},
}

// BenchmarkFig4 measures cluster throughput (5 servers) versus submission
// length, for the schemes of Figure 4. The NIZK curve is the model README.md
// gives, from BenchmarkTable2_NIZKServer's ns/bit.
func BenchmarkFig4(b *testing.B) {
	sizes := []int{16, 64, 256, 1024, 4096, 16384}
	for _, mode := range figModes {
		for _, l := range sizes {
			b.Run(fmt.Sprintf("%s/L=%d", mode.name, l), func(b *testing.B) {
				scheme := prio.NewBitVector(l)
				cluster, client := benchDeployment(b, scheme, 5, mode.m)
				throughputBench(b, cluster, client, bitEncoding(b, scheme, l), 8)
			})
		}
	}
	for _, l := range sizes {
		b.Run(fmt.Sprintf("NoPriv/L=%d", l), func(b *testing.B) { noPrivBench(b, l) })
	}
}

// BenchmarkFig5 measures throughput against server count for the
// 1024-question survey workload of Figure 5. The no-privacy baseline has
// one server whatever s.
func BenchmarkFig5(b *testing.B) {
	const l = 1024
	for _, mode := range figModes {
		for _, s := range []int{2, 3, 5, 8, 10} {
			b.Run(fmt.Sprintf("%s/servers=%d", mode.name, s), func(b *testing.B) {
				scheme := prio.NewBitVector(l)
				cluster, client := benchDeployment(b, scheme, s, mode.m)
				throughputBench(b, cluster, client, bitEncoding(b, scheme, l), 8)
			})
		}
	}
	b.Run(fmt.Sprintf("NoPriv/L=%d", l), func(b *testing.B) { noPrivBench(b, l) })
}

// BenchmarkFig6 measures the bytes a non-leader server transmits per
// submission (Figure 6's y-axis, the bytes/sub metric), over batches of 16
// on five servers. The NIZK transfer is the size of its submission.
func BenchmarkFig6(b *testing.B) {
	sizes := []int{4, 16, 64, 256, 1024, 4096, 16384}
	for _, mode := range figModes[1:] {
		for _, l := range sizes {
			b.Run(fmt.Sprintf("%s/L=%d", mode.name, l), func(b *testing.B) {
				scheme := prio.NewBitVector(l)
				cluster, client := benchDeployment(b, scheme, 5, mode.m)
				throughputBench(b, cluster, client, bitEncoding(b, scheme, l), 16)
			})
		}
	}
	for _, l := range sizes {
		b.Run(fmt.Sprintf("NIZK/L=%d", l), func(b *testing.B) {
			// The NIZK transfer is deterministic; report it for the series.
			for i := 0; i < b.N; i++ {
				_ = nizk.SubmissionBytes(l)
			}
			b.ReportMetric(float64(nizk.SubmissionBytes(l)), "bytes/sub")
		})
	}
}

// TestServerBytesShape checks the shape Figure 6 and Table 2 claim for the
// bytes a non-leader server transmits per submission, over one batch of 16
// sealed bit-vector submissions on five servers: Prio's SNIP check costs
// the same at every length, while Prio-MPC opens one Beaver pair per
// multiplication gate and grows linearly.
func TestServerBytesShape(t *testing.T) {
	perSub := func(mode prio.Mode, l int) float64 {
		const n = 16
		scheme := prio.NewBitVector(l)
		cluster, client := benchDeployment(t, scheme, 5, mode)
		if _, err := cluster.Leader.ProcessBatch(buildSubs(t, client, bitEncoding(t, scheme, l), n)); err != nil {
			t.Fatal(err)
		}
		return float64(cluster.Leader.PeerStats(1).BytesRecv) / n
	}
	p16, p256, p1024 := perSub(prio.ModePrio, 16), perSub(prio.ModePrio, 256), perSub(prio.ModePrio, 1024)
	if p16 != p256 || p16 != p1024 {
		t.Errorf("Prio bytes/sub at L=16/256/1024 = %.2f/%.2f/%.2f, want one constant", p16, p256, p1024)
	}
	if m16, m1024 := perSub(prio.ModePrioMPC, 16), perSub(prio.ModePrioMPC, 1024); m1024 < 32*m16 {
		t.Errorf("Prio-MPC bytes/sub %.1f at L=16 -> %.1f at L=1024, want >= 32x growth", m16, m1024)
	}
}

// fig7App is one bar group of Figure 7: an application's scheme and a valid
// encoding for it.
type fig7App struct {
	name   string
	scheme prio.Scheme
	enc    []uint64
}

// fig7Apps are Figure 7's applications: cell-signal grids whose gate counts
// match the paper's, browser statistics (count-min sketches at the paper's
// low and high resolution, beside two 7-bit usage averages), the Beck-21
// and PCSI-78 surveys (one-hot over four answers) and CPI-434 (booleans),
// and the heart-disease (13 mixed-width features) and breast-cancer
// (30 x 14-bit) regressions.
func fig7Apps(b *testing.B) []fig7App {
	cell := func(name string, cells int) fig7App {
		s := prio.NewIntVector(cells, 4)
		return fig7App{"Cell-" + name, s, must(s.Encode(make([]uint64, cells)))}
	}
	browser := func(name string, eps, delta float64) fig7App {
		cpu, mem, cm := prio.NewSum(7), prio.NewSum(7), prio.NewCountMin(eps, delta)
		s := prio.NewConcat(name, cpu, mem, cm)
		return fig7App{"Browser-" + name, s, must(s.Pack(must(cpu.Encode(42)), must(mem.Encode(63)), must(cm.Encode([]byte("example.org")))))}
	}
	survey := func(name string, questions int) fig7App {
		parts := make([]prio.Scheme, questions)
		encs := make([][]uint64, questions)
		for q := range parts {
			fc := prio.NewFreqCount(4)
			parts[q], encs[q] = fc, must(fc.Encode(q%4))
		}
		s := prio.NewConcat(name, parts...)
		return fig7App{"Survey-" + name, s, must(s.Pack(encs...))}
	}
	cpi := prio.NewBitVector(434)
	heart := prio.NewLinReg([]int{1, 1, 1, 1, 1, 4, 4, 4, 8, 8, 8, 10, 10}, 8)
	brca := prio.NewLinRegUniform(30, 14)
	return []fig7App{
		cell("Geneva", 16), cell("Seattle", 217), cell("Chicago", 606), cell("London", 1570), cell("Tokyo", 2190),
		browser("LowRes", 0.1, 1.0/1024), browser("HighRes", 0.01, 1.0/(1<<20)),
		survey("Beck21", 21), survey("PCSI78", 78),
		{"Survey-CPI434", cpi, bitEncoding(b, cpi, 434)},
		{"LinReg-Heart", heart, must(heart.Encode(make([]uint64, 13), 0))},
		{"LinReg-BrCa", brca, must(brca.Encode(make([]uint64, 30), 0))},
	}
}

// BenchmarkFig7 measures client encoding time (ns/op) for the applications
// of Figure 7 under Prio and Prio-MPC, beside the SNARK estimate. The NIZK
// bar is the model README.md gives, from BenchmarkTable2_NIZKClient.
func BenchmarkFig7(b *testing.B) {
	for _, app := range fig7Apps(b) {
		for _, mode := range figModes[1:] {
			b.Run(mode.name+"/"+app.name, func(b *testing.B) {
				_, client := benchDeployment(b, app.scheme, 5, mode.m)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := client.BuildSubmission(app.enc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run("SNARK/"+app.name, func(b *testing.B) {
			snarkBench(b, app.scheme.Circuit().M(), app.scheme.K())
		})
	}
}

// linRegDims are the regression dimensions of Figure 8 and Table 9.
var linRegDims = []int{2, 4, 6, 8, 10, 12}

// BenchmarkFig8 measures client encoding time versus regression dimension
// (Figure 8). NoPriv seals the raw moment vector to a single server.
func BenchmarkFig8(b *testing.B) {
	for _, d := range linRegDims {
		scheme := prio.NewLinRegUniform(d, 14)
		enc := must(scheme.Encode(make([]uint64, d), 0))
		b.Run(fmt.Sprintf("NoPriv/d=%d", d), func(b *testing.B) {
			srv := must(baseline.NewNoPrivServer(field.NewF64(), scheme.KPrime()))
			for i := 0; i < b.N; i++ {
				if _, err := baseline.BuildSubmission(field.NewF64(), srv.PublicKey(), enc[:scheme.KPrime()]); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, mode := range figModes[:2] {
			b.Run(fmt.Sprintf("%s/d=%d", mode.name, d), func(b *testing.B) {
				_, client := benchDeployment(b, scheme, 5, mode.m)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := client.BuildSubmission(enc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable9 measures d-dimensional regression throughput (Table 9).
// NoPriv is one server ingesting the sealed k'-element moment vector.
func BenchmarkTable9(b *testing.B) {
	for _, d := range linRegDims {
		scheme := prio.NewLinRegUniform(d, 14)
		b.Run(fmt.Sprintf("NoPriv/d=%d", d), func(b *testing.B) { noPrivBench(b, scheme.KPrime()) })
		for _, mode := range figModes[:2] {
			b.Run(fmt.Sprintf("%s/d=%d", mode.name, d), func(b *testing.B) {
				cluster, client := benchDeployment(b, scheme, 5, mode.m)
				throughputBench(b, cluster, client, must(scheme.Encode(make([]uint64, d), 0)), 8)
			})
		}
	}
}
