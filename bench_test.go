package cdnconsistency_test

// One benchmark per data figure in the paper. Each regenerates the figure's
// series at bench scale and reports a headline metric so regressions in the
// reproduced *shape* are visible, not just runtime. The cmd/experiments
// binary produces the full-scale tables recorded in EXPERIMENTS.md.

import (
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cdnconsistency/internal/figures"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *figures.TraceEnv
	benchEnvErr  error
)

func traceEnv(b *testing.B) *figures.TraceEnv {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = figures.NewTraceEnv(figures.SmallTraceScale())
	})
	if benchEnvErr != nil {
		b.Fatalf("trace env: %v", benchEnvErr)
	}
	return benchEnv
}

// metricRow extracts the numeric value of a "# name" summary row.
func metricRow(tab *figures.Table, name string) (float64, bool) {
	for _, row := range tab.Rows {
		if len(row) < 2 || row[0] != name {
			continue
		}
		for _, cell := range row[1:] {
			if v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

func benchTraceFig(b *testing.B, fn func(*figures.TraceEnv) (*figures.Table, error), metric string) {
	env := traceEnv(b)
	b.ResetTimer()
	var tab *figures.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = fn(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	if metric != "" {
		if v, ok := metricRow(tab, metric); ok {
			b.ReportMetric(v, strings.TrimPrefix(metric, "# "))
		}
	}
}

func benchSimFig(b *testing.B, fn func(figures.SimScale) (*figures.Table, error)) {
	scale := figures.SmallSimScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(scale); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSimFigTiny shrinks sweep-heavy figures further.
func benchSimFigTiny(b *testing.B, fn func(figures.SimScale) (*figures.Table, error)) {
	scale := tinyScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(scale); err != nil {
			b.Fatal(err)
		}
	}
}

// Section 3 figures (measurement).

func BenchmarkFig03(b *testing.B) { benchTraceFig(b, figures.Fig03, "# mean_s") }
func BenchmarkFig04(b *testing.B) { benchTraceFig(b, figures.Fig04, "") }
func BenchmarkFig05(b *testing.B) { benchTraceFig(b, figures.Fig05, "") }
func BenchmarkFig06(b *testing.B) { benchTraceFig(b, figures.Fig06, "# inferred_ttl_s") }
func BenchmarkFig07(b *testing.B) { benchTraceFig(b, figures.Fig07, "# mean_s") }
func BenchmarkFig08(b *testing.B) { benchTraceFig(b, figures.Fig08, "# pearson_r") }
func BenchmarkFig09(b *testing.B) { benchTraceFig(b, figures.Fig09, "") }
func BenchmarkFig10(b *testing.B) { benchTraceFig(b, figures.Fig10, "") }
func BenchmarkFig11(b *testing.B) { benchTraceFig(b, figures.Fig11, "# server_rank_spread") }
func BenchmarkFig12(b *testing.B) { benchTraceFig(b, figures.Fig12, "# day0_frac_under_2ttl") }
func BenchmarkTreeVerdict(b *testing.B) {
	benchTraceFig(b, figures.TreeVerdictTable, "")
}

// Section 4 figures (trace-driven evaluation).

func BenchmarkFig14(b *testing.B) { benchSimFig(b, figures.Fig14) }
func BenchmarkFig15(b *testing.B) { benchSimFig(b, figures.Fig15) }
func BenchmarkFig16(b *testing.B) { benchSimFig(b, figures.Fig16) }
func BenchmarkFig17(b *testing.B) { benchSimFig(b, figures.Fig17) }
func BenchmarkFig18(b *testing.B) { benchSimFig(b, figures.Fig18) }
func BenchmarkFig19(b *testing.B) { benchSimFigTiny(b, figures.Fig19) }
func BenchmarkFig20(b *testing.B) { benchSimFigTiny(b, figures.Fig20) }

// Section 5 figures (HAT evaluation).

func BenchmarkFig22(b *testing.B) { benchSimFigTiny(b, figures.Fig22) }
func BenchmarkFig23(b *testing.B) { benchSimFig(b, figures.Fig23) }
func BenchmarkFig24(b *testing.B) { benchSimFigTiny(b, figures.Fig24) }

// Extension studies: what the paper discusses but does not evaluate.

func BenchmarkExtBroadcast(b *testing.B)   { benchSimFig(b, figures.ExtBroadcast) }
func BenchmarkExtTreeFailure(b *testing.B) { benchSimFig(b, figures.ExtTreeFailure) }
func BenchmarkExtLease(b *testing.B)       { benchSimFig(b, figures.ExtLease) }
func BenchmarkExtDNS(b *testing.B)         { benchSimFig(b, figures.ExtDNS) }
func BenchmarkExtRegime(b *testing.B)      { benchSimFig(b, figures.ExtRegime) }
func BenchmarkExtCatalog(b *testing.B)     { benchSimFig(b, figures.ExtCatalog) }

// BenchmarkExtScale is the cohort-model scalability guard: it runs the
// reduced ext-scale sweep (10^3 and 10^4 users over 30 servers, four
// protocols) and its allocs/op budget in the benchjson regression set holds
// the cohort visit path to its fixed-memory claim end to end. The perf
// report is silenced: `go test` interleaves the binary's stderr into stdout,
// which would split the benchmark result line the bench parser reads.
func BenchmarkExtScale(b *testing.B) {
	defer func(w io.Writer) { figures.ExtScalePerfOutput = w }(figures.ExtScalePerfOutput)
	figures.ExtScalePerfOutput = io.Discard
	benchSimFigTiny(b, figures.ExtScale)
}

// BenchmarkShardedExtScale is the same reduced sweep on the sharded engine:
// each run drains the default 8-cell partition on one goroutine under
// conservative time-window synchronization, so against BenchmarkExtScale it
// measures the sharding overhead (barriers + cross-cell merge). Guarded
// alongside BenchmarkExtScale so the overhead cannot silently grow.
func BenchmarkShardedExtScale(b *testing.B) {
	defer func(w io.Writer) { figures.ExtScalePerfOutput = w }(figures.ExtScalePerfOutput)
	figures.ExtScalePerfOutput = io.Discard
	scale := tinyScale()
	scale.Shards = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.ExtScale(scale); err != nil {
			b.Fatal(err)
		}
	}
}

// Serial vs parallel fan-out of a sweep-heavy figure through the worker
// pool. Compare these two to see the wall-clock speedup on multicore
// hardware; the table contents are byte-identical either way.

func benchSimFigParallel(b *testing.B, fn func(figures.SimScale) (*figures.Table, error), workers int) {
	scale := tinyScale()
	scale.Parallel = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(scale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig20Serial(b *testing.B) { benchSimFigParallel(b, figures.Fig20, 1) }
func BenchmarkFig20Parallel(b *testing.B) {
	benchSimFigParallel(b, figures.Fig20, runtime.GOMAXPROCS(0))
}
func BenchmarkFig19Serial(b *testing.B) { benchSimFigParallel(b, figures.Fig19, 1) }
func BenchmarkFig19Parallel(b *testing.B) {
	benchSimFigParallel(b, figures.Fig19, runtime.GOMAXPROCS(0))
}

// Design-decision ablations (DESIGN.md Section 5).

func BenchmarkAblationQueue(b *testing.B)     { benchSimFig(b, figures.AblationQueue) }
func BenchmarkAblationProximity(b *testing.B) { benchSimFig(b, figures.AblationProximity) }
func BenchmarkAblationAdaptive(b *testing.B)  { benchSimFig(b, figures.AblationAdaptive) }
func BenchmarkAblationHilbert(b *testing.B)   { benchSimFig(b, figures.AblationHilbert) }
func BenchmarkAblationDepth(b *testing.B)     { benchSimFig(b, figures.AblationDepth) }
