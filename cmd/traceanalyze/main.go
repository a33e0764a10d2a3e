// Command traceanalyze runs the paper's complete Section-3 measurement
// analysis on a crawl trace and prints every figure's data series
// (Figures 3-12 plus the multicast-tree verdict).
//
// Usage:
//
//	traceanalyze -in trace.jsonl          # analyze a stored trace (JSONL or #cdnlog)
//	traceanalyze -synthetic -servers 300  # generate-and-analyze in one step
package main

import (
	"flag"
	"fmt"
	"os"

	"cdnconsistency/internal/analysis"
	"cdnconsistency/internal/figures"
	"cdnconsistency/internal/traceimport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "traceanalyze:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("traceanalyze", flag.ContinueOnError)
	var (
		in        = fs.String("in", "", "trace file to analyze: the JSONL schema or a #cdnlog access log (sniffed)")
		synthetic = fs.Bool("synthetic", false, "generate a synthetic trace instead of reading one")
		servers   = fs.Int("servers", 300, "synthetic: number of servers")
		days      = fs.Int("days", 3, "synthetic: number of days")
		users     = fs.Int("users", 80, "synthetic: number of user pollers")
		seed      = fs.Int64("seed", 42, "synthetic: seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	env, err := buildEnv(*in, *synthetic, *servers, *days, *users, *seed)
	if err != nil {
		return err
	}

	// Executive summary first (the paper's Section 3.6 view), then every
	// figure's series.
	summary, err := env.Dataset.Summarize()
	if err != nil {
		return err
	}
	fmt.Println("== summary ==")
	fmt.Println(summary.String())

	type gen func(*figures.TraceEnv) (*figures.Table, error)
	gens := []gen{
		figures.Fig03, figures.Fig04, figures.Fig05, figures.Fig06,
		figures.Fig07, figures.Fig08, figures.Fig09, figures.Fig10,
		figures.Fig11, figures.Fig12, figures.TreeVerdictTable,
	}
	for _, g := range gens {
		tab, err := g(env)
		if err != nil {
			return err
		}
		fmt.Println(tab.String())
	}
	return nil
}

func buildEnv(in string, synthetic bool, servers, days, users int, seed int64) (*figures.TraceEnv, error) {
	switch {
	case in != "":
		tr, _, err := traceimport.LoadTrace(in)
		if err != nil {
			return nil, err
		}
		ds, err := analysis.NewDataset(tr)
		if err != nil {
			return nil, err
		}
		return &figures.TraceEnv{Dataset: ds}, nil
	case synthetic:
		return figures.NewTraceEnv(figures.TraceScale{
			Servers: servers, Days: days, Users: users, Seed: seed,
		})
	default:
		return nil, fmt.Errorf("pass -in <file> or -synthetic")
	}
}
