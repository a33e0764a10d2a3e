// Command tracegen generates a synthetic CDN crawl trace with the same
// schema and statistical phenomena as the paper's Section-3 crawl, in
// either the JSONL schema or the "#cdnlog" access-log flavor.
//
// Usage:
//
//	tracegen -servers 600 -days 5 -users 120 -seed 42 -out trace.jsonl
//	tracegen -short -servers 24 -days 1 -format accesslog -out crawl.log
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/tracegen"
	"cdnconsistency/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		servers = fs.Int("servers", 600, "number of content servers to crawl")
		days    = fs.Int("days", 5, "number of crawl days")
		users   = fs.Int("users", 120, "number of user-perspective pollers")
		seed    = fs.Int64("seed", 42, "deterministic seed")
		short   = fs.Bool("short", false, "use a short 12-minute crawl day (two 5-minute play phases around a 2-minute break) instead of the paper's full game day — for quick import fixtures")
		format  = fs.String("format", "jsonl", "output flavor: jsonl (the trace schema) or accesslog (the #cdnlog line format)")
		out     = fs.String("out", "-", "output path ('-' for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := tracegen.Config{
		Topology: topology.Config{Servers: *servers, Seed: *seed},
		Days:     *days,
		Users:    *users,
		Seed:     *seed,
	}
	if *short {
		cfg.Game = workload.ShortGame()
	}
	res, err := tracegen.Generate(cfg)
	if err != nil {
		return err
	}

	if err := write(*out, stdout, *format, res.Trace); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "tracegen: %d servers, %d days, %d records (%s)\n",
		len(res.Trace.Servers), res.Trace.Meta.Days, len(res.Trace.Records), *format)
	return nil
}

// write encodes tr in the given format to the file at path, or to stdout
// for "-".
func write(path string, stdout io.Writer, format string, tr *trace.Trace) error {
	if path == "-" {
		return encode(stdout, format, tr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encode(f, format, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func encode(w io.Writer, format string, tr *trace.Trace) error {
	switch format {
	case "jsonl":
		return trace.Write(w, tr)
	case "accesslog":
		// Generate returns records in canonical (time) order, the order the
		// flat chronological access-log line stream needs.
		return trace.WriteAccessLog(w, tr)
	default:
		return fmt.Errorf("unknown -format %q (want jsonl or accesslog)", format)
	}
}
