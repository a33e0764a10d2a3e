// Package profiling wires the standard pprof/trace collectors into the
// command-line tools. Both binaries expose the same three flags
// (-cpuprofile, -memprofile, -trace); a single Start call interprets them
// and returns a stop function for the caller to defer.
//
// The profiles are written in the formats `go tool pprof` and
// `go tool trace` expect:
//
//	experiments -only fig19 -cpuprofile cpu.out
//	go tool pprof -top cpu.out
//
// Profiling never changes simulation behaviour — the engine is
// deterministic from its seed and produces byte-identical output with or
// without collectors attached.
package profiling

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Config names the output files for each collector. Empty fields disable
// the corresponding collector.
type Config struct {
	CPUProfile string // pprof CPU profile, sampled for the whole run
	MemProfile string // pprof heap profile, snapshotted at stop after a GC
	Trace      string // runtime execution trace for `go tool trace`
}

// Start begins the configured collectors and returns a stop function that
// flushes and closes them. The stop function must be called exactly once;
// it returns the first error encountered while finalizing any profile.
// If Start itself fails, every collector it already began is shut down
// before the error is returned, so there is nothing to stop.
func Start(cfg Config) (stop func() error, err error) {
	var stops []func() error
	fail := func(err error) (func() error, error) {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]() //nolint:errcheck // already failing; best-effort cleanup
		}
		return nil, err
	}

	if cfg.CPUProfile != "" {
		f, err := os.Create(cfg.CPUProfile)
		if err != nil {
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close() //nolint:errcheck // already failing
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
			return nil
		})
	}

	if cfg.Trace != "" {
		f, err := os.Create(cfg.Trace)
		if err != nil {
			return fail(fmt.Errorf("trace: %w", err))
		}
		if err := trace.Start(f); err != nil {
			f.Close() //nolint:errcheck // already failing
			return fail(fmt.Errorf("trace: %w", err))
		}
		stops = append(stops, func() error {
			trace.Stop()
			if err := f.Close(); err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			return nil
		})
	}

	if cfg.MemProfile != "" {
		path := cfg.MemProfile
		stops = append(stops, func() error {
			f, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
			// Materialize recently freed objects so the heap profile
			// reflects live memory, as `go test -memprofile` does.
			runtime.GC()
			werr := pprof.WriteHeapProfile(f)
			cerr := f.Close()
			if werr != nil {
				return fmt.Errorf("memprofile: %w", werr)
			}
			if cerr != nil {
				return fmt.Errorf("memprofile: %w", cerr)
			}
			return nil
		})
	}

	return func() error {
		var errs []error
		for i := len(stops) - 1; i >= 0; i-- {
			if err := stops[i](); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}, nil
}
