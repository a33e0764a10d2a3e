package main

import (
	"context"
	"fmt"
	"time"

	"cdnconsistency/internal/runner"
)

// sweepJob is one unit of a sweep: a figure (its rendered table) or a plan
// cell (its *plan.CellResult).
type sweepJob[T any] struct {
	id  string
	run func(ctx context.Context, m *runner.Metrics) (T, error)
}

// sweep drives the figure sweep and plan mode alike: an ordered worker pool
// with a per-job deadline.
type sweep struct {
	parallel int
	timeout  time.Duration
	metrics  bool
	errw     *syncWriter
}

// runSweep executes jobs and hands each value to emit in submission order,
// so stdout is byte-identical at any -parallel value. A cancelled sweep
// stops handing out jobs and returns the cancellation once the running ones
// abort.
func runSweep[T any](ctx context.Context, s sweep, jobs []sweepJob[T], emit func(v T) error) error {
	pjobs := make([]runner.Job[T], len(jobs))
	for i, j := range jobs {
		j := j
		pjobs[i] = runner.Job[T]{
			ID: j.id,
			Run: func(m *runner.Metrics) (T, error) {
				jobCtx := ctx
				if s.timeout > 0 {
					var cancel context.CancelFunc
					jobCtx, cancel = context.WithTimeout(ctx, s.timeout)
					defer cancel()
				}
				return j.run(jobCtx, m)
			},
		}
	}

	opts := runner.Options{Workers: s.parallel, FailFast: true, Context: ctx}
	var summary []runner.Result[T]
	err := runner.ForEachOrdered(pjobs, opts,
		func(_ int, r runner.Result[T]) error {
			if r.Err != nil {
				return fmt.Errorf("%s: %w", r.ID, r.Err)
			}
			if err := emit(r.Value); err != nil {
				return err
			}
			fmt.Fprintf(s.errw, "experiments: %s done in %v\n", r.ID, r.Metrics.Wall.Round(time.Millisecond))
			summary = append(summary, r)
			return nil
		})
	if err != nil {
		return err
	}
	if s.metrics {
		printMetrics(s.errw, summary, s.parallel)
	}
	return nil
}
