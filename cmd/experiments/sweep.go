package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cdnconsistency/internal/checkpoint"
	"cdnconsistency/internal/runner"
)

// sweepJob is one journaled unit of a sweep: a figure or a plan cell. Its
// output string is what the journal records and a resume re-emits.
type sweepJob struct {
	id  string
	run func(ctx context.Context, m *runner.Metrics) (string, error)
}

// sweep drives the figure sweep and plan mode alike: an ordered worker pool
// with a per-job deadline, a stuck-job reporter, and an optional checkpoint
// journal that a -resume replays verbatim.
type sweep struct {
	noun      string          // what a job is called in messages: "figures" or "cells"
	meta      checkpoint.Meta // journal fingerprint: everything that shapes a job's bytes
	ckDir     string          // -checkpoint
	resumeDir string          // -resume
	parallel  int
	timeout   time.Duration
	stuck     time.Duration
	metrics   bool
	errw      *syncWriter
}

// run executes jobs and hands each output to emit in submission order, so
// stdout is byte-identical at any -parallel value and across resume. A
// cancelled sweep returns with a -resume hint when it is journaled.
func (s sweep) run(ctx context.Context, jobs []sweepJob, emit func(id, out string) error) error {
	journal, err := s.openJournal()
	if err != nil {
		return err
	}
	restored := make([]bool, len(jobs))
	pjobs := make([]runner.Job[string], len(jobs))
	for i, j := range jobs {
		i, j := i, j
		pjobs[i] = runner.Job[string]{
			ID: j.id,
			Run: func(m *runner.Metrics) (string, error) {
				if journal != nil {
					if rec, ok := journal.Done(j.id); ok {
						restored[i] = true
						return rec.Output, nil
					}
				}
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

	opts := runner.Options{
		Workers:    s.parallel,
		FailFast:   true,
		Context:    ctx,
		StuckAfter: s.stuck,
		OnStuck: func(id string, elapsed time.Duration, probe string, stacks []byte) {
			if probe == "" {
				probe = "none"
			}
			fmt.Fprintf(s.errw, "experiments: %s still running after %v (last probe: %s); goroutine dump:\n%s\n",
				id, elapsed.Round(time.Second), probe, stacks)
		},
	}
	var summary []runner.Result[string]
	err = runner.ForEachOrdered(pjobs, opts,
		func(i int, r runner.Result[string]) error {
			if r.Err != nil {
				return fmt.Errorf("%s: %w", r.ID, r.Err)
			}
			if err := emit(r.ID, r.Value); err != nil {
				return err
			}
			if restored[i] {
				fmt.Fprintf(s.errw, "experiments: %s restored from checkpoint\n", r.ID)
			} else {
				if journal != nil {
					if err := journal.Record(checkpoint.Record{
						ID:      r.ID,
						Output:  r.Value,
						WallMS:  r.Metrics.Wall.Milliseconds(),
						AllocMB: float64(r.Metrics.AllocBytes) / (1 << 20),
					}); err != nil {
						return err
					}
				}
				fmt.Fprintf(s.errw, "experiments: %s done in %v\n", r.ID, r.Metrics.Wall.Round(time.Millisecond))
			}
			summary = append(summary, r)
			return nil
		})
	if err != nil {
		if journal != nil && (errors.Is(err, context.Canceled) || errors.Is(err, runner.ErrCanceled)) {
			return fmt.Errorf("%w\n%d finished %s are checkpointed; rerun with -resume %s to continue",
				err, journal.Len(), s.noun, journal.Dir())
		}
		return err
	}
	if s.metrics {
		printMetrics(s.errw, summary, s.parallel)
	}
	return nil
}

// openJournal opens the checkpoint journal, if any. -resume implies
// journaling to the same directory; a fresh -checkpoint refuses a directory
// that already holds progress, so recorded outputs are never replayed
// without the operator asking for it.
func (s sweep) openJournal() (*checkpoint.Journal, error) {
	dir, resume := s.ckDir, s.resumeDir != ""
	if resume {
		if dir != "" && dir != s.resumeDir {
			return nil, fmt.Errorf("-checkpoint (%s) and -resume (%s) name different directories", dir, s.resumeDir)
		}
		dir = s.resumeDir
	}
	if dir == "" {
		return nil, nil
	}
	journal, err := checkpoint.Open(dir, s.meta)
	if err != nil {
		return nil, err
	}
	if !resume && journal.Len() > 0 {
		return nil, fmt.Errorf("checkpoint directory %s already records %d finished %s; use -resume %s to continue it",
			dir, journal.Len(), s.noun, dir)
	}
	return journal, nil
}
