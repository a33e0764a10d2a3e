package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"cdnconsistency/internal/checkpoint"
	"cdnconsistency/internal/plan"
	"cdnconsistency/internal/runner"
)

// runPlans executes a plan file or catalog as a cell matrix through the same
// sweep runner as the figure sweep. Stdout carries one PASS/FAIL block per
// cell plus a one-line summary, byte-identical at any -parallel value and
// across checkpoint resume; assertion failures complete the matrix and fail
// the exit code, while execution aborts (cancellation, -timeout) stop it.
func runPlans(ctx context.Context, file, dir, junit string, sw sweep, stdout io.Writer) error {
	var (
		plans []*plan.Plan
		err   error
	)
	if file != "" {
		p, err := plan.LoadFile(file)
		if err != nil {
			return err
		}
		plans = []*plan.Plan{p}
	} else {
		plans, err = plan.LoadDir(dir)
		if err != nil {
			return err
		}
	}
	var jobs []sweepJob
	for _, p := range plans {
		cells, err := p.Cells()
		if err != nil {
			return err
		}
		for _, c := range cells {
			c := c
			jobs = append(jobs, sweepJob{id: c.ID(), run: func(ctx context.Context, m *runner.Metrics) (string, error) {
				r, err := plan.RunCell(c, plan.RunOptions{
					Ctx: ctx,
					Probe: func(now time.Duration, events uint64) {
						m.SetProbe(fmt.Sprintf("sim-clock %v, %d events", now, events))
					},
				})
				if err != nil {
					// Cancellation or deadline: not recorded, re-runs on resume.
					return "", err
				}
				m.AddEvents(r.Events)
				// The journaled payload is the CellResult itself; rendering
				// is a pure function of it, so resumed cells replay
				// byte-identically and the junit report can be rebuilt
				// from the journal.
				b, err := json.Marshal(r)
				return string(b), err
			}})
		}
	}

	// The journal fingerprint is a digest of every plan's canonical bytes:
	// resuming after any plan edit is refused rather than replaying stale
	// results.
	h := sha256.New()
	for _, p := range plans {
		b, err := p.Marshal()
		if err != nil {
			return err
		}
		h.Write(b)
	}
	sw.noun = "cells"
	sw.meta = checkpoint.Meta{Tool: "experiments-plan", Fingerprint: map[string]string{
		"plans": hex.EncodeToString(h.Sum(nil)),
	}}
	var results []*plan.CellResult
	err = sw.run(ctx, jobs, func(id, out string) error {
		var cr plan.CellResult
		if err := json.Unmarshal([]byte(out), &cr); err != nil {
			return fmt.Errorf("%s: corrupt cell record: %w", id, err)
		}
		fmt.Fprint(stdout, cr.Render())
		results = append(results, &cr)
		return nil
	})
	if err != nil {
		return err
	}

	// Cross-system compares run after the whole matrix: each plan's compare
	// block is a pure function of its cells' recorded metrics, so the output
	// stays byte-identical across -parallel values and checkpoint resume.
	for _, p := range plans {
		if cr := plan.EvalCompares(p, results); cr != nil {
			fmt.Fprint(stdout, cr.Render())
			results = append(results, cr)
		}
	}

	if junit != "" {
		data, err := plan.JUnit(results)
		if err != nil {
			return err
		}
		if err := os.WriteFile(junit, data, 0o644); err != nil {
			return fmt.Errorf("writing junit report: %w", err)
		}
		fmt.Fprintf(sw.errw, "experiments: junit report written to %s\n", junit)
	}
	failed := 0
	for _, r := range results {
		if r.Failed() {
			failed++
		}
	}
	fmt.Fprintf(stdout, "plans: %d cells, %d passed, %d failed\n", len(results), len(results)-failed, failed)
	if failed > 0 {
		return fmt.Errorf("%d of %d plan cells failed", failed, len(results))
	}
	return nil
}
