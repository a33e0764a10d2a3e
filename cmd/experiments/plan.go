package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"cdnconsistency/internal/plan"
	"cdnconsistency/internal/runner"
)

// runPlans executes a plan file or catalog as a cell matrix through the same
// sweep runner as the figure sweep. Stdout carries one PASS/FAIL block per
// cell plus a one-line summary, byte-identical at any -parallel value;
// assertion failures complete the matrix and fail the exit code, while
// execution aborts (cancellation, -timeout) stop it.
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
	var jobs []sweepJob[*plan.CellResult]
	for _, p := range plans {
		cells, err := p.Cells()
		if err != nil {
			return err
		}
		for _, c := range cells {
			c := c
			jobs = append(jobs, sweepJob[*plan.CellResult]{id: c.ID(), run: func(ctx context.Context, m *runner.Metrics) (*plan.CellResult, error) {
				r, err := plan.RunCell(ctx, c)
				if err != nil {
					return nil, err
				}
				m.AddEvents(r.Events)
				return r, nil
			}})
		}
	}

	var results []*plan.CellResult
	err = runSweep(ctx, sw, jobs, func(r *plan.CellResult) error {
		fmt.Fprint(stdout, r.Render())
		results = append(results, r)
		return nil
	})
	if err != nil {
		return err
	}

	// Cross-system compares run after the whole matrix: each plan's compare
	// block is a pure function of its cells' recorded metrics, so the output
	// stays byte-identical across -parallel values.
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
