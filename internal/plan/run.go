package plan

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"cdnconsistency/internal/audit"
	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/core"
)

// Cell is one matrix entry of a plan: a system at a seed.
type Cell struct {
	Plan   *Plan
	System core.System
	Seed   int64
}

// ID is the cell's stable identifier: plan name, system label, seed.
func (c Cell) ID() string {
	return fmt.Sprintf("%s/%s/s%d", c.Plan.Name, c.System.Name, c.Seed)
}

// Cells expands the plan into its matrix (systems x seeds, in spec order).
// Validate guarantees every system resolves, so expansion cannot fail after
// a successful parse.
func (p *Plan) Cells() ([]Cell, error) {
	var out []Cell
	for _, name := range p.Systems {
		sys, err := core.ParseSystem(name)
		if err != nil {
			return nil, fmt.Errorf("plan %s: %w", p.Name, err)
		}
		for _, seed := range p.seeds() {
			out = append(out, Cell{Plan: p, System: sys, Seed: seed})
		}
	}
	return out, nil
}

// CellResult is one executed cell's outcome.
type CellResult struct {
	ID     string
	Plan   string
	System string
	Seed   int64
	// Metrics holds the primary run's extracted metrics; nil when the run
	// errored before producing a result.
	Metrics map[string]float64
	// Checks holds one entry per assertion, then per equivalence check.
	Checks []CheckResult
	// Err records a run that failed outright (invalid configuration, a
	// simulation error) — reported as a junit error, not a failure.
	Err string
	// Events counts the primary run's simulation events (metrics surface).
	Events uint64
}

// Failed reports whether the cell should fail the catalog: an execution
// error or any unsatisfied check.
func (r *CellResult) Failed() bool {
	if r.Err != "" {
		return true
	}
	for _, c := range r.Checks {
		if !c.OK {
			return true
		}
	}
	return false
}

// FailureDetail joins the failed checks' one-line explanations.
func (r *CellResult) FailureDetail() string {
	var lines []string
	for _, c := range r.Checks {
		if !c.OK {
			lines = append(lines, fmt.Sprintf("%s: %s", c.Name, c.Detail))
		}
	}
	return strings.Join(lines, "\n")
}

// Render prints the cell the way the catalog runner emits it: a header line
// and one PASS/FAIL line per check. Output is a pure function of the
// CellResult.
func (r *CellResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== plan %s ==\n", r.ID)
	if r.Err != "" {
		fmt.Fprintf(&b, "ERROR\t%s\n", r.Err)
	}
	for _, c := range r.Checks {
		verdict := "PASS"
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "%s\t%s\t(%s)\n", verdict, c.Name, c.Detail)
	}
	return b.String()
}

// RenderMetrics prints the cell's full metric map, sorted by name — the
// calibration view cdnsim -plan shows.
func (r *CellResult) RenderMetrics() string {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "metric\t%s\t%s\n", k, fnum(r.Metrics[k]))
	}
	return b.String()
}

// RunCell executes one cell: the primary simulation, the plan's equivalence
// re-runs, and every assertion, each simulation cancellable through ctx.
// The returned error is non-nil only for cancellation/deadline aborts — an
// interrupted cell has no outcome, so the catalog stops rather than report
// one. Everything else (including simulation errors and audit violations)
// lands in the CellResult.
func RunCell(ctx context.Context, c Cell) (*CellResult, error) {
	r := &CellResult{
		ID:     c.ID(),
		Plan:   c.Plan.Name,
		System: c.System.Name,
		Seed:   c.Seed,
	}
	res, err := c.run(ctx, c.Plan.Scenario)
	switch {
	case err == nil:
		r.Metrics = Metrics(res)
		r.Events = res.Events
	case isAbort(err):
		return nil, err
	case isAuditViolation(err):
		// The auditor caught a broken invariant: every metric except the
		// violation counter is unavailable, and assertions on them fail
		// with that explanation.
		r.Metrics = map[string]float64{MetricAuditViolations: 1}
	default:
		r.Err = err.Error()
		return r, nil
	}

	ttl := c.Plan.EffectiveServerTTL()
	for _, a := range c.Plan.Assert {
		r.Checks = append(r.Checks, a.Eval(r.Metrics, ttl))
	}
	for _, eq := range c.Plan.Equivalence {
		if r.Metrics[MetricAuditViolations] != 0 {
			r.Checks = append(r.Checks, CheckResult{
				Name: "equiv " + eq, Detail: "skipped: run aborted by audit violation",
			})
			continue
		}
		check, err := c.runEquivalence(ctx, eq, r.Metrics)
		if err != nil {
			return nil, err
		}
		r.Checks = append(r.Checks, check)
	}
	return r, nil
}

// run executes one simulation of the cell's system and seed against sc: the
// plan's scenario, or an equivalence re-run's variant of it.
func (c Cell) run(ctx context.Context, sc Scenario) (*cdn.Result, error) {
	opts, err := sc.Options(c.Seed)
	if err != nil {
		return nil, fmt.Errorf("plan %s: %w", c.Plan.Name, err)
	}
	return core.Run(c.System, append(opts, core.WithContext(ctx))...)
}

// runEquivalence executes one cross-run check against the primary run's
// metrics.
func (c Cell) runEquivalence(ctx context.Context, name string, primary map[string]float64) (CheckResult, error) {
	check := CheckResult{Name: "equiv " + name}
	var (
		sc = c.Plan.Scenario
		// approx lists metrics compared within float-summation noise
		// instead of exactly; skip lists metrics excluded outright.
		approx, skip map[string]bool
	)
	switch name {
	case EquivCohortExplicit:
		// Weighted cohorts are an exact refactoring of the explicit
		// model's one-member cohorts: counters and per-entry values match
		// exactly, but aggregate means and traffic sums accumulate in a
		// different order, so they are compared within relative float
		// noise. Event counts differ by construction (a weighted cohort's
		// visit that acts is one event, not one per member).
		sc.UserModel = cdn.UserModelExplicit
		skip = map[string]bool{"events": true}
		approx = map[string]bool{
			"mean_user_inconsistency": true,
			"total_kb":                true, "total_km_kb": true,
			"update_km_kb": true, "light_km_kb": true, "content_km_kb": true,
			"provider_kb": true, "provider_km_kb": true,
		}
	default:
		check.Detail = fmt.Sprintf("unknown equivalence check %q", name)
		return check, nil
	}
	res, err := c.run(ctx, sc)
	if err != nil {
		if isAbort(err) {
			return check, err
		}
		check.Detail = fmt.Sprintf("re-run failed: %v", err)
		return check, nil
	}
	other := Metrics(res)
	diffs := compareMetrics(primary, other, skip, approx)
	if len(diffs) == 0 {
		check.OK = true
		check.Detail = fmt.Sprintf("%d metrics match", len(primary)-len(skip))
		return check, nil
	}
	if len(diffs) > 3 {
		diffs = append(diffs[:3], fmt.Sprintf("... and %d more", len(diffs)-3))
	}
	check.Detail = "diverged: " + strings.Join(diffs, "; ")
	return check, nil
}

// relTol is the relative tolerance for approx-compared metrics: aggregates
// whose float additions associate differently between equivalent runs.
const relTol = 1e-9

// compareMetrics diffs two metric maps, exactly by default, within relTol
// for approx entries, ignoring skip entries. Diffs are sorted by metric name
// so reports are deterministic.
func compareMetrics(a, b map[string]float64, skip, approx map[string]bool) []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var diffs []string
	for _, k := range keys {
		if skip[k] {
			continue
		}
		av, bv := a[k], b[k]
		if av == bv {
			continue
		}
		if approx[k] {
			scale := abs(av)
			if s := abs(bv); s > scale {
				scale = s
			}
			if abs(av-bv) <= relTol*scale {
				continue
			}
		}
		diffs = append(diffs, fmt.Sprintf("%s: %s vs %s", k, fnum(av), fnum(bv)))
	}
	return diffs
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// isAbort reports a cancellation or deadline error — the caller interrupted
// the catalog, so the cell has no outcome to record.
func isAbort(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func isAuditViolation(err error) bool {
	var v *audit.Violation
	return errors.As(err, &v)
}
