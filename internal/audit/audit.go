// Package audit defines the runtime invariant auditor's vocabulary: the
// structured Violation a failed invariant produces, and the shared predicate
// functions that verify conservation properties over simulation state.
//
// The predicates are deliberately free of simulation dependencies (they see
// trees through the TreeView interface and metrics as plain numbers) so the
// same checks back three consumers: the unit/property tests that validate
// results offline, overlay.Tree.Validate's structural checks, and the live
// auditor internal/cdn runs at cadence during a simulation. A figure is only
// trustworthy if the run that produced it audited clean — the paper's
// trace-driven claims rest on the simulator never silently corrupting state,
// a risk that grows once faults are injected mid-run.
//
// Every predicate returns *Violation (nil when the property holds) rather
// than a bare error, so callers fail fast with the event time, offending
// server, property name, and a snapshot of the offending state instead of
// producing quietly-wrong figures.
package audit

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Violation is one failed invariant: what broke, where, when, and a snapshot
// of the offending state. It implements error so simulation entry points can
// return it directly.
type Violation struct {
	// Property names the broken invariant, e.g. "tree-connectivity" or
	// "catchup-accounting".
	Property string
	// Time is the simulation clock when the violation was detected (zero
	// for offline checks).
	Time time.Duration
	// Server is the offending node index, or -1 when the property is
	// global.
	Server int
	// Detail describes the failure in one sentence.
	Detail string
	// Snapshot dumps the offending state (counters, parent chains) for
	// post-mortem debugging.
	Snapshot string
}

// Error renders the violation with all its context.
func (v *Violation) Error() string {
	msg := fmt.Sprintf("audit: %s violated at %v", v.Property, v.Time)
	if v.Server >= 0 {
		msg += fmt.Sprintf(" (server %d)", v.Server)
	}
	msg += ": " + v.Detail
	if v.Snapshot != "" {
		msg += "\n  state: " + v.Snapshot
	}
	return msg
}

// violationf builds a global violation for one property.
func violationf(property, format string, args ...any) *Violation {
	return &Violation{Property: property, Server: -1, Detail: fmt.Sprintf(format, args...)}
}

// Label names the quantity a predicate checks: a format string with at most
// one %d verb, and the index that fills it. Building a Label formats
// nothing; the name is rendered only when the check fails, so a sweep that
// checks thousands of users or nodes and finds them healthy pays nothing for
// their names. A Format without a verb is the name verbatim.
type Label struct {
	Format string
	Index  int
}

// String renders the label.
func (l Label) String() string {
	if strings.IndexByte(l.Format, '%') < 0 {
		return l.Format
	}
	return fmt.Sprintf(l.Format, l.Index)
}

// CheckSeries verifies a metric series is physically meaningful: every value
// finite and non-negative. Inconsistency lengths, catch-up sums, and recovery
// durations are all durations — a negative or NaN entry means accounting
// corrupted somewhere upstream. The violation names the offending entry's
// index as its Server, which is right when the series is per server; callers
// holding any other series overwrite it.
func CheckSeries(l Label, xs []float64) *Violation {
	for i, x := range xs {
		if v := CheckSeriesEntry(l, i, x); v != nil {
			v.Server = i
			return v
		}
	}
	return nil
}

// CheckSeriesEntry is CheckSeries for the single entry x at index i, for
// callers that hold one value of a series per item and must not build a
// slice to check it. The violation is global (Server -1) and reads exactly as
// CheckSeries would render that entry.
func CheckSeriesEntry(l Label, i int, x float64) *Violation {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return violationf("series-finite", "%s[%d] = %v is not finite", l, i, x)
	}
	if x < 0 {
		return violationf("series-nonnegative", "%s[%d] = %v is negative", l, i, x)
	}
	return nil
}

// CheckCount verifies a sub-count never exceeds its total and neither is
// negative (e.g. inconsistent observations vs. all observations).
func CheckCount(l Label, part, total int) *Violation {
	if part < 0 || total < 0 {
		return violationf("count-nonnegative", "%s: part=%d total=%d", l, part, total)
	}
	if part > total {
		return violationf("count-bounded", "%s: part %d exceeds total %d", l, part, total)
	}
	return nil
}

// CheckFraction verifies a ratio lies in [0, 1] and is finite.
func CheckFraction(name string, f float64) *Violation {
	if math.IsNaN(f) || f < 0 || f > 1 {
		return violationf("fraction-bounded", "%s = %v outside [0, 1]", name, f)
	}
	return nil
}

// CheckMonotonicCount verifies a cumulative counter never runs backwards
// between two audit observations.
func CheckMonotonicCount(name string, prev, cur int) *Violation {
	if cur < prev {
		return violationf("counter-monotonic", "%s decreased from %d to %d", name, prev, cur)
	}
	return nil
}

// CheckBoundedDelay verifies one recorded catch-up delay against the regime's
// theoretical maximum (TTL plus propagation, scaled by relay depth — computed
// by the caller, which knows the regime). bound <= 0 means only the
// non-negativity half applies.
func CheckBoundedDelay(l Label, delay, bound time.Duration) *Violation {
	if delay < 0 {
		return violationf("delay-nonnegative", "%s = %v is negative", l, delay)
	}
	if bound > 0 && delay > bound {
		return violationf("delay-bounded", "%s = %v exceeds the regime max %v", l, delay, bound)
	}
	return nil
}
