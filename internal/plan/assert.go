package plan

import (
	"fmt"
	"strconv"
	"time"
)

// CheckResult is one evaluated assertion or equivalence check.
type CheckResult struct {
	// Name is the check's rendered form, e.g.
	// "p99_user_inconsistency <= 2*ttl" or "equiv cohort_explicit".
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	// Detail explains the outcome: the observed value and resolved
	// threshold for assertions, the divergence (if any) for equivalence
	// checks. Deterministic, so reports are byte-stable.
	Detail string `json:"detail"`
}

// fnum renders a float with the shortest representation that round-trips,
// keeping rendered reports byte-stable across re-parsing.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// String renders the assertion the way plan reports print it.
func (a Assertion) String() string {
	return fmt.Sprintf("%s %s %s", a.Metric, a.Op, a.thresholdExpr())
}

// thresholdExpr renders the threshold's symbolic form ("2*ttl", "0.5",
// "1*ttl+3").
func (a Assertion) thresholdExpr() string {
	switch {
	case a.TTLMult != 0 && a.Value != 0:
		return fmt.Sprintf("%s*ttl+%s", fnum(a.TTLMult), fnum(a.Value))
	case a.TTLMult != 0:
		return fmt.Sprintf("%s*ttl", fnum(a.TTLMult))
	default:
		return fnum(a.Value)
	}
}

// Threshold resolves the assertion's numeric bound against the plan's server
// TTL.
func (a Assertion) Threshold(serverTTL time.Duration) float64 {
	return a.Value + a.TTLMult*serverTTL.Seconds()
}

// Eval judges the assertion against a cell's extracted metrics. A metric
// missing from the map (a run aborted before producing results) fails the
// assertion rather than passing it vacuously.
func (a Assertion) Eval(metrics map[string]float64, serverTTL time.Duration) CheckResult {
	c := CheckResult{Name: a.String()}
	got, ok := metrics[a.Metric]
	if !ok {
		c.Detail = "metric unavailable (run produced no result)"
		return c
	}
	limit := a.Threshold(serverTTL)
	switch a.Op {
	case "<=":
		c.OK = got <= limit
	case "<":
		c.OK = got < limit
	case ">=":
		c.OK = got >= limit
	case ">":
		c.OK = got > limit
	case "==":
		c.OK = got == limit
	case "!=":
		c.OK = got != limit
	}
	c.Detail = fmt.Sprintf("got %s, limit %s", fnum(got), fnum(limit))
	return c
}
