package plan

import "fmt"

// factor resolves the right-side scale: nil means 1, an explicit 0 pins the
// threshold at zero ("left must be 0 whenever right is finite").
func (c Compare) factor() float64 {
	if c.Factor == nil {
		return 1
	}
	return *c.Factor
}

// String renders the compare the way plan reports print it, e.g.
// "provider_kb: HAT <= 0.5*Push".
func (c Compare) String() string {
	right := c.Right
	if f := c.factor(); f != 1 {
		right = fnum(f) + "*" + c.Right
	}
	return fmt.Sprintf("%s: %s %s %s", c.Metric, c.Left, c.Op, right)
}

// Eval judges the compare for one seed given both sides' extracted metrics.
// A side whose cell produced no result (nil map, or the metric missing after
// an audit abort) fails the check rather than passing it vacuously.
func (c Compare) Eval(seed int64, left, right map[string]float64) CheckResult {
	res := CheckResult{Name: fmt.Sprintf("compare %s s%d", c.String(), seed)}
	lv, lok := left[c.Metric]
	rv, rok := right[c.Metric]
	if !lok || !rok {
		res.Detail = "metric unavailable (a compared cell produced no result)"
		return res
	}
	limit := c.factor() * rv
	switch c.Op {
	case "<=":
		res.OK = lv <= limit
	case "<":
		res.OK = lv < limit
	case ">=":
		res.OK = lv >= limit
	case ">":
		res.OK = lv > limit
	case "==":
		res.OK = lv == limit
	case "!=":
		res.OK = lv != limit
	}
	res.Detail = fmt.Sprintf("left %s, right %s, limit %s", fnum(lv), fnum(rv), fnum(limit))
	return res
}

// EvalCompares judges a plan's cross-system compares against its executed
// cells, returning a synthetic CellResult (ID "<plan>/compare") with one
// check per compare x seed — or nil when the plan declares none. It is a
// pure function of the cells' recorded metrics, so the compare block renders
// byte-identically at any parallelism.
func EvalCompares(p *Plan, cells []*CellResult) *CellResult {
	if len(p.Compare) == 0 {
		return nil
	}
	metrics := make(map[string]map[string]float64)
	for _, c := range cells {
		if c.Plan == p.Name {
			metrics[fmt.Sprintf("%s/s%d", c.System, c.Seed)] = c.Metrics
		}
	}
	r := &CellResult{
		ID:     p.Name + "/compare",
		Plan:   p.Name,
		System: "compare",
	}
	for _, c := range p.Compare {
		for _, seed := range p.seeds() {
			left := metrics[fmt.Sprintf("%s/s%d", c.Left, seed)]
			right := metrics[fmt.Sprintf("%s/s%d", c.Right, seed)]
			r.Checks = append(r.Checks, c.Eval(seed, left, right))
		}
	}
	return r
}
