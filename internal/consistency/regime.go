package consistency

import (
	"fmt"
	"time"
)

// RegimeController implements the paper's future-work direction (Sections
// 4.6 and 6): a generic self-adapting strategy that probes the visit and
// update frequency of live content and switches each replica between Push,
// Invalidation, and TTL to minimize message cost at a given consistency
// requirement.
//
// The decision rule follows the paper's own cost observations:
//
//   - visits much more frequent than updates: every update will be read, so
//     pushing costs one message per update (the minimum) and gives the best
//     consistency -> RegimePush (Section 4.6: Push suits high-consistency,
//     frequently-read content).
//   - updates much more frequent than visits: most pushed updates would
//     never be read; an invalidation is sent once and the single fetch
//     happens on demand -> RegimeInvalidation (Section 1: Invalidation
//     saves traffic when visit rates are below update rates).
//   - comparable rates: TTL aggregates several updates per poll at bounded
//     staleness and the lowest provider load -> RegimeTTL.
type RegimeController struct {
	cfg RegimeConfig

	visitEWMA  float64 // visits per second
	updateEWMA float64 // updates per second
	lastVisit  time.Duration
	lastUpdate time.Duration
	seenVisit  bool
	seenUpdate bool

	regime   Regime
	switches int
}

// Regime is the controller's chosen update machinery.
type Regime int

// Regimes, ordered from strongest consistency to cheapest.
const (
	RegimePush Regime = iota + 1
	RegimeTTL
	RegimeInvalidation
)

// String returns the regime name.
func (r Regime) String() string {
	switch r {
	case RegimePush:
		return "push"
	case RegimeTTL:
		return "ttl"
	case RegimeInvalidation:
		return "invalidation"
	default:
		return fmt.Sprintf("regime(%d)", int(r))
	}
}

// RegimeConfig tunes the controller. Zero fields take defaults.
type RegimeConfig struct {
	// Alpha is the EWMA weight for new rate samples; default 0.2.
	Alpha float64
	// PushRatio: visits/updates above this selects Push; default 3.
	PushRatio float64
	// InvalidateRatio: visits/updates below this selects Invalidation;
	// default 1/3.
	InvalidateRatio float64
	// Hysteresis scales the thresholds when leaving the current regime so
	// borderline rates do not flap; default 1.25.
	Hysteresis float64
}

func (c RegimeConfig) withDefaults() (RegimeConfig, error) {
	if c.Alpha == 0 {
		c.Alpha = 0.2
	}
	if c.PushRatio == 0 {
		c.PushRatio = 3
	}
	if c.InvalidateRatio == 0 {
		c.InvalidateRatio = 1.0 / 3
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 1.25
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return c, fmt.Errorf("consistency: regime alpha %v outside (0,1]", c.Alpha)
	}
	if c.PushRatio <= c.InvalidateRatio {
		return c, fmt.Errorf("consistency: PushRatio %v must exceed InvalidateRatio %v",
			c.PushRatio, c.InvalidateRatio)
	}
	if c.Hysteresis < 1 {
		return c, fmt.Errorf("consistency: hysteresis %v below 1", c.Hysteresis)
	}
	return c, nil
}

// NewRegimeController starts in the TTL regime (the measured CDN's
// behaviour) until rate estimates accumulate.
func NewRegimeController(cfg RegimeConfig) (*RegimeController, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &RegimeController{cfg: cfg, regime: RegimeTTL}, nil
}

// Regime returns the current choice.
func (rc *RegimeController) Regime() Regime { return rc.regime }

// UpdateRate returns the current updates-per-second estimate.
func (rc *RegimeController) UpdateRate() float64 { return rc.updateEWMA }

// ObserveVisit feeds one end-user visit at virtual time now.
func (rc *RegimeController) ObserveVisit(now time.Duration) {
	rc.visitEWMA = rc.observe(now, rc.visitEWMA, &rc.lastVisit, &rc.seenVisit)
}

// ObserveUpdate feeds one content update at virtual time now.
func (rc *RegimeController) ObserveUpdate(now time.Duration) {
	rc.updateEWMA = rc.observe(now, rc.updateEWMA, &rc.lastUpdate, &rc.seenUpdate)
}

func (rc *RegimeController) observe(now time.Duration, ewma float64, last *time.Duration, seen *bool) float64 {
	if *seen {
		gap := (now - *last).Seconds()
		if gap > 0 {
			rate := 1 / gap
			ewma = rc.cfg.Alpha*rate + (1-rc.cfg.Alpha)*ewma
		}
	}
	*seen = true
	*last = now
	return ewma
}

// Decide re-evaluates the regime from the current rate estimates and
// returns true when the regime changed. Callers invoke it on a control
// epoch (e.g. every server TTL).
func (rc *RegimeController) Decide() (changed bool) {
	if !rc.seenVisit || !rc.seenUpdate || rc.updateEWMA == 0 {
		return false
	}
	ratio := rc.visitEWMA / rc.updateEWMA

	pushUp := rc.cfg.PushRatio
	invDown := rc.cfg.InvalidateRatio
	// Hysteresis: make it harder to leave the current regime.
	switch rc.regime {
	case RegimePush:
		pushUp /= rc.cfg.Hysteresis
	case RegimeInvalidation:
		invDown *= rc.cfg.Hysteresis
	}

	next := rc.regime
	switch {
	case ratio >= pushUp:
		next = RegimePush
	case ratio <= invDown:
		next = RegimeInvalidation
	default:
		next = RegimeTTL
	}
	if next != rc.regime {
		rc.regime = next
		rc.switches++
		return true
	}
	return false
}
