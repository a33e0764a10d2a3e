// Package costmodel gives closed-form expectations for the staleness and
// message cost of each update method, formalizing the qualitative
// relationships the paper derives (Sections 1, 4.6): TTL staleness is
// TTL/2 per tree layer; Push costs one update message per replica per
// update; Invalidation pays a notification per update plus a fetch per
// *read* update; polling pays one request/response per TTL per replica.
//
// The model powers the multi-content planner (internal/catalog) and is
// validated against the discrete-event simulation in its tests: absolute
// agreement within a small factor, ordering agreement always.
package costmodel

import (
	"fmt"
	"math"
	"time"

	"cdnconsistency/internal/consistency"
)

// Workload describes one content's steady-state rates as the paper's
// Section 4.6 "APIs to probe visit and update frequency" would report them.
type Workload struct {
	// UpdateRate is provider updates per second.
	UpdateRate float64
	// VisitRatePerServer is end-user visits per second arriving at each
	// replica (users per server / visit period).
	VisitRatePerServer float64
	// Servers is the replica count.
	Servers int
	// TTL is the poll period for TTL-family methods.
	TTL time.Duration
	// TreeDepth is the replica depth for multicast TTL amplification
	// (1 for unicast).
	TreeDepth int
	// RTTSeconds approximates one-way provider-replica latency.
	RTTSeconds float64
}

// Validate checks the workload is usable.
func (w Workload) Validate() error {
	if w.UpdateRate < 0 || w.VisitRatePerServer < 0 {
		return fmt.Errorf("costmodel: negative rate")
	}
	if w.Servers <= 0 {
		return fmt.Errorf("costmodel: servers %d", w.Servers)
	}
	if w.TTL <= 0 {
		return fmt.Errorf("costmodel: ttl %v", w.TTL)
	}
	if w.TreeDepth <= 0 {
		return fmt.Errorf("costmodel: depth %d", w.TreeDepth)
	}
	if w.RTTSeconds < 0 {
		return fmt.Errorf("costmodel: rtt %v", w.RTTSeconds)
	}
	return nil
}

// Estimate is the model's prediction for one method on one workload.
type Estimate struct {
	Method consistency.Method
	// StalenessSec is the expected replica staleness (catch-up delay).
	StalenessSec float64
	// UpdateMsgsPerSec counts content-bearing messages across the system.
	UpdateMsgsPerSec float64
	// LightMsgsPerSec counts control messages (polls, invalidations).
	LightMsgsPerSec float64
}

// KBPerSec is the bandwidth cost given the payload sizes. This is the
// planner's objective: Invalidation beats Push precisely when update
// payloads dwarf notifications and visits are rarer than updates — the
// byte-level saving the paper credits Invalidation with (Section 1).
func (e Estimate) KBPerSec(updateKB, lightKB float64) float64 {
	return e.UpdateMsgsPerSec*updateKB + e.LightMsgsPerSec*lightKB
}

// Predict returns the model's estimate for a method. Only the provider-
// direct methods of the paper's comparison are modeled (TTL, Push,
// Invalidation, Lease); other methods return an error.
func Predict(m consistency.Method, w Workload) (Estimate, error) {
	if err := w.Validate(); err != nil {
		return Estimate{}, err
	}
	n := float64(w.Servers)
	ttl := w.TTL.Seconds()
	est := Estimate{Method: m}
	switch m {
	case consistency.MethodTTL:
		// A replica at depth d refreshes every TTL from a parent that is
		// itself (d-1)/2 TTL stale on average: staleness ~ d * TTL/2.
		est.StalenessSec = float64(w.TreeDepth)*ttl/2 + w.RTTSeconds
		// One poll request (light) and one content response (update)
		// per replica per TTL, regardless of update activity — the
		// paper's "wasted traffic on unchanged content".
		est.UpdateMsgsPerSec = n / ttl
		est.LightMsgsPerSec = n / ttl
	case consistency.MethodPush:
		est.StalenessSec = w.RTTSeconds
		est.UpdateMsgsPerSec = w.UpdateRate * n
		est.LightMsgsPerSec = 0
	case consistency.MethodInvalidation:
		// The replica fetches on the first visit after an invalidation:
		// expected wait = 1/visitRate (exponential/periodic approx),
		// bounded by never if there are no visits.
		if w.VisitRatePerServer > 0 {
			est.StalenessSec = 1/w.VisitRatePerServer + w.RTTSeconds
		} else {
			est.StalenessSec = math.Inf(1)
		}
		est.LightMsgsPerSec = w.UpdateRate * n // notifications
		// A fetch happens per update only if a visit arrives before the
		// next update; the fetch rate is min(updateRate, visitRate) per
		// replica, each fetch costing a light request and an update
		// response.
		fetch := math.Min(w.UpdateRate, w.VisitRatePerServer)
		est.UpdateMsgsPerSec = fetch * n
		est.LightMsgsPerSec += fetch * n
	case consistency.MethodLease:
		// While visited at least once per lease, leases stay renewed and
		// the method behaves like Push; idle replicas decay to one
		// renewal per visit.
		active := math.Min(1, w.VisitRatePerServer*ttl)
		est.StalenessSec = w.RTTSeconds + (1-active)*ttl/2
		est.UpdateMsgsPerSec = w.UpdateRate*n*active + w.VisitRatePerServer*n*(1-active)
		est.LightMsgsPerSec = n / ttl * active
	default:
		return Estimate{}, fmt.Errorf("costmodel: method %v not modeled", m)
	}
	return est, nil
}

// CheapestWithin returns the modeled method with the lowest bandwidth cost
// (KB/s at the given payload sizes) whose staleness stays within budget,
// among the given candidates. It returns an error when no candidate meets
// the budget.
func CheapestWithin(budget time.Duration, w Workload, updateKB, lightKB float64, candidates []consistency.Method) (Estimate, error) {
	if len(candidates) == 0 {
		return Estimate{}, fmt.Errorf("costmodel: no candidates")
	}
	if updateKB <= 0 || lightKB <= 0 {
		return Estimate{}, fmt.Errorf("costmodel: non-positive payload sizes %v/%v", updateKB, lightKB)
	}
	var best Estimate
	found := false
	for _, m := range candidates {
		est, err := Predict(m, w)
		if err != nil {
			return Estimate{}, err
		}
		if est.StalenessSec > budget.Seconds() {
			continue
		}
		if !found || est.KBPerSec(updateKB, lightKB) < best.KBPerSec(updateKB, lightKB) {
			best = est
			found = true
		}
	}
	if !found {
		return Estimate{}, fmt.Errorf("costmodel: no method meets staleness budget %v", budget)
	}
	return best, nil
}
