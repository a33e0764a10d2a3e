package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// CohortSpec is one weighted user cohort attached to a server: Count users
// sharing a visit phase (all start OffsetNS into the run) and a poll period.
// Members of a cohort are interchangeable by construction — same server, same
// phase, same period — which is what lets the cohort user model simulate them
// with one batched visit per period instead of Count.
type CohortSpec struct {
	// Count is the number of users in the cohort; must be >= 1.
	Count int `json:"count"`
	// OffsetNS is the cohort's first-visit offset in nanoseconds from the
	// start of the run (the paper randomizes user starts in [0s, 50s]).
	OffsetNS int64 `json:"offset_ns"`
	// PeriodNS is the cohort's visit period in nanoseconds; 0 means "use the
	// simulation's configured end-user TTL".
	PeriodNS int64 `json:"period_ns,omitempty"`
}

// Offset returns the first-visit offset as a duration.
func (c CohortSpec) Offset() time.Duration { return time.Duration(c.OffsetNS) }

// Period returns the visit period as a duration (0 = simulation default).
func (c CohortSpec) Period() time.Duration { return time.Duration(c.PeriodNS) }

// Population assigns user cohorts to servers: Servers[i] holds the cohorts
// attached to the i-th content server. The same population drives both user
// models — one cohort per user under "explicit", one weighted cohort per
// spec under "cohort" — which is what the equivalence tests rely on.
type Population struct {
	Servers [][]CohortSpec `json:"servers"`
}

// maxPopulationUsers bounds the total user count a spec may declare, keeping
// downstream int arithmetic (weighted counters, largest-remainder rounding)
// far from overflow even when several counters are summed.
const maxPopulationUsers = 1 << 40

// Validate checks structural soundness: at least one server, every cohort
// with a positive count and non-negative offset/period, and a bounded total.
func (p *Population) Validate() error {
	if p == nil {
		return fmt.Errorf("workload: nil population")
	}
	if len(p.Servers) == 0 {
		return fmt.Errorf("workload: population has no servers")
	}
	total := 0
	for si, cohorts := range p.Servers {
		for ci, c := range cohorts {
			if c.Count <= 0 {
				return fmt.Errorf("workload: server %d cohort %d has non-positive count %d", si, ci, c.Count)
			}
			if c.OffsetNS < 0 {
				return fmt.Errorf("workload: server %d cohort %d has negative offset %d", si, ci, c.OffsetNS)
			}
			if c.PeriodNS < 0 {
				return fmt.Errorf("workload: server %d cohort %d has negative period %d", si, ci, c.PeriodNS)
			}
			total += c.Count
			if total > maxPopulationUsers {
				return fmt.Errorf("workload: population exceeds %d users", maxPopulationUsers)
			}
		}
	}
	return nil
}

// TotalUsers sums the cohort counts across all servers.
func (p *Population) TotalUsers() int {
	total := 0
	for _, cohorts := range p.Servers {
		for _, c := range cohorts {
			total += c.Count
		}
	}
	return total
}

// NumCohorts counts the cohorts across all servers.
func (p *Population) NumCohorts() int {
	n := 0
	for _, cohorts := range p.Servers {
		n += len(cohorts)
	}
	return n
}

// Marshal serializes the population as indented JSON, the inverse of
// ParsePopulation: Parse(Marshal(p)) reproduces p exactly.
func (p *Population) Marshal() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// ParsePopulation parses and validates a JSON population spec. Parsing is
// strict: unknown fields, malformed values, trailing data, and structurally
// invalid populations are all errors, never panics — the parser is fuzzed on
// that contract.
func ParsePopulation(data []byte) (*Population, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Population
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("workload: parse population: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("workload: parse population: trailing data after spec")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// PopulationConfig parameterizes GeneratePopulation.
type PopulationConfig struct {
	// Servers is the number of content servers; required.
	Servers int
	// TotalUsers is the population size to distribute; required.
	TotalUsers int
	// Alpha is the Pareto tail index of the per-server weight draw; real
	// edge populations are heavy-tailed (anycast CDN measurements), and
	// smaller Alpha means heavier tails. Alpha <= 0 distributes uniformly.
	Alpha float64
	// CohortsPerServer splits each server's users into this many phase
	// cohorts (fewer when the server has fewer users); default 8.
	CohortsPerServer int
	// Period is the per-cohort visit period; 0 leaves the cohorts on the
	// simulation's configured end-user TTL.
	Period time.Duration
	// SpreadMax bounds the random cohort start offsets, mirroring the
	// paper's [0s, 50s] user-start window; default 50 s.
	SpreadMax time.Duration
	// Seed makes the draw deterministic.
	Seed int64
}

// GeneratePopulation draws a heavy-tailed population: per-server user counts
// follow a Pareto weight draw normalized to TotalUsers by largest-remainder
// rounding (so the counts sum to TotalUsers exactly), and each server's users
// are split into phase cohorts with uniform-random start offsets. The same
// config always yields the same population.
func GeneratePopulation(cfg PopulationConfig) (*Population, error) {
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("workload: population needs Servers > 0, got %d", cfg.Servers)
	}
	if cfg.TotalUsers < 0 {
		return nil, fmt.Errorf("workload: negative TotalUsers %d", cfg.TotalUsers)
	}
	if cfg.TotalUsers > maxPopulationUsers {
		return nil, fmt.Errorf("workload: TotalUsers %d exceeds %d", cfg.TotalUsers, maxPopulationUsers)
	}
	if cfg.CohortsPerServer <= 0 {
		cfg.CohortsPerServer = 8
	}
	if cfg.SpreadMax <= 0 {
		cfg.SpreadMax = 50 * time.Second
	}
	if cfg.Period < 0 {
		return nil, fmt.Errorf("workload: negative Period %v", cfg.Period)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	counts := heavyTailedCounts(rng, cfg.Servers, cfg.TotalUsers, cfg.Alpha)

	p := &Population{Servers: make([][]CohortSpec, cfg.Servers)}
	for si, count := range counts {
		k := cfg.CohortsPerServer
		if k > count {
			k = count
		}
		cohorts := make([]CohortSpec, 0, k)
		for j := 0; j < k; j++ {
			// Split count into k near-equal cohorts (first count%k get one
			// extra), each at an independent uniform start offset.
			c := count / k
			if j < count%k {
				c++
			}
			cohorts = append(cohorts, CohortSpec{
				Count:    c,
				OffsetNS: rng.Int63n(int64(cfg.SpreadMax)),
				PeriodNS: int64(cfg.Period),
			})
		}
		p.Servers[si] = cohorts
	}
	return p, nil
}

// heavyTailedCounts distributes total users over n servers proportionally to
// Pareto(alpha) weights (uniform when alpha <= 0), rounding by largest
// remainder so the result sums to total exactly.
func heavyTailedCounts(rng *rand.Rand, n, total int, alpha float64) []int {
	weights := make([]float64, n)
	for i := range weights {
		w := 1.0
		if alpha > 0 {
			// Inverse-CDF Pareto draw with xm = 1; capped so one pathological
			// draw cannot swallow float precision for everyone else.
			u := rng.Float64()
			w = math.Pow(1-u, -1/alpha)
			if w > 1e9 {
				w = 1e9
			}
		}
		weights[i] = w
	}
	// The weights are positive by construction, so ExactCounts cannot fail.
	counts, _ := ExactCounts(weights, total)
	return counts
}

// ExactCounts distributes total units over len(weights) buckets
// proportionally to the weights, rounding by largest remainder so the
// result sums to total exactly — the apportionment primitive behind both
// the heavy-tailed population generator and trace-import workload
// inference. Ties break toward the lower index, so the result is a pure
// function of its inputs. Weights must be non-negative with a positive sum.
func ExactCounts(weights []float64, total int) ([]int, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("workload: ExactCounts with no weights")
	}
	if total < 0 {
		return nil, fmt.Errorf("workload: ExactCounts with negative total %d", total)
	}
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("workload: ExactCounts weight %d is %v", i, w)
		}
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("workload: ExactCounts weights sum to %v", sum)
	}
	counts := make([]int, n)
	type frac struct {
		idx int
		rem float64
	}
	rems := make([]frac, n)
	assigned := 0
	for i, w := range weights {
		exact := float64(total) * w / sum
		counts[i] = int(exact)
		rems[i] = frac{idx: i, rem: exact - float64(counts[i])}
		assigned += counts[i]
	}
	// Hand the leftover units to the largest fractional parts (ties broken
	// by lower index, keeping the draw fully deterministic).
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].rem != rems[b].rem {
			return rems[a].rem > rems[b].rem
		}
		return rems[a].idx < rems[b].idx
	})
	for i := 0; i < total-assigned; i++ {
		counts[rems[i%n].idx]++
	}
	return counts, nil
}
