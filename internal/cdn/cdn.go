// Package cdn runs the paper's trace-driven evaluation (Sections 4 and 5):
// a discrete-event simulation of a provider, content servers, and end-users
// exercising one update method (TTL, Push, Invalidation, Self-adaptive,
// AdaptiveTTL) over one infrastructure (unicast star, proximity-aware
// multicast tree, or the hybrid supernode overlay), with the netmodel
// accounting traffic the way the paper reports it.
package cdn

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/federation"
	"cdnconsistency/internal/netmodel"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	Method consistency.Method
	Infra  consistency.Infra

	// TreeDegree is the multicast tree arity (the paper uses 2 in
	// Section 4); SupernodeDegree the hybrid supernode tree arity (4 in
	// Section 5); Clusters the hybrid cluster count (20 in Section 5.3).
	TreeDegree      int
	SupernodeDegree int
	Clusters        int

	// Topology sizes the CDN (ignored if Topo is set).
	Topology topology.Config
	// Topo optionally supplies a prebuilt topology shared across runs. A
	// run with a prebuilt topology has no Key.
	Topo *topology.Topology `json:"-"`

	// ServerTTL is the content servers' poll period (60 s in the paper);
	// UserTTL the end-users' visit period (10 s).
	ServerTTL time.Duration
	UserTTL   time.Duration

	// UpdateSizeKB is the update payload (1 KB in Section 4, swept to
	// 500 KB in Figure 19).
	UpdateSizeKB float64

	// Updates is the publication schedule (defaults to a DefaultGame
	// draw), offset by startDelay.
	Updates []workload.Update

	// HorizonSlack extends the simulation beyond the last update so
	// in-flight catch-ups complete.
	HorizonSlack time.Duration

	// UserSwitchEveryVisit makes each visit hit a uniformly random server
	// (the Figure 24 scenario).
	UserSwitchEveryVisit bool

	// UserModel selects how the end-user population is cut into cohorts,
	// the one user model (a cohort's visit is an engine event only while it
	// can act; see internal/cdn/cohort_fold.go). UserModelExplicit, the
	// default, gives every user a cohort of its own, the paper's Section 4
	// setup, and reports one UserAvgInconsistency entry per user.
	// UserModelCohort gives each Population cohort spec one weighted cohort,
	// so memory scales with cohorts, not users, and reports one entry per
	// stratum with UserWeights. The cohort model requires Population, and
	// runs UserSwitchEveryVisit only over one-member cohorts, whose visits
	// can each draw their own server.
	UserModel string

	// Population optionally pins the user population to weighted per-server
	// cohorts (counts, start offsets, periods; see workload.Population).
	// Under the explicit model each spec becomes Count one-member cohorts
	// with the spec's offset and period; under the cohort model it is one
	// weighted cohort. Neither draws engine randomness for user scheduling,
	// so both models run the same server-side event stream over one
	// Population. Nil keeps the topology's per-server users at random start
	// offsets (the paper setup).
	Population *workload.Population

	// AccountVisits books every end-user request as a zero-distance
	// content-class message against the serving server in the traffic
	// ledger (in bulk for a cohort's parked visits). Off by default:
	// the paper's traffic figures count only update and control traffic.
	AccountVisits bool

	// ResolverTTL > 0 routes each visit through a modeled local DNS
	// resolver (Figure 1): the resolver caches the server assignment for
	// ResolverTTL, and expired entries re-resolve at the authoritative
	// DNS, which picks among the nearest servers with load balancing —
	// the redirection mechanism behind user-observed inconsistency
	// (Section 3.3). Zero routes without DNS. Mutually exclusive with
	// UserSwitchEveryVisit.
	ResolverTTL time.Duration

	// RepairTree re-attaches a crashed node's orphaned children to the
	// nearest live node (multicast only). Without it the failed node's
	// subtree stops receiving pushed updates — the paper's criticism that
	// node failures break multicast-tree connectivity (Section 1). It also
	// governs whether crash-recovered servers re-join the multicast tree via
	// Reattach. Crashes themselves come from Faults.
	RepairTree bool

	// Federation optionally runs the simulation against a multi-CDN
	// federation (see internal/federation): N provider origins with distinct
	// TTLs and propagation delays, anycast nearest-provider homing,
	// inter-CDN peering hand-off when a home provider is down, an optional
	// meta-CDN broker that durably re-homes servers with hysteresis, and
	// graceful serve-stale degradation (bounded by StaleCap) when every
	// provider is unreachable. Serial-only, and incompatible with the
	// provider-direct methods (Lease, Regime) and InfraBroadcast. Nil runs
	// the classic single origin: the one-provider case of the same origin
	// code, on node 0's endpoint, with no propagation lag and ServerTTL.
	Federation *federation.Spec

	// Faults optionally injects a declarative fault scenario — crash-stop,
	// crash-recovery with state loss, provider outage windows, ISP-level
	// partitions, transient overload, regional failures — compiled
	// deterministically against this run's topology (see internal/fault).
	// The compile uses a dedicated RNG stream derived from Seed, so runs
	// with and without faults share topology and user schedules.
	Faults *fault.Spec
	// Failover enables failure-aware protocol reactions: poll/fetch
	// timeouts trigger bounded retries with exponential backoff, servers
	// orphaned by a dead relay reparent to the nearest live node, users
	// re-resolve (DNS) or re-home to the nearest live server after failed
	// visits, subscribed nodes fall back to TTL polling during provider
	// outages, and recovering servers retry their re-sync until caught up.
	// Off by default: protocols ride out faults exactly as before.
	Failover bool

	// Audit, when set, enables the runtime invariant auditor (see
	// AuditOptions): conservation properties are verified at cadence during
	// the run and after every failover tree mutation, and the first
	// violation aborts the run as its error. The auditor observes state
	// without mutating it or drawing randomness, so all reported metrics
	// are identical with auditing on or off. In a serial run sweeps are
	// engine events (Result.Events grows by the sweep count); in a sharded
	// run sweeps execute at window barriers instead, so even Result.Events
	// is unchanged.
	Audit *AuditOptions

	// Ctx, when set, is polled at a fixed event stride inside the event
	// loop; cancelling it aborts the run promptly with the context's error.
	// Nil means the run cannot be cancelled.
	Ctx context.Context `json:"-"`

	// Sharded runs the sharded engine instead of the serial one: the
	// server topology is partitioned into a fixed number of cells (see
	// sharded.go), each with its own event heap and RNG stream,
	// synchronized by a conservative time-window barrier and run on one
	// goroutine. A sharded run is a different simulation than a serial run
	// of the same seed (cells draw independent RNG streams), and a few
	// inherently global features are unavailable: DNS routing,
	// UserSwitchEveryVisit, Federation, and multicast tree mutation
	// (Failover/RepairTree under InfraMulticast). The runtime auditor
	// composes: its sweeps run at window barriers (see AuditOptions).
	Sharded bool

	Net  netmodel.Config
	Seed int64
}

// Section 4 defaults for the run parameters a Config leaves zero.
const (
	DefaultServerTTL    = 60 * time.Second
	DefaultUserTTL      = 10 * time.Second
	DefaultUpdateSizeKB = 1
	DefaultClusters     = 20
)

// Fixed run parameters of the paper's Section 4 setup.
const (
	lightSizeKB   = 1                // control-message size
	startDelay    = 60 * time.Second // offset of the first publication
	userStartMax  = 50 * time.Second // bound on the random user start offsets
	leaseDuration = 60 * time.Second // cooperative-lease lifetime (MethodLease)
)

// Validate checks the configuration's field rules — valid method and
// infrastructure pairings, the user-model, federation and sharding
// exclusions, the population, federation, fault and audit specs, and
// non-negative counts — without materializing anything. Run applies it
// before defaulting, so a configuration that passes Validate fails only on
// inputs built at run time (topology, schedule, population fit).
func (c Config) Validate() error {
	if !c.Method.Valid() {
		return fmt.Errorf("cdn: invalid method %v", c.Method)
	}
	if !c.Infra.Valid() {
		return fmt.Errorf("cdn: invalid infra %v", c.Infra)
	}
	for _, f := range []struct {
		name string
		n    int
	}{
		{"servers", c.Topology.Servers}, {"users per server", c.Topology.UsersPerServer},
		{"clusters", c.Clusters}, {"tree degree", c.TreeDegree},
		{"supernode degree", c.SupernodeDegree},
	} {
		if f.n < 0 {
			return fmt.Errorf("cdn: negative %s %d", f.name, f.n)
		}
	}
	for _, f := range []struct {
		name string
		d    time.Duration
	}{
		{"server TTL", c.ServerTTL}, {"user TTL", c.UserTTL},
	} {
		if f.d < 0 {
			return fmt.Errorf("cdn: negative %s %v", f.name, f.d)
		}
	}
	if c.UpdateSizeKB < 0 {
		return fmt.Errorf("cdn: negative update size %v KB", c.UpdateSizeKB)
	}
	if math.IsNaN(c.UpdateSizeKB) || math.IsInf(c.UpdateSizeKB, 0) {
		return fmt.Errorf("cdn: update size %v KB is not finite", c.UpdateSizeKB)
	}
	if c.Method == consistency.MethodLease && c.Infra != consistency.InfraUnicast {
		return fmt.Errorf("cdn: MethodLease requires InfraUnicast (leaseholders are provider-direct)")
	}
	if c.Method == consistency.MethodRegime && c.Infra != consistency.InfraUnicast {
		return fmt.Errorf("cdn: MethodRegime requires InfraUnicast (regimes register provider-direct)")
	}
	if c.Infra == consistency.InfraBroadcast && c.Method != consistency.MethodPush {
		return fmt.Errorf("cdn: InfraBroadcast supports only MethodPush (flooding-based push)")
	}
	if c.ResolverTTL < 0 {
		return fmt.Errorf("cdn: negative ResolverTTL %v", c.ResolverTTL)
	}
	if c.ResolverTTL > 0 && c.UserSwitchEveryVisit {
		return fmt.Errorf("cdn: DNS routing (ResolverTTL > 0) and UserSwitchEveryVisit are mutually exclusive")
	}
	switch c.UserModel {
	case "", UserModelExplicit:
	case UserModelCohort:
		if c.Population == nil {
			return fmt.Errorf("cdn: UserModelCohort requires a Population")
		}
		// A weighted cohort's members would each route on their own.
		if c.UserSwitchEveryVisit {
			for si, specs := range c.Population.Servers {
				for ci, spec := range specs {
					if spec.Count > 1 {
						return fmt.Errorf("cdn: UserModelCohort switches servers per visit (UserSwitchEveryVisit) only for one-member cohorts; server %d cohort %d holds %d users", si, ci, spec.Count)
					}
				}
			}
		}
	default:
		return fmt.Errorf("cdn: unknown user model %q (want %q or %q)", c.UserModel, UserModelExplicit, UserModelCohort)
	}
	if c.Population != nil {
		if err := c.Population.Validate(); err != nil {
			return fmt.Errorf("cdn: %w", err)
		}
		if c.ResolverTTL > 0 {
			return fmt.Errorf("cdn: Population pins users to servers; incompatible with DNS routing (ResolverTTL > 0)")
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("cdn: %w", err)
		}
	}
	if c.Federation != nil {
		if err := c.Federation.Validate(); err != nil {
			return fmt.Errorf("cdn: %w", err)
		}
		if c.Sharded {
			return fmt.Errorf("cdn: sharded runs cannot use Federation (provider selection and degradation are global state; federate a serial run)")
		}
		if c.Method == consistency.MethodLease {
			return fmt.Errorf("cdn: Federation is incompatible with MethodLease (leaseholders are provider-direct)")
		}
		if c.Method == consistency.MethodRegime {
			return fmt.Errorf("cdn: Federation is incompatible with MethodRegime (regimes register provider-direct)")
		}
		if c.Infra == consistency.InfraBroadcast {
			return fmt.Errorf("cdn: Federation is incompatible with InfraBroadcast (flooding has no origin to federate)")
		}
	}
	if c.Sharded {
		if c.ResolverTTL > 0 {
			return fmt.Errorf("cdn: sharded runs cannot use DNS routing (ResolverTTL > 0; the authoritative DNS is global state)")
		}
		if c.UserSwitchEveryVisit {
			return fmt.Errorf("cdn: sharded runs cannot use UserSwitchEveryVisit (visits would cross cells)")
		}
		if c.Infra == consistency.InfraMulticast && (c.Failover || c.RepairTree) {
			return fmt.Errorf("cdn: sharded runs cannot mutate the multicast tree (Failover/RepairTree); the partition is static")
		}
	}
	if c.Audit != nil {
		if c.Audit.Cadence < 0 {
			return fmt.Errorf("cdn: negative audit cadence %v", c.Audit.Cadence)
		}
		if !ValidAuditSelfTest(c.Audit.SelfTest) {
			return fmt.Errorf("cdn: unknown audit self-test %q (valid: %s)",
				c.Audit.SelfTest, strings.Join(AuditSelfTestNames(), ", "))
		}
	}
	return nil
}

func (c Config) withDefaults() (Config, error) {
	if err := c.Validate(); err != nil {
		return c, err
	}
	if c.TreeDegree == 0 {
		c.TreeDegree = 2
	}
	if c.SupernodeDegree == 0 {
		c.SupernodeDegree = 4
	}
	if c.Clusters == 0 {
		c.Clusters = DefaultClusters
	}
	if c.ServerTTL == 0 {
		c.ServerTTL = DefaultServerTTL
	}
	if c.UserTTL == 0 {
		c.UserTTL = DefaultUserTTL
	}
	if c.UpdateSizeKB == 0 {
		c.UpdateSizeKB = DefaultUpdateSizeKB
	}
	if c.HorizonSlack <= 0 {
		c.HorizonSlack = 5 * time.Minute
	}
	if c.UserModel == "" {
		c.UserModel = UserModelExplicit
	}
	if len(c.Updates) == 0 {
		updates, err := workload.Schedule(workload.DefaultGame(), c.Seed)
		if err != nil {
			return c, fmt.Errorf("cdn: default schedule: %w", err)
		}
		c.Updates = updates
	}
	for i := 1; i < len(c.Updates); i++ {
		if c.Updates[i].At < c.Updates[i-1].At {
			return c, fmt.Errorf("cdn: updates not time-ordered at %d", i)
		}
	}
	return c, nil
}

// Key identifies the run c describes: two configs with equal keys simulate
// the same run and return identical Results. It is built from the defaulted
// config, so an unset field and its explicit default agree, and it leaves
// out what cannot change a Result: Ctx. A config with a prebuilt
// Topo has no key (the topology's JSON form drops its tables), nor has one
// that fails Validate.
func (c Config) Key() (string, error) {
	if c.Topo != nil {
		return "", fmt.Errorf("cdn: a run with a prebuilt topology has no key")
	}
	d, err := c.withDefaults()
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(d)
	if err != nil {
		return "", fmt.Errorf("cdn: key: %w", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

// Result aggregates one run's outcomes.
type Result struct {
	// ServerAvgInconsistency is each server's mean catch-up delay in
	// seconds (Figures 14(a), 15(a), 19, 20).
	ServerAvgInconsistency []float64
	// UserAvgInconsistency is each user's mean catch-up delay in seconds
	// (Figures 14(b), 15(b)), in population order. Under the cohort model
	// each entry is one stratum of identical users; see UserWeights.
	UserAvgInconsistency []float64
	// UserWeights gives the user count behind each UserAvgInconsistency
	// entry under the cohort model (so a million-user run does not
	// materialize a million entries). Nil under the explicit model, whose
	// cohorts have one member each: every entry is one user.
	UserWeights []int
	// Accounting is the traffic breakdown (Figures 16, 17, 18(b), 23).
	Accounting netmodel.Accounting
	// UpdateMsgsToServers counts update-class messages delivered to
	// content servers (Figure 22(a)); UpdateMsgsFromProvider those sent
	// by the provider itself (Figure 22(b)).
	UpdateMsgsToServers    int
	UpdateMsgsFromProvider int
	// LightMsgs counts control messages (polls, invalidations, switch
	// notifications).
	LightMsgs int
	// UserObservations / UserInconsistentObservations feed the Figure 24
	// metric (observations older than the user's newest-seen content).
	UserObservations             int
	UserInconsistentObservations int
	// TreeDepth is the deepest server in the update infrastructure.
	TreeDepth int
	// Supernodes is the supernode count (hybrid only).
	Supernodes int
	// Events is the number of simulation events processed.
	Events uint64
	// FailedServers is how many servers were crash-stopped.
	FailedServers int
	// LiveServersAtFinalVersion counts live servers holding the last
	// published snapshot when the run ends — the connectivity measure the
	// tree-failure ablation reports.
	LiveServersAtFinalVersion int
	// LiveServers is the number of servers still alive at the end.
	LiveServers int
	// DNSRedirects counts visits whose resolver answer switched servers.
	DNSRedirects int
	// DNSVisits counts visits routed through DNS.
	DNSVisits int

	// Crashes counts server crash events (a crash-recovering server can
	// crash more than once); FailedServers above counts servers still down
	// at the end of the run.
	Crashes int
	// Recoveries counts crash-recoveries that re-synced to the provider
	// version observed at recovery time; RecoverySeconds holds each such
	// recovery's downtime-to-resync duration.
	Recoveries      int
	RecoverySeconds []float64
	// FailedVisits counts user requests that hit a down server;
	// UserFailovers counts the re-resolutions/re-homings that followed
	// (Failover only).
	FailedVisits  int
	UserFailovers int
	// ServerReparents counts detection-triggered tree repairs: a poller
	// that exhausted its retries against a dead relay parent and moved its
	// orphan group to the nearest live node (Failover only).
	ServerReparents int
	// TTLFallbacks counts subscribed (push/invalidation-regime or
	// self-adaptive) servers that reverted to TTL polling during a
	// provider outage (Failover only).
	TTLFallbacks int
	// StaleObservations counts user observations older than the newest
	// published snapshot at observation time — the stale-serve metric the
	// fault figures report.
	StaleObservations int

	// Federation outcomes (all zero when Config.Federation is nil).
	//
	// DegradedSeconds sums every server's serve-stale degradation intervals:
	// time spent serving cached content after an origin contact found all
	// providers down, until the first successful contact (or the horizon).
	// DegradedEnters/DegradedExits count the interval endpoints.
	DegradedSeconds float64
	DegradedEnters  int
	DegradedExits   int
	// ProviderSwitches counts durable home-provider changes (broker
	// decisions and retry-exhaustion failovers); PeerHandoffs counts
	// transient inter-CDN peering answers while a home provider was down.
	ProviderSwitches int
	PeerHandoffs     int
	// StrandedUsers counts users whose final visit of the run failed — the
	// all-providers-down acceptance metric: with unlimited serve-stale it
	// must be zero.
	StrandedUsers int

	// AuditChecks counts the invariant-auditor passes that ran (cadence
	// sweeps, post-mutation tree checks, and the final sweep); zero when
	// auditing was off. A nonzero count with a nil run error is the
	// "audited clean" certificate.
	AuditChecks int
}

// MeanServerInconsistency averages the per-server means.
func (r *Result) MeanServerInconsistency() float64 { return mean(r.ServerAvgInconsistency) }

// MeanUserInconsistency averages the per-user means, weighting each entry by
// the user count behind it (one, unless UserWeights says otherwise).
func (r *Result) MeanUserInconsistency() float64 {
	if r.UserWeights == nil {
		return mean(r.UserAvgInconsistency)
	}
	var sum, n float64
	for i, x := range r.UserAvgInconsistency {
		w := 1.0
		if i < len(r.UserWeights) {
			w = float64(r.UserWeights[i])
		}
		sum += x * w
		n += w
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// InconsistentObservationFrac is the Figure 24 metric.
func (r *Result) InconsistentObservationFrac() float64 {
	if r.UserObservations == 0 {
		return 0
	}
	return float64(r.UserInconsistentObservations) / float64(r.UserObservations)
}

// StaleServeFrac is the share of user observations that served content older
// than the newest published snapshot.
func (r *Result) StaleServeFrac() float64 {
	if r.UserObservations == 0 {
		return 0
	}
	return float64(r.StaleObservations) / float64(r.UserObservations)
}

// FailedVisitFrac is the share of visits that hit a down server. Failed
// visits are not observations, so the denominator adds them back.
func (r *Result) FailedVisitFrac() float64 {
	total := r.UserObservations + r.FailedVisits
	if total == 0 {
		return 0
	}
	return float64(r.FailedVisits) / float64(total)
}

// MeanRecoverySeconds averages the crash-recovery re-sync times.
func (r *Result) MeanRecoverySeconds() float64 { return mean(r.RecoverySeconds) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Run executes one simulation.
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s, err := newSimulation(cfg)
	if err != nil {
		return nil, err
	}
	return s.run()
}
