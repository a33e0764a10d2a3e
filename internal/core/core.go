// Package core is the library facade: it names the consistency-maintenance
// systems the paper compares (Section 5.3), provides a functional-options
// runner over the cdn simulation, and packages the paper's proposal — HAT,
// the Hybrid and self-AdapTive update system (Section 5) — as a first-class
// configuration.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/federation"
	"cdnconsistency/internal/netmodel"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/workload"
)

// System is one consistency-maintenance system under test: an update method
// on an update infrastructure.
type System struct {
	// Name is the label the paper's figures use.
	Name   string
	Method consistency.Method
	Infra  consistency.Infra
}

// The six systems of the paper's Section 5.3 comparison.
var (
	// SystemPush pushes every update over unicast.
	SystemPush = System{Name: "Push", Method: consistency.MethodPush, Infra: consistency.InfraUnicast}
	// SystemInvalidation invalidates over unicast, fetch on visit.
	SystemInvalidation = System{Name: "Invalidation", Method: consistency.MethodInvalidation, Infra: consistency.InfraUnicast}
	// SystemTTL polls the provider over unicast (what the measured CDN does).
	SystemTTL = System{Name: "TTL", Method: consistency.MethodTTL, Infra: consistency.InfraUnicast}
	// SystemSelf is the self-adaptive method (Algorithm 1) over unicast.
	SystemSelf = System{Name: "Self", Method: consistency.MethodSelfAdaptive, Infra: consistency.InfraUnicast}
	// SystemHybrid is the hybrid infrastructure with plain TTL inside
	// clusters.
	SystemHybrid = System{Name: "Hybrid", Method: consistency.MethodTTL, Infra: consistency.InfraHybrid}
	// SystemHAT is the paper's proposal: hybrid infrastructure plus the
	// self-adaptive method inside clusters.
	SystemHAT = System{Name: "HAT", Method: consistency.MethodSelfAdaptive, Infra: consistency.InfraHybrid}
)

// Systems returns the Section 5.3 comparison set in the paper's order.
func Systems() []System {
	return []System{SystemPush, SystemInvalidation, SystemTTL, SystemSelf, SystemHybrid, SystemHAT}
}

// SystemByName resolves a figure label ("Push", "HAT", ...).
func SystemByName(name string) (System, error) {
	for _, s := range Systems() {
		if s.Name == name {
			return s, nil
		}
	}
	return System{}, fmt.Errorf("core: unknown system %q", name)
}

// ParseSystem resolves a named system ("HAT") or an explicit "Method/Infra"
// pair ("TTL/Multicast", named after the pair). Method and infrastructure
// names are their String() forms.
func ParseSystem(name string) (System, error) {
	if sys, err := SystemByName(name); err == nil {
		return sys, nil
	}
	method, infra, ok := strings.Cut(name, "/")
	if !ok {
		return System{}, fmt.Errorf("core: unknown system %q (want a named system or \"Method/Infra\")", name)
	}
	sys := System{Name: name}
	for m := consistency.MethodTTL; m.Valid(); m++ {
		if m.String() == method {
			sys.Method = m
		}
	}
	if !sys.Method.Valid() {
		return System{}, fmt.Errorf("core: unknown method %q", method)
	}
	for i := consistency.InfraUnicast; i.Valid(); i++ {
		if i.String() == infra {
			sys.Infra = i
		}
	}
	if !sys.Infra.Valid() {
		return System{}, fmt.Errorf("core: unknown infra %q", infra)
	}
	return sys, nil
}

// Option customizes an experiment run.
type Option func(*config)

// config is the run configuration the options build, plus the first error an
// option hit: an option that cannot apply fails the run rather than leaving
// the default it was meant to replace in place.
type config struct {
	cdn.Config
	err error
	// game is the game WithGame named, drawn by configure once every
	// option has applied, so the draw uses the run's final seed.
	game *workload.GameConfig
}

// WithServers sets the content-server count (paper Section 4: 170).
func WithServers(n int) Option {
	return func(c *config) { c.Topology.Servers = n }
}

// WithUsersPerServer sets the simulated end-users per server (paper: 5).
func WithUsersPerServer(n int) Option {
	return func(c *config) { c.Topology.UsersPerServer = n }
}

// WithServerTTL sets the content servers' poll period.
func WithServerTTL(d time.Duration) Option {
	return func(c *config) { c.ServerTTL = d }
}

// WithUserTTL sets the end-users' visit period.
func WithUserTTL(d time.Duration) Option {
	return func(c *config) { c.UserTTL = d }
}

// WithUpdateSizeKB sets the update payload size.
func WithUpdateSizeKB(kb float64) Option {
	return func(c *config) { c.UpdateSizeKB = kb }
}

// WithUpdates replaces the publication schedule.
func WithUpdates(updates []workload.Update) Option {
	return func(c *config) {
		c.Updates = updates
		c.game = nil
	}
}

// WithGame draws the publication schedule from a game config with the
// run's final seed, wherever WithSeed sits among the options. Of WithGame
// and WithUpdates, the later one wins. A game that cannot be drawn,
// or whose draw publishes nothing (no phases, or only silent breaks), fails
// the run: an empty schedule would otherwise fall back to the paper's
// default day.
func WithGame(game workload.GameConfig) Option {
	return func(c *config) { c.game = &game }
}

// drawGame draws c's game, if one was named, into its schedule with c's
// final seed.
func (c *config) drawGame() {
	if c.game == nil {
		return
	}
	updates, err := workload.Schedule(*c.game, c.Seed)
	if err == nil && len(updates) == 0 {
		err = errors.New("draws no updates")
	}
	if err != nil {
		if c.err == nil {
			c.err = fmt.Errorf("game %s: %w", gameName(*c.game), err)
		}
		return
	}
	c.Updates = updates
}

// gameName names a game by its phases, e.g. "[half1 break half2]".
func gameName(game workload.GameConfig) string {
	names := make([]string, len(game.Phases))
	for i, p := range game.Phases {
		names[i] = p.Name
	}
	return "[" + strings.Join(names, " ") + "]"
}

// WithSeed sets the deterministic seed.
func WithSeed(seed int64) Option {
	return func(c *config) {
		c.Seed = seed
		c.Topology.Seed = seed
	}
}

// WithClusters sets the hybrid cluster count (paper: 20).
func WithClusters(n int) Option {
	return func(c *config) { c.Clusters = n }
}

// WithTreeDegree sets the multicast arity (paper: 2).
func WithTreeDegree(d int) Option {
	return func(c *config) { c.TreeDegree = d }
}

// WithSupernodeDegree sets the hybrid supernode tree arity (paper: 4).
func WithSupernodeDegree(d int) Option {
	return func(c *config) { c.SupernodeDegree = d }
}

// WithNetConfig overrides the network model.
func WithNetConfig(nc netmodel.Config) Option {
	return func(c *config) { c.Net = nc }
}

// WithUserSwitching makes every visit hit a random server (Figure 24).
func WithUserSwitching() Option {
	return func(c *config) { c.UserSwitchEveryVisit = true }
}

// WithUserModel selects how the end-user population is cut into cohorts,
// whose visits are engine events only while they can act:
// cdn.UserModelExplicit (one cohort and one result entry per user, the
// default) or cdn.UserModelCohort (one weighted cohort per population spec
// with exact aggregate accounting; requires WithPopulation).
func WithUserModel(model string) Option {
	return func(c *config) { c.UserModel = model }
}

// WithPopulation pins the user population to weighted per-server cohorts
// (counts, start offsets, periods). Both user models honor it: explicit
// splits each spec into one-member cohorts, cohort keeps it whole.
func WithPopulation(p *workload.Population) Option {
	return func(c *config) { c.Population = p }
}

// WithVisitAccounting books every end-user request into the traffic ledger
// as a zero-distance content-class message (in bulk for parked visits).
func WithVisitAccounting() Option {
	return func(c *config) { c.AccountVisits = true }
}

// WithTopology supplies a prebuilt topology shared across runs, keeping the
// comparison matrix apples-to-apples.
func WithTopology(t *topology.Topology) Option {
	return func(c *config) { c.Topo = t }
}

// WithDNSRouting routes visits through the modeled DNS plane (local
// resolver caches + authoritative nearest-k load balancing) with the given
// resolver cache TTL; a TTL of zero routes without DNS.
func WithDNSRouting(resolverTTL time.Duration) Option {
	return func(c *config) { c.ResolverTTL = resolverTTL }
}

// WithTreeRepair makes the multicast tree re-attach the subtrees orphaned
// by a crashed relay to the nearest live node (the oracle repair; crashes
// come from WithFaults). Without it a dead relay strands its subtree.
func WithTreeRepair() Option {
	return func(c *config) { c.RepairTree = true }
}

// WithFaults injects a declarative fault scenario (crash-stop,
// crash-recovery, provider outages, ISP partitions, overload, regional
// failures) compiled deterministically against the run's topology. See
// internal/fault for the spec language and fault.Scenario for the built-in
// named scenarios.
func WithFaults(spec fault.Spec) Option {
	return func(c *config) {
		s := spec
		c.Faults = &s
	}
}

// WithFederation runs the simulation against a multi-CDN federation: N
// provider origins with distinct TTLs and propagation delays, anycast
// nearest-provider homing, inter-CDN peering hand-off while a home provider
// is down, an optional meta-CDN broker with hysteresis and dwell, and
// graceful serve-stale degradation when every provider is unreachable. See
// internal/federation for the spec language; serial-only.
func WithFederation(spec federation.Spec) Option {
	return func(c *config) {
		s := spec
		c.Federation = &s
	}
}

// WithFailover enables failure-aware protocol reactions: timeout-driven
// dead-parent detection with bounded backoff, orphan reparenting, user
// re-resolution/re-homing after failed visits, TTL fallback during provider
// outages, and persistent re-sync of crash-recovered servers.
func WithFailover() Option {
	return func(c *config) { c.Failover = true }
}

// WithContext makes the run cancellable: the event loop polls ctx at a fixed
// stride and aborts promptly with the context's error once cancelled.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.Ctx = ctx }
}

// WithAudit enables the runtime invariant auditor at the given sweep cadence
// (0 selects the default). The first violated conservation property aborts
// the run as its error; metrics are unchanged by auditing. Composes with
// WithShards: a sharded run sweeps at its window barriers, which skip
// cadence instants in a sparse run, so there the cadence is only a lower
// bound on the gap between sweeps (see cdn.AuditOptions.Cadence).
func WithAudit(cadence time.Duration) Option {
	return func(c *config) { c.Audit = &cdn.AuditOptions{Cadence: cadence} }
}

// WithAuditSelfTest arms a named deliberate corruption (after WithAudit) so a
// run proves the auditor tripwire fires end-to-end; the run must then fail
// with the matching property. Valid names: cdn.AuditSelfTestNames.
func WithAuditSelfTest(name string) Option {
	return func(c *config) {
		if c.Audit == nil {
			c.Audit = &cdn.AuditOptions{}
		}
		c.Audit.SelfTest = name
	}
}

// WithShards runs the simulation on the sharded engine when n >= 1: a fixed
// eight-cell partition of the server topology, one event heap per cell,
// under conservative time-window synchronization (see internal/sim.Sharded),
// all on one goroutine. Every n >= 1 runs the same simulation; n <= 0 keeps
// the serial engine. It is not a CLI, plan or figure setting: it exists for
// perfbench's update-storm workload.
// Serial-only options (DNS routing, per-visit switching, federation,
// multicast repair) are rejected under sharding; the runtime auditor
// composes (its sweeps run at window barriers).
func WithShards(n int) Option {
	return func(c *config) { c.Sharded = n >= 1 }
}

// The paper's Section 4 topology: 170 content servers with 5 end-users
// each. Runs that set no topology use it.
const (
	DefaultServers        = 170
	DefaultUsersPerServer = 5
)

// configure mirrors the paper's Section 4 setup — DefaultServers servers,
// DefaultUsersPerServer users each, provider in Atlanta, 1 KB packets,
// end-users polling every 10 s — and applies opts over it. It fails with
// the first option that could not apply. A game is drawn last, with the
// seed every option has settled.
func configure(sys System, opts []Option) (cdn.Config, error) {
	c := config{Config: cdn.Config{
		Method:   sys.Method,
		Infra:    sys.Infra,
		Topology: topology.Config{Servers: DefaultServers, UsersPerServer: DefaultUsersPerServer, Seed: 1},
		Seed:     1,
	}}
	for _, opt := range opts {
		opt(&c)
	}
	c.drawGame()
	if c.err != nil {
		return c.Config, fmt.Errorf("core: %s: %w", sys.Name, c.err)
	}
	return c.Config, nil
}

// Validate checks the configuration sys and opts describe against the cdn
// rules (cdn.Config.Validate) without running it.
func Validate(sys System, opts ...Option) error {
	cfg, err := configure(sys, opts)
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("core: %s: %w", sys.Name, err)
	}
	return nil
}

// Key identifies the run sys and opts describe (cdn.Config.Key): equal keys
// mean the same simulation and identical Results.
func Key(sys System, opts ...Option) (string, error) {
	cfg, err := configure(sys, opts)
	if err != nil {
		return "", err
	}
	return cfg.Key()
}

// Run executes one system with the given options.
func Run(sys System, opts ...Option) (*cdn.Result, error) {
	cfg, err := configure(sys, opts)
	if err != nil {
		return nil, err
	}
	res, err := cdn.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", sys.Name, err)
	}
	return res, nil
}

// RunHAT runs the paper's proposed system.
func RunHAT(opts ...Option) (*cdn.Result, error) {
	return Run(SystemHAT, opts...)
}
