// Package federation describes a multi-provider (multi-CDN) origin layer
// for the cdn simulation: N provider origins with distinct poll TTLs and
// publication-propagation lags, anycast-style nearest-alive provider
// selection, inter-CDN peering hand-off for servers whose home provider is
// down, and an optional meta-CDN broker that re-homes servers mid-run with
// hysteresis to suppress flapping. When every provider is unreachable the
// cdn layer degrades gracefully: servers serve stale content under the
// spec's staleness cap and the degradation interval is recorded instead of
// stalling the run.
//
// A Spec is declarative and strict-JSON (unknown fields and trailing data
// are rejected, like fault.Spec and workload.Population); the runtime
// semantics live in internal/cdn. The scenario family follows "A Case for
// Peering of Content Delivery Networks" and "Characterizing a Meta-CDN"
// (see PAPERS.md): real deployments re-home users across providers
// mid-stream, which is exactly what the paper's single-origin evaluation
// could not exercise.
package federation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"

	"cdnconsistency/internal/fault"
)

// Provider is one federated origin. Provider 0 plays the paper's single
// origin (the simulation keeps its traffic-ledger endpoint name
// "provider"); providers 1..N-1 are additional origins at their own
// locations.
type Provider struct {
	// Name labels the provider in figures and errors.
	Name string `json:"name"`
	// Lat/Lon place the origin for anycast distance ranking and traffic
	// accounting (degrees).
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
	// TTL overrides the run's server poll period for servers homed to this
	// provider (0 = use the run's ServerTTL). Distinct per-provider TTLs
	// model CDNs with different freshness contracts.
	TTL fault.Duration `json:"ttl,omitempty"`
	// Propagation is the lag between a publication and this provider
	// serving the new version — distinct propagation behavior per origin
	// (0 = immediate, the paper's single-origin behavior).
	Propagation fault.Duration `json:"propagation,omitempty"`
}

// Broker configures the meta-CDN broker: a periodic controller that
// re-homes each server to its nearest alive provider, with hysteresis so a
// marginal distance advantage (or a briefly-flapping provider) does not
// cause oscillating switches.
type Broker struct {
	// Period is the broker's evaluation cadence in simulated time.
	Period fault.Duration `json:"period"`
	// Hysteresis is the relative distance advantage a candidate provider
	// must hold over the current home before the broker switches
	// (e.g. 0.2 = candidate must be ≥20% closer). 0 switches on any
	// improvement.
	Hysteresis float64 `json:"hysteresis,omitempty"`
	// MinDwell is the minimum time a server stays on a broker-chosen
	// provider before the broker may switch it again (0 = no dwell floor).
	MinDwell fault.Duration `json:"min_dwell,omitempty"`
}

// Spec is the strict-JSON federation description.
type Spec struct {
	// Providers lists the federated origins; at least one. Provider 0 is
	// the primary (the paper's origin).
	Providers []Provider `json:"providers"`
	// Broker, when present, runs the meta-CDN broker controller.
	Broker *Broker `json:"broker,omitempty"`
	// StaleCap bounds graceful degradation: while every provider is down,
	// servers keep serving their last-known content for at most this long
	// per degradation interval; beyond the cap, visits fail (and users
	// fail over). 0 = serve stale indefinitely, guaranteeing zero
	// permanently-stranded users through any all-providers-down storm.
	StaleCap fault.Duration `json:"stale_cap,omitempty"`
}

var providerNameRE = regexp.MustCompile(`^[a-zA-Z][a-zA-Z0-9_-]*$`)

// maxProviders bounds the federation size; fault storms iterate providers
// and the broker ranks all of them per server, so the cap keeps compiled
// schedules small.
const maxProviders = 16

// Validate checks the spec's internal consistency.
func (s *Spec) Validate() error {
	if len(s.Providers) == 0 {
		return fmt.Errorf("federation: providers must list at least one provider")
	}
	if len(s.Providers) > maxProviders {
		return fmt.Errorf("federation: %d providers exceeds the maximum %d", len(s.Providers), maxProviders)
	}
	seen := make(map[string]bool, len(s.Providers))
	for i, p := range s.Providers {
		if !providerNameRE.MatchString(p.Name) {
			return fmt.Errorf("federation: provider %d name %q must match %s", i, p.Name, providerNameRE)
		}
		if seen[p.Name] {
			return fmt.Errorf("federation: duplicate provider name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Lat < -90 || p.Lat > 90 {
			return fmt.Errorf("federation: provider %q lat %v out of [-90, 90]", p.Name, p.Lat)
		}
		if p.Lon < -180 || p.Lon > 180 {
			return fmt.Errorf("federation: provider %q lon %v out of [-180, 180]", p.Name, p.Lon)
		}
		if p.TTL < 0 {
			return fmt.Errorf("federation: provider %q ttl must be >= 0", p.Name)
		}
		if p.Propagation < 0 {
			return fmt.Errorf("federation: provider %q propagation must be >= 0", p.Name)
		}
	}
	if s.StaleCap < 0 {
		return fmt.Errorf("federation: stale_cap must be >= 0")
	}
	if b := s.Broker; b != nil {
		if b.Period <= 0 {
			return fmt.Errorf("federation: broker period must be > 0")
		}
		if b.Hysteresis < 0 {
			return fmt.Errorf("federation: broker hysteresis must be >= 0")
		}
		if b.MinDwell < 0 {
			return fmt.Errorf("federation: broker min_dwell must be >= 0")
		}
	}
	return nil
}

// ParseSpec decodes a strict-JSON federation spec: unknown fields, trailing
// data, and invalid values are all errors.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("federation: parsing spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("federation: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// ParseArg resolves a command-line federation argument: "@path" loads a
// JSON spec file through ParseSpec; anything else must be a provider count
// (>= 1) expanded through DefaultSpec's real-city sites.
func ParseArg(arg string) (Spec, error) {
	if path, ok := strings.CutPrefix(arg, "@"); ok {
		data, err := os.ReadFile(path)
		if err != nil {
			return Spec{}, err
		}
		return ParseSpec(data)
	}
	n, err := strconv.Atoi(arg)
	if err != nil || n < 1 {
		return Spec{}, fmt.Errorf("-federation wants a provider count >= 1 or @file.json, got %q", arg)
	}
	return DefaultSpec(n), nil
}

// Marshal renders the spec as indented JSON that ParseSpec round-trips.
func (s *Spec) Marshal() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(s, "", "  ")
}

// defaultSites are real CDN points of presence used by DefaultSpec; site 0
// is Atlanta, the paper's provider location.
var defaultSites = []Provider{
	{Name: "atlanta", Lat: 33.75, Lon: -84.39},
	{Name: "frankfurt", Lat: 50.11, Lon: 8.68},
	{Name: "singapore", Lat: 1.35, Lon: 103.82},
	{Name: "saopaulo", Lat: -23.55, Lon: -46.63},
	{Name: "sydney", Lat: -33.87, Lon: 151.21},
	{Name: "tokyo", Lat: 35.68, Lon: 139.69},
	{Name: "london", Lat: 51.51, Lon: -0.13},
	{Name: "virginia", Lat: 38.95, Lon: -77.45},
}

// DefaultSpec builds an n-provider federation over real city sites
// (provider 0 = Atlanta, the paper's origin), no broker, and unlimited
// serve-stale degradation. n is clamped to [1, 8].
func DefaultSpec(n int) Spec {
	if n < 1 {
		n = 1
	}
	if n > len(defaultSites) {
		n = len(defaultSites)
	}
	return Spec{Providers: append([]Provider(nil), defaultSites[:n]...)}
}
