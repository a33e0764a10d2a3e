package cdn

import (
	"errors"
	"testing"
	"time"

	"cdnconsistency/internal/audit"
	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/federation"
)

// The auditor must catch federation bookkeeping corruption. The federation
// runtime keeps every counter twice — the cell tallies the Result reports
// and an independent fed-side ledger — so tampering with either side of a
// pair mid-run splits them and the named conservation property fires. Each
// case corrupts one piece of state behind the simulation's back during the
// storm and expects that property.
func TestAuditorCatchesFederationCorruption(t *testing.T) {
	cases := []struct {
		name     string
		corrupt  func(s *simulation)
		property string
	}{
		{
			name:     "degraded seconds inflated",
			corrupt:  func(s *simulation) { s.cells[0].degradedSeconds += 10 },
			property: "degradation-ledger",
		},
		{
			name:     "phantom degradation interval",
			corrupt:  func(s *simulation) { s.cells[0].degradedEnters++ },
			property: "degradation-conservation",
		},
		{
			name:     "unledgered exit",
			corrupt:  func(s *simulation) { s.cells[0].degradedExits++ },
			property: "degradation-conservation",
		},
		{
			name:     "unledgered provider switch",
			corrupt:  func(s *simulation) { s.cells[0].providerSwitches++ },
			property: "switch-ledger",
		},
		{
			name:     "unledgered peering hand-off",
			corrupt:  func(s *simulation) { s.cells[0].peerHandoffs++ },
			property: "handoff-ledger",
		},
		{
			name:     "server homed at a phantom provider",
			corrupt:  func(s *simulation) { s.nodes[1].prov = 99 },
			property: "home-bounds",
		},
		{
			name:     "provider ahead of the ground truth",
			corrupt:  func(s *simulation) { s.prov[0].version = 1 << 20 },
			property: "provider-version-bounds",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := fedTestConfig(t, consistency.MethodTTL, consistency.InfraUnicast,
				federation.DefaultSpec(3), "provider-storm")
			full, err := cfg.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			s, err := newSimulation(full)
			if err != nil {
				t.Fatal(err)
			}
			s.at(0, 4*time.Minute, func() { tc.corrupt(s) })
			_, err = s.run()
			var v *audit.Violation
			if !errors.As(err, &v) {
				t.Fatalf("corrupted run returned %v, want an audit violation", err)
			}
			if v.Property != tc.property {
				t.Fatalf("violation property %q, want %q (detail: %s)", v.Property, tc.property, v.Detail)
			}
		})
	}
}
