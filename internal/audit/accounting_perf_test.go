package audit_test

import (
	"fmt"
	"testing"
	"time"

	"cdnconsistency/internal/audit"
	"cdnconsistency/internal/geo"
	"cdnconsistency/internal/netmodel"
)

// ledgerWith returns a Network whose per-sender ledger tracks n endpoints.
func ledgerWith(tb testing.TB, senders int) *netmodel.Network {
	tb.Helper()
	net := netmodel.New(netmodel.Config{})
	sink := netmodel.Endpoint{ID: "origin", Key: 1, Loc: geo.Point{Lat: 40, Lon: -74}, ISP: 1}
	for i := 0; i < senders; i++ {
		ep := netmodel.Endpoint{
			ID:  fmt.Sprintf("srv%04d", i),
			Key: i + 2,
			Loc: geo.Point{Lat: float64(i%170) - 85, Lon: float64(i*7%360) - 180},
			ISP: i % 11,
		}
		net.Send(ep, sink, 1, netmodel.ClassLight, time.Duration(i))
	}
	return net
}

// TestSweepAllocsFlatInSenderCount is the regression test for the audit
// sweep's per-cadence ledger clone: checking the accounting through the
// copy-free view must cost the same small constant number of allocations at
// 10 senders and at 1000 — the sweep no longer materializes a snapshot that
// scales with the fleet.
func TestSweepAllocsFlatInSenderCount(t *testing.T) {
	cost := func(senders int) float64 {
		net := ledgerWith(t, senders)
		v := net.View()
		return testing.AllocsPerRun(50, func() {
			if viol := audit.CheckAccounting(v); viol != nil {
				t.Fatalf("unexpected violation: %v", viol)
			}
		})
	}
	small, large := cost(10), cost(1000)
	if large > small {
		t.Fatalf("sweep allocations scale with sender count: %v allocs at 10 senders, %v at 1000", small, large)
	}
	// The absolute ceiling: a passing check reads the live ledger in place
	// and allocates nothing at all.
	if large != 0 {
		t.Fatalf("sweep costs %v allocs/op at 1000 senders, want 0", large)
	}
}

// BenchmarkAccountingSweep measures one auditor accounting sweep at several
// fleet sizes. allocs/op staying flat across sub-benchmarks is the point;
// the CI bench gate tracks it.
func BenchmarkAccountingSweep(b *testing.B) {
	for _, senders := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			net := ledgerWith(b, senders)
			v := net.View()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if viol := audit.CheckAccounting(v); viol != nil {
					b.Fatal(viol)
				}
			}
		})
	}
}

// BenchmarkAccountingSnapshot measures what the sweep used to pay: a full
// materialized Accounting() clone per audit cadence, scaling with senders.
// Kept as the contrast figure for the EXPERIMENTS.md performance appendix.
func BenchmarkAccountingSnapshot(b *testing.B) {
	for _, senders := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			net := ledgerWith(b, senders)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acct := net.Accounting()
				if acct.Total().Messages == 0 {
					b.Fatal("empty snapshot")
				}
			}
		})
	}
}
