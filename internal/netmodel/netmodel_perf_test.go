package netmodel

import (
	"fmt"
	"testing"
	"time"

	"cdnconsistency/internal/geo"
)

// TestSendRecycledPathAllocFree pins Send's hot-path guarantee: once both
// endpoints are interned and their distance is cached (after the first
// message on the pair), a deterministic Send allocates nothing — the
// busy-port, overload, distance, and both ledger updates are all dense
// slice operations.
func TestSendRecycledPathAllocFree(t *testing.T) {
	n := New(Config{})
	now := time.Duration(0)
	// First sends intern the endpoints, grow the ledgers, and warm the
	// distance cache.
	now += n.Send(atlanta, london, 1, ClassUpdate, now)
	now += n.Send(london, atlanta, 1, ClassLight, now)
	avg := testing.AllocsPerRun(200, func() {
		now += n.Send(atlanta, london, 1, ClassUpdate, now)
	})
	if avg != 0 {
		t.Fatalf("recycled-path Send costs %v allocs/op, want 0", avg)
	}
}

// TestViewAllocFree pins the copy-free accounting window: reading totals
// through the View must not materialize anything, regardless of how many
// senders the ledger tracks.
func TestViewAllocFree(t *testing.T) {
	n := New(Config{})
	for i := 0; i < 500; i++ {
		ep := Endpoint{ID: fmt.Sprintf("srv%d", i), Key: 10 + i, Loc: geo.Point{Lat: float64(i % 90), Lon: float64(i % 180)}, ISP: i % 7}
		n.Send(ep, atlanta, 1, ClassLight, 0)
	}
	v := n.View()
	var sink ClassTotals
	avg := testing.AllocsPerRun(100, func() {
		sink = v.Total()
		sink = v.Class(ClassLight)
		_, rows := v.SenderRows()
		for _, t := range rows {
			sink.Messages += t.Messages
		}
	})
	_ = sink
	if avg != 0 {
		t.Fatalf("View reads cost %v allocs/op across 500 senders, want 0", avg)
	}
}

// BenchmarkNetworkSendSteadyState measures the recycled Send path the
// simulation pays millions of times per figure. The CI bench gate tracks it.
func BenchmarkNetworkSendSteadyState(b *testing.B) {
	n := New(Config{})
	now := time.Duration(0)
	now += n.Send(atlanta, london, 1, ClassUpdate, now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += n.Send(atlanta, london, 1, ClassUpdate, now)
	}
}

// BenchmarkNetworkAccount measures the batched visit booking the cohort
// model pays once per cohort visit: the sender state is reached through the
// endpoint's Key across a fleet of 850 interned endpoints.
func BenchmarkNetworkAccount(b *testing.B) {
	n := New(Config{})
	eps := make([]Endpoint, 850)
	for i := range eps {
		eps[i] = Endpoint{ID: fmt.Sprintf("server-%04d", i), Key: i + 1}
		n.Account(eps[i], 1, ClassContent, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Account(eps[i%len(eps)], 1, ClassContent, 16)
	}
}

// BenchmarkNetworkSendFirstContact measures the cold path: every message
// introduces a new endpoint pair, paying interning, ledger growth, and the
// haversine. It bounds what topology setup costs.
func BenchmarkNetworkSendFirstContact(b *testing.B) {
	n := New(Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := Endpoint{ID: fmt.Sprintf("s%d", i), Key: 10 + i, Loc: geo.Point{Lat: float64(i % 90), Lon: float64(i % 180)}}
		n.Send(from, atlanta, 1, ClassLight, 0)
	}
}
