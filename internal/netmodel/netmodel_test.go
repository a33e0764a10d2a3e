package netmodel

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"cdnconsistency/internal/geo"
)

var (
	atlanta = Endpoint{ID: "atl", Key: 1, Loc: geo.Point{Lat: 33.749, Lon: -84.388}, ISP: 1}
	london  = Endpoint{ID: "lon", Key: 2, Loc: geo.Point{Lat: 51.5074, Lon: -0.1278}, ISP: 1}
	tokyo   = Endpoint{ID: "tyo", Key: 3, Loc: geo.Point{Lat: 35.6762, Lon: 139.6503}, ISP: 2}
)

func TestPropagationDelayGrowsWithDistance(t *testing.T) {
	n := New(Config{})
	near := n.PropagationDelay(atlanta, atlanta)
	mid := n.PropagationDelay(atlanta, london)
	if mid <= near {
		t.Errorf("delay to london %v not greater than local %v", mid, near)
	}
	// ~6760 km at 200000 km/s is ~33.8 ms + 2 ms base.
	want := 36 * time.Millisecond
	if d := mid - want; d < -5*time.Millisecond || d > 5*time.Millisecond {
		t.Errorf("atlanta-london delay = %v, want about %v", mid, want)
	}
}

func TestInterISPPenalty(t *testing.T) {
	n := New(Config{})
	sameISP := Endpoint{ID: "x", Key: 4, Loc: tokyo.Loc, ISP: atlanta.ISP}
	intra := n.PropagationDelay(atlanta, sameISP)
	inter := n.PropagationDelay(atlanta, tokyo)
	if inter-intra != 15*time.Millisecond {
		t.Errorf("inter-ISP penalty = %v, want 15ms", inter-intra)
	}
	if b := PropagationBound(geo.DistanceKm(atlanta.Loc, tokyo.Loc)); b != inter {
		t.Errorf("PropagationBound = %v, want the inter-ISP delay %v", b, inter)
	}
}

func TestOutputPortQueuing(t *testing.T) {
	n := New(Config{DefaultUplinkKBps: 100}) // 100 KB/s: 100 KB takes 1 s
	const size = 100.0
	a1 := n.Send(atlanta, london, size, ClassUpdate, 0)
	a2 := n.Send(atlanta, london, size, ClassUpdate, 0)
	a3 := n.Send(atlanta, london, size, ClassUpdate, 0)
	// Each transmission serializes behind the previous on atlanta's uplink.
	if d := a2 - a1; d != time.Second {
		t.Errorf("second message delayed by %v, want 1s", d)
	}
	if d := a3 - a2; d != time.Second {
		t.Errorf("third message delayed by %v, want 1s", d)
	}
}

func TestQueueDrains(t *testing.T) {
	n := New(Config{DefaultUplinkKBps: 100})
	n.Send(atlanta, london, 100, ClassUpdate, 0)
	// After the uplink frees (1s), a later send is not queued.
	a := n.Send(atlanta, london, 100, ClassUpdate, 5*time.Second)
	b := n.Send(atlanta, london, 100, ClassUpdate, 10*time.Second)
	base := n.PropagationDelay(atlanta, london) + time.Second
	if a != 5*time.Second+base {
		t.Errorf("drained queue send arrived %v, want %v", a, 5*time.Second+base)
	}
	if b != 10*time.Second+base {
		t.Errorf("drained queue send arrived %v, want %v", b, 10*time.Second+base)
	}
}

func TestDisableQueuing(t *testing.T) {
	n := New(Config{DefaultUplinkKBps: 100, DisableQueuing: true})
	a1 := n.Send(atlanta, london, 100, ClassUpdate, 0)
	a2 := n.Send(atlanta, london, 100, ClassUpdate, 0)
	if a1 != a2 {
		t.Errorf("with queuing disabled arrivals differ: %v vs %v", a1, a2)
	}
}

func TestQueuingSeparatePerSender(t *testing.T) {
	n := New(Config{DefaultUplinkKBps: 100})
	n.Send(atlanta, london, 1000, ClassUpdate, 0) // 10s on atlanta's uplink
	// tokyo's uplink is independent.
	a := n.Send(tokyo, london, 100, ClassUpdate, 0)
	want := n.PropagationDelay(tokyo, london) + time.Second
	if a != want {
		t.Errorf("independent sender arrival %v, want %v", a, want)
	}
}

func TestEndpointUplinkOverride(t *testing.T) {
	n := New(Config{DefaultUplinkKBps: 100})
	fast := atlanta
	fast.ID, fast.Key = "fast", 6
	fast.UplinkKBps = 10000
	slow := n.Send(atlanta, london, 100, ClassUpdate, 0)
	quickA := n.Send(fast, london, 100, ClassUpdate, 0)
	if quickA >= slow {
		t.Errorf("fast uplink arrival %v not before default %v", quickA, slow)
	}
}

func TestAccounting(t *testing.T) {
	n := New(Config{})
	n.Send(atlanta, london, 2, ClassUpdate, 0)
	n.Send(atlanta, london, 1, ClassLight, 0)
	n.Send(atlanta, london, 1, ClassLight, 0)
	acct := n.Accounting()
	km := geo.DistanceKm(atlanta.Loc, london.Loc)

	up := acct.ByClass[ClassUpdate]
	if up.Messages != 1 || math.Abs(up.KmKB-2*km) > 1e-6 {
		t.Errorf("update totals = %+v, want 1 msg, %.1f km*KB", up, 2*km)
	}
	light := acct.ByClass[ClassLight]
	if light.Messages != 2 || math.Abs(light.Km-2*km) > 1e-6 {
		t.Errorf("light totals = %+v, want 2 msgs, %.1f km", light, 2*km)
	}
	tot := acct.Total()
	if tot.Messages != 3 || math.Abs(tot.KB-4) > 1e-9 {
		t.Errorf("total = %+v", tot)
	}

}

func TestAccountingSnapshotIsolated(t *testing.T) {
	n := New(Config{})
	n.Send(atlanta, london, 1, ClassUpdate, 0)
	snap := n.Accounting()
	n.Send(atlanta, london, 1, ClassUpdate, 0)
	if snap.ByClass[ClassUpdate].Messages != 1 {
		t.Error("snapshot mutated by later sends")
	}
}

func TestClassesSortedAndString(t *testing.T) {
	n := New(Config{})
	n.Send(atlanta, london, 1, ClassContent, 0)
	n.Send(atlanta, london, 1, ClassUpdate, 0)
	got := n.Accounting().Classes()
	if len(got) != 2 || got[0] != ClassUpdate || got[1] != ClassContent {
		t.Errorf("Classes() = %v", got)
	}
	if ClassUpdate.String() != "update" || ClassLight.String() != "light" ||
		ClassContent.String() != "content" || Class(9).String() != "class(9)" {
		t.Error("Class.String values wrong")
	}
}

func TestNegativeSizeClamped(t *testing.T) {
	n := New(Config{})
	a := n.Send(atlanta, london, -5, ClassLight, 0)
	if a < 0 {
		t.Errorf("negative-size send arrived at %v", a)
	}
	if n.Accounting().Total().KB != 0 {
		t.Error("negative size accounted as nonzero KB")
	}
}

// Property: arrival is never before now + propagation, and messages from the
// same sender arrive in FIFO order per destination when sizes are equal.
func TestPropertySendCausalAndMonotone(t *testing.T) {
	f := func(sizes []uint8) bool {
		n := New(Config{DefaultUplinkKBps: 50})
		var prev time.Duration
		for i, s := range sizes {
			now := time.Duration(i) * time.Millisecond
			a := n.Send(atlanta, london, float64(s), ClassUpdate, now)
			if a < now+n.PropagationDelay(atlanta, london) {
				return false
			}
			if a < prev { // uplink FIFO implies non-decreasing arrivals
				return false
			}
			prev = a
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSend(b *testing.B) {
	n := New(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Send(atlanta, london, 1, ClassUpdate, time.Duration(i)*time.Microsecond)
	}
}

func TestPartitionGroupsCutAndHeal(t *testing.T) {
	n := New(Config{})
	if !n.Reachable(atlanta, tokyo) {
		t.Fatal("unpartitioned endpoints unreachable")
	}
	n.SetPartitionGroup(1, []int{tokyo.ISP})
	if n.Reachable(atlanta, tokyo) || n.Reachable(tokyo, atlanta) {
		t.Error("partition did not cut cross-ISP path")
	}
	if !n.Reachable(atlanta, london) {
		t.Error("partition cut a path between two outside ISPs")
	}
	inTokyo := Endpoint{ID: "tyo2", Key: 5, Loc: tokyo.Loc, ISP: tokyo.ISP}
	if !n.Reachable(tokyo, inTokyo) {
		t.Error("partition cut a path inside the partitioned set")
	}
	n.ClearPartitionGroup(1)
	if !n.Reachable(atlanta, tokyo) {
		t.Error("healed partition still cutting")
	}
}

func TestPartitionGroupsCompose(t *testing.T) {
	n := New(Config{})
	n.SetPartitionGroup(1, []int{atlanta.ISP})
	n.SetPartitionGroup(2, []int{tokyo.ISP})
	if n.Reachable(atlanta, tokyo) {
		t.Error("path across two partitions reachable")
	}
	n.ClearPartitionGroup(1)
	if n.Reachable(atlanta, tokyo) {
		t.Error("remaining partition no longer cutting")
	}
	if !n.Reachable(atlanta, london) {
		t.Error("unrelated path cut")
	}
}

func TestOverloadInflatesServiceDelay(t *testing.T) {
	mk := func() *Network { return New(Config{DefaultUplinkKBps: 100}) }
	base := mk().Send(atlanta, london, 100, ClassUpdate, 0) // 1 s tx

	n := mk()
	n.SetOverload(atlanta, 4)
	slow := n.Send(atlanta, london, 100, ClassUpdate, 0)
	// 4x the 1 s transmission plus 3x the 2 ms base processing delay.
	want := base + 3*time.Second + 6*time.Millisecond
	if slow != want {
		t.Errorf("overloaded send arrived %v, want %v (base %v)", slow, want, base)
	}
	// Receiving is unaffected; only the overloaded sender's uplink slows.
	if got := n.Send(london, atlanta, 100, ClassUpdate, 0); got != base {
		t.Errorf("send toward overloaded server took %v, want %v", got, base)
	}

	n.ClearOverload(atlanta)
	if got := n.Send(atlanta, london, 100, ClassUpdate, 20*time.Second) - 20*time.Second; got != base {
		t.Errorf("cleared overload still slow: %v vs %v", got, base)
	}
}

func TestOverloadIgnoresBadFactor(t *testing.T) {
	n := New(Config{DefaultUplinkKBps: 100})
	n.SetOverload(atlanta, 1)
	n.SetOverload(atlanta, 0.5)
	base := New(Config{DefaultUplinkKBps: 100}).Send(atlanta, london, 100, ClassUpdate, 0)
	if got := n.Send(atlanta, london, 100, ClassUpdate, 0); got != base {
		t.Errorf("factor <= 1 changed delay: %v vs %v", got, base)
	}
}

// Endpoints with one Key and ID are one endpoint to the network, wherever
// they stand: a federation's provider 0 shares node 0's Key this way. The
// second endpoint's message queues behind the first's on the shared uplink,
// and both land in one ledger row.
func TestSharedKeySharesQueueAndLedger(t *testing.T) {
	n := New(Config{DefaultUplinkKBps: 100}) // 100 KB/s: 100 KB takes 1 s
	twin := atlanta
	twin.Loc = tokyo.Loc
	n.Send(atlanta, london, 100, ClassUpdate, 0)
	n.Account(twin, 1, ClassContent, 3)
	a := n.Send(twin, london, 100, ClassUpdate, 0)
	if a < 2*time.Second {
		t.Errorf("twin's message arrived at %v, not queued behind the first 1 s transmission", a)
	}
	ids, rows := n.View().SenderRows()
	sent := 0
	for i, id := range ids {
		if rows[i].Messages == 0 {
			continue
		}
		sent++
		if id != atlanta.ID || rows[i].Messages != 5 {
			t.Errorf("ledger row %q holds %d messages, want one row %q with 5", id, rows[i].Messages, atlanta.ID)
		}
	}
	if sent != 1 {
		t.Errorf("%d sender rows, want 1", sent)
	}

	// Distinct keys that carry one ID are two endpoints to the network but
	// one sender in a snapshot.
	alias := london
	alias.Key = 9
	alias.ID = atlanta.ID
	n.Send(alias, tokyo, 1, ClassLight, 0)
	if got := n.Accounting().BySender[atlanta.ID].Messages; got != 6 {
		t.Errorf("snapshot books %d messages under %q, want 6", got, atlanta.ID)
	}
}

// Every endpoint must carry a positive Key: a zero Key would silently merge
// unrelated endpoints, so it is refused with the endpoint's ID.
func TestEndpointWithoutKeyPanics(t *testing.T) {
	for _, key := range []int{0, -1} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("Key %d accepted", key)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, `"nokey"`) {
					t.Errorf("Key %d panic %q does not name the endpoint", key, msg)
				}
			}()
			New(Config{}).Send(Endpoint{ID: "nokey", Key: key}, london, 1, ClassLight, 0)
		}()
	}
}
