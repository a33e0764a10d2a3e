package audit_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"cdnconsistency/internal/audit"
	"cdnconsistency/internal/geo"
	"cdnconsistency/internal/netmodel"
	"cdnconsistency/internal/overlay"
)

// fakeTree is a hand-wired TreeView for corruption fixtures the overlay
// builders would refuse to construct.
type fakeTree struct {
	parent   []int
	children [][]int
}

func (t *fakeTree) NumNodes() int        { return len(t.parent) }
func (t *fakeTree) Parent(i int) int     { return t.parent[i] }
func (t *fakeTree) Children(i int) []int { return t.children[i] }

// star builds a consistent 0-rooted star over n+1 nodes.
func star(n int) *fakeTree {
	t := &fakeTree{parent: make([]int, n+1), children: make([][]int, n+1)}
	t.parent[0] = audit.NoParent
	for i := 1; i <= n; i++ {
		t.parent[i] = 0
		t.children[0] = append(t.children[0], i)
	}
	return t
}

func TestCheckTreeAcceptsHealthyTrees(t *testing.T) {
	if v := audit.CheckTree(star(5), 0, nil, false); v != nil {
		t.Errorf("healthy star rejected: %v", v)
	}
	mt, err := overlay.BuildRandomMulticast(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v := audit.CheckTree(mt, 2, nil, false); v != nil {
		t.Errorf("healthy multicast rejected: %v", v)
	}
}

func TestCheckTreeCatchesCycle(t *testing.T) {
	ft := star(3)
	// Wire 2 and 3 into a cycle detached from the root.
	ft.parent[2], ft.parent[3] = 3, 2
	ft.children[0] = []int{1}
	ft.children[2] = []int{3}
	ft.children[3] = []int{2}
	v := audit.CheckTree(ft, 0, nil, false)
	if v == nil || v.Property != "tree-acyclic" {
		t.Fatalf("cycle not flagged as tree-acyclic: %v", v)
	}
	if !strings.Contains(v.Snapshot, "chain") {
		t.Errorf("violation lacks chain snapshot: %q", v.Snapshot)
	}
	// A cycle is corruption even in tolerant (live-audit) mode.
	if v := audit.CheckTree(ft, 0, nil, true); v == nil {
		t.Error("tolerant mode accepted a cycle")
	}
}

func TestCheckTreeCatchesDetachedLiveNode(t *testing.T) {
	ft := star(3)
	ft.parent[2] = audit.NoParent
	ft.children[0] = []int{1, 3}
	if v := audit.CheckTree(ft, 0, nil, false); v == nil || v.Property != "tree-connectivity" {
		t.Fatalf("detached live node not flagged: %v", v)
	}
	// Dead-anchored subtree: node 3 hangs under dead detached node 2.
	ft.parent[3] = 2
	ft.children[0] = []int{1}
	ft.children[2] = []int{3}
	alive := []bool{true, true, false, true}
	if v := audit.CheckTree(ft, 0, alive, false); v == nil {
		t.Error("strict mode accepted a dead-anchored subtree")
	}
	if v := audit.CheckTree(ft, 0, alive, true); v != nil {
		t.Errorf("tolerant mode rejected a documented orphan state: %v", v)
	}
}

func TestCheckTreeCatchesDegreeAndMismatch(t *testing.T) {
	if v := audit.CheckTree(star(4), 3, nil, false); v == nil || v.Property != "tree-degree" {
		t.Fatalf("degree overflow not flagged: %v", v)
	}
	ft := star(3)
	ft.parent[2] = 1 // children[0] still lists 2
	if v := audit.CheckTree(ft, 0, nil, false); v == nil || v.Property != "tree-structure" {
		t.Fatalf("parent/children mismatch not flagged: %v", v)
	}
}

func TestCheckSeries(t *testing.T) {
	if v := audit.CheckSeries(audit.Label{Format: "x"}, []float64{0, 1.5, 2}); v != nil {
		t.Errorf("clean series rejected: %v", v)
	}
	if v := audit.CheckSeries(audit.Label{Format: "x"}, []float64{1, -0.25}); v == nil || v.Server != 1 {
		t.Errorf("negative entry not flagged with its index: %v", v)
	}
	if v := audit.CheckSeries(audit.Label{Format: "x"}, []float64{math.NaN()}); v == nil || v.Property != "series-finite" {
		t.Errorf("NaN not flagged: %v", v)
	}
}

// A Label renders only on failure, and the single-entry series check reads
// exactly like the series check it stands in for, minus the per-server
// index.
func TestLabelFormatsOnlyOnFailure(t *testing.T) {
	l := audit.Label{Format: "user %d catchupSum", Index: 7}
	if got := l.String(); got != "user 7 catchupSum" {
		t.Errorf("indexed label renders %q", got)
	}
	if got := (audit.Label{Format: "recoverySeconds"}).String(); got != "recoverySeconds" {
		t.Errorf("plain label renders %q", got)
	}
	series := audit.CheckSeries(l, []float64{1, math.NaN()})
	entry := audit.CheckSeriesEntry(l, 1, math.NaN())
	if series == nil || entry == nil {
		t.Fatalf("NaN not flagged: series %v, entry %v", series, entry)
	}
	if entry.Property != series.Property || entry.Detail != series.Detail {
		t.Errorf("entry check reads %s %q, series check %s %q", entry.Property, entry.Detail, series.Property, series.Detail)
	}
	if entry.Detail != "user 7 catchupSum[1] = NaN is not finite" {
		t.Errorf("entry detail %q", entry.Detail)
	}
	if series.Server != 1 || entry.Server != -1 {
		t.Errorf("series names server %d, entry %d; want 1 and -1", series.Server, entry.Server)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if audit.CheckCount(l, 1, 2) != nil || audit.CheckSeriesEntry(l, 0, 1.5) != nil ||
			audit.CheckBoundedDelay(l, time.Second, time.Minute) != nil {
			t.Fatal("healthy values flagged")
		}
	})
	if allocs != 0 {
		t.Errorf("passing checks allocated %v times, want 0", allocs)
	}
}

func TestScalarPredicates(t *testing.T) {
	if v := audit.CheckCount(audit.Label{Format: "obs"}, 3, 10); v != nil {
		t.Error(v)
	}
	if v := audit.CheckCount(audit.Label{Format: "obs"}, 11, 10); v == nil {
		t.Error("part > total accepted")
	}
	if v := audit.CheckCount(audit.Label{Format: "obs"}, -1, 10); v == nil {
		t.Error("negative part accepted")
	}
	if v := audit.CheckFraction("f", 1.01); v == nil {
		t.Error("fraction > 1 accepted")
	}
	if v := audit.CheckMonotonicCount("c", 5, 4); v == nil {
		t.Error("counter regression accepted")
	}
	if v := audit.CheckBoundedDelay(audit.Label{Format: "d"}, -time.Second, 0); v == nil {
		t.Error("negative delay accepted")
	}
	if v := audit.CheckBoundedDelay(audit.Label{Format: "d"}, time.Hour, time.Minute); v == nil {
		t.Error("delay beyond bound accepted")
	}
	if v := audit.CheckBoundedDelay(audit.Label{Format: "d"}, time.Second, time.Minute); v != nil {
		t.Error(v)
	}
}

func TestCheckAccountingAgainstRealNetwork(t *testing.T) {
	net := netmodel.New(netmodel.Config{})
	a := netmodel.Endpoint{ID: "a", Key: 1}
	b := netmodel.Endpoint{ID: "b", Key: 2, Loc: geo.Point{Lat: 10, Lon: 20}}
	for i := 0; i < 7; i++ {
		net.Send(a, b, 2, netmodel.ClassUpdate, 0)
		net.Send(b, a, 1, netmodel.ClassLight, 0)
	}
	if v := audit.CheckAccounting(net.Accounting()); v != nil {
		t.Errorf("consistent accounting rejected: %v", v)
	}
}

func TestCheckAccountingCatchesLedgerDrift(t *testing.T) {
	net := netmodel.New(netmodel.Config{})
	a, b := netmodel.Endpoint{ID: "a", Key: 1}, netmodel.Endpoint{ID: "b", Key: 2}
	net.Send(a, b, 2, netmodel.ClassUpdate, 0)
	acct := net.Accounting()
	// Seed the deliberate bug: drop one message from the per-sender ledger.
	s := acct.BySender["a"]
	s.Messages--
	acct.BySender["a"] = s
	if v := audit.CheckAccounting(acct); v == nil || v.Property != "accounting-conservation" {
		t.Fatalf("ledger drift not flagged: %v", v)
	}
	// And a negative aggregate.
	acct = net.Accounting()
	c := acct.ByClass[netmodel.ClassUpdate]
	c.KmKB = -1
	acct.ByClass[netmodel.ClassUpdate] = c
	if v := audit.CheckAccounting(acct); v == nil || v.Property != "accounting-nonnegative" {
		t.Fatalf("negative aggregate not flagged: %v", v)
	}
}

func TestViolationErrorRendering(t *testing.T) {
	v := &audit.Violation{
		Property: "tree-acyclic",
		Time:     90 * time.Second,
		Server:   7,
		Detail:   "cycle",
		Snapshot: "chain 7->3->7",
	}
	msg := v.Error()
	for _, want := range []string{"tree-acyclic", "1m30s", "server 7", "cycle", "chain 7->3->7"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() missing %q: %s", want, msg)
		}
	}
}
