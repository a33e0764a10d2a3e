package overlay

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cdnconsistency/internal/geo"
)

func randomLocs(n int, seed int64) []geo.Point {
	r := rand.New(rand.NewSource(seed))
	locs := make([]geo.Point, n)
	for i := range locs {
		locs[i] = geo.Point{Lat: r.Float64()*140 - 70, Lon: r.Float64()*360 - 180}
	}
	return locs
}

func TestUnicastStar(t *testing.T) {
	tree, err := BuildUnicastStar(5)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumNodes() != 6 {
		t.Fatalf("nodes = %d", tree.NumNodes())
	}
	if err := tree.Validate(0, nil); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(tree.Children(0)) != 5 {
		t.Errorf("root children = %d", len(tree.Children(0)))
	}
	for i := 1; i <= 5; i++ {
		if tree.Parent(i) != 0 || tree.depth[i] != 1 {
			t.Errorf("node %d parent/depth = %d/%d", i, tree.Parent(i), tree.depth[i])
		}
	}
	if tree.MaxDepth() != 1 {
		t.Errorf("MaxDepth = %d", tree.MaxDepth())
	}
	if _, err := BuildUnicastStar(-1); err == nil {
		t.Error("negative count accepted")
	}
}

func TestUnicastStarEmpty(t *testing.T) {
	tree, err := BuildUnicastStar(0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumNodes() != 1 || tree.MaxDepth() != 0 {
		t.Errorf("empty star wrong: nodes=%d depth=%d", tree.NumNodes(), tree.MaxDepth())
	}
}

func TestBuildMulticastValidates(t *testing.T) {
	locs := randomLocs(50, 1)
	tree, err := BuildMulticast(locs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(2, nil); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// A binary tree over 50 nodes has depth >= log2(50) ~ 5.
	if tree.MaxDepth() < 5 {
		t.Errorf("MaxDepth = %d, want >= 5", tree.MaxDepth())
	}
	if _, err := BuildMulticast(nil, 2); err == nil {
		t.Error("empty locs accepted")
	}
	if _, err := BuildMulticast(locs, 0); err == nil {
		t.Error("zero degree accepted")
	}
}

func TestBuildMulticastHigherDegreeShallower(t *testing.T) {
	locs := randomLocs(100, 2)
	d2, err := BuildMulticast(locs, 2)
	if err != nil {
		t.Fatal(err)
	}
	d8, err := BuildMulticast(locs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d8.MaxDepth() >= d2.MaxDepth() {
		t.Errorf("8-ary depth %d not below binary depth %d", d8.MaxDepth(), d2.MaxDepth())
	}
}

func TestProximityBeatsRandomAttachment(t *testing.T) {
	locs := randomLocs(120, 3)
	prox, err := BuildMulticast(locs, 3)
	if err != nil {
		t.Fatal(err)
	}
	random, err := BuildRandomMulticast(len(locs), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := random.Validate(3, nil); err != nil {
		t.Fatalf("random tree invalid: %v", err)
	}
	pk := prox.TotalEdgeKm(locs, nil)
	rk := random.TotalEdgeKm(locs, nil)
	if pk >= rk {
		t.Errorf("proximity tree edges %.0f km not below random %.0f km", pk, rk)
	}
}

func TestBuildRandomMulticastValidation(t *testing.T) {
	if _, err := BuildRandomMulticast(0, 2); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := BuildRandomMulticast(5, 0); err == nil {
		t.Error("zero degree accepted")
	}
}

func TestRemoveRepairsTree(t *testing.T) {
	locs := randomLocs(40, 4)
	tree, err := BuildMulticast(locs, 2)
	if err != nil {
		t.Fatal(err)
	}
	alive := make([]bool, len(locs))
	for i := range alive {
		alive[i] = true
	}
	// Remove an internal node with children.
	var victim int
	for i := 1; i < tree.NumNodes(); i++ {
		if len(tree.Children(i)) > 0 {
			victim = i
			break
		}
	}
	if victim == 0 {
		t.Fatal("no internal node found")
	}
	if err := tree.Remove(victim, locs, 2, alive); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := tree.Validate(2, alive); err != nil {
		t.Fatalf("tree invalid after repair: %v", err)
	}
}

func TestRemoveSequence(t *testing.T) {
	locs := randomLocs(60, 5)
	tree, err := BuildMulticast(locs, 3)
	if err != nil {
		t.Fatal(err)
	}
	alive := make([]bool, len(locs))
	for i := range alive {
		alive[i] = true
	}
	r := rand.New(rand.NewSource(6))
	removed := 0
	for removed < 20 {
		v := 1 + r.Intn(len(locs)-1)
		if !alive[v] {
			continue
		}
		if err := tree.Remove(v, locs, 3, alive); err != nil {
			t.Fatalf("Remove(%d): %v", v, err)
		}
		if err := tree.Validate(3, alive); err != nil {
			t.Fatalf("invalid after removing %d: %v", v, err)
		}
		removed++
	}
}

func TestRemoveErrors(t *testing.T) {
	locs := randomLocs(10, 7)
	tree, err := BuildMulticast(locs, 2)
	if err != nil {
		t.Fatal(err)
	}
	alive := make([]bool, len(locs))
	for i := range alive {
		alive[i] = true
	}
	if err := tree.Remove(0, locs, 2, alive); err == nil {
		t.Error("removing root accepted")
	}
	if err := tree.Remove(99, locs, 2, alive); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := tree.Remove(3, locs, 2, alive); err != nil {
		t.Fatal(err)
	}
	if err := tree.Remove(3, locs, 2, alive); err == nil {
		t.Error("double remove accepted")
	}
	if err := tree.Remove(4, locs[:5], 2, alive); err == nil {
		t.Error("mismatched locs accepted")
	}
}

// Property: multicast construction over arbitrary node sets always yields a
// valid tree whose depths are consistent.
func TestPropertyMulticastAlwaysValid(t *testing.T) {
	f := func(seed int64, nRaw uint8, dRaw uint8) bool {
		n := 2 + int(nRaw%80)
		d := 1 + int(dRaw%5)
		locs := randomLocs(n, seed)
		tree, err := BuildMulticast(locs, d)
		if err != nil {
			return false
		}
		return tree.Validate(d, nil) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: repair keeps the tree valid for any removal sequence.
func TestPropertyRepairAlwaysValid(t *testing.T) {
	f := func(seed int64, removals []uint8) bool {
		locs := randomLocs(30, seed)
		tree, err := BuildMulticast(locs, 2)
		if err != nil {
			return false
		}
		alive := make([]bool, len(locs))
		for i := range alive {
			alive[i] = true
		}
		liveCount := len(locs)
		for _, raw := range removals {
			if liveCount <= 3 {
				break
			}
			v := 1 + int(raw)%(len(locs)-1)
			if !alive[v] {
				continue
			}
			if err := tree.Remove(v, locs, 2, alive); err != nil {
				return false
			}
			liveCount--
			if tree.Validate(2, alive) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	locs := randomLocs(10, 8)
	tree, err := BuildMulticast(locs, 2)
	if err != nil {
		t.Fatal(err)
	}
	tree.parent[3] = 5
	if err := tree.Validate(2, nil); err == nil {
		t.Error("corrupted parent pointer accepted")
	}
}

func TestNewTreeFromParents(t *testing.T) {
	// provider(0) -> supernodes 1,2; members 3,4 under 1; 5 under 2.
	tree, err := NewTreeFromParents([]int{NoParent, 0, 0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(0, nil); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tree.depth[4] != 2 || tree.depth[2] != 1 {
		t.Errorf("depths wrong: %d %d", tree.depth[4], tree.depth[2])
	}
	if got := len(tree.Children(1)); got != 2 {
		t.Errorf("children(1) = %d", got)
	}

	bad := [][]int{
		{},                  // empty
		{0},                 // root with parent 0
		{NoParent, 5},       // out of range
		{NoParent, 1},       // self-parent
		{NoParent, 2, 1},    // cycle (1<->2), disconnected from root
		{NoParent, 0, 3, 2}, // cycle 2<->3
	}
	for i, parents := range bad {
		if _, err := NewTreeFromParents(parents); err == nil {
			t.Errorf("bad parents %d accepted: %v", i, parents)
		}
	}
}

func TestAddJoinsNearestParent(t *testing.T) {
	locs := randomLocs(20, 9)
	tree, err := BuildMulticast(locs, 2)
	if err != nil {
		t.Fatal(err)
	}
	alive := make([]bool, len(locs))
	for i := range alive {
		alive[i] = true
	}
	newLoc := locs[5] // join right next to node 5
	idx, locs2, alive2, err := tree.Add(newLoc, locs, 2, alive)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 20 || len(locs2) != 21 || len(alive2) != 21 {
		t.Fatalf("idx=%d len(locs)=%d len(alive)=%d", idx, len(locs2), len(alive2))
	}
	if err := tree.Validate(2, alive2); err != nil {
		t.Fatalf("invalid after join: %v", err)
	}
	// The chosen parent must be at zero-ish distance unless node 5 (and
	// its colocated candidates) were degree-full.
	p := tree.Parent(idx)
	if d := geo.DistanceKm(locs2[idx], locs2[p]); d > 2000 {
		t.Errorf("joined %0.f km from parent; nearest-parent rule violated", d)
	}
}

func TestAddThenRemoveCycle(t *testing.T) {
	locs := randomLocs(15, 10)
	tree, err := BuildMulticast(locs, 3)
	if err != nil {
		t.Fatal(err)
	}
	alive := make([]bool, len(locs))
	for i := range alive {
		alive[i] = true
	}
	for i := 0; i < 10; i++ {
		var idx int
		idx, locs, alive, err = tree.Add(randomLocs(1, int64(100+i))[0], locs, 3, alive)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Validate(3, alive); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		if i%2 == 0 {
			if err := tree.Remove(idx, locs, 3, alive); err != nil {
				t.Fatalf("remove %d: %v", idx, err)
			}
			if err := tree.Validate(3, alive); err != nil {
				t.Fatalf("after remove %d: %v", idx, err)
			}
		}
	}
}

func TestAddErrors(t *testing.T) {
	locs := randomLocs(3, 11)
	tree, err := BuildMulticast(locs, 1)
	if err != nil {
		t.Fatal(err)
	}
	alive := make([]bool, 3)
	if _, _, _, err := tree.Add(locs[0], locs, 0, alive); err == nil {
		t.Error("zero degree accepted")
	}
	if _, _, _, err := tree.Add(locs[0], locs[:2], 1, alive); err == nil {
		t.Error("mismatched locs accepted")
	}
	// All nodes dead: no parent available.
	if _, _, _, err := tree.Add(locs[0], locs, 1, alive); err == nil {
		t.Error("join with no live parents accepted")
	}
}
