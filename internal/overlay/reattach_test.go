package overlay

import (
	"testing"
)

func TestReattachRejoinsNearestLive(t *testing.T) {
	locs := randomLocs(30, 3)
	tree, err := BuildMulticast(locs, 2)
	if err != nil {
		t.Fatal(err)
	}
	alive := make([]bool, 30)
	for i := range alive {
		alive[i] = true
	}
	if err := tree.Remove(7, locs, 2, alive); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if alive[7] {
		t.Fatal("removed node still alive")
	}
	if err := tree.Reattach(7, locs, 2, alive); err != nil {
		t.Fatalf("Reattach: %v", err)
	}
	if !alive[7] {
		t.Error("reattached node not alive")
	}
	p := tree.Parent(7)
	if p == NoParent || !alive[p] {
		t.Errorf("reattached under %d (alive=%v)", p, p != NoParent && alive[p])
	}
	if tree.depth[7] != tree.depth[p]+1 {
		t.Errorf("depth %d, parent depth %d", tree.depth[7], tree.depth[p])
	}
	if err := tree.Validate(2, alive); err != nil {
		t.Errorf("Validate after reattach: %v", err)
	}
}

func TestReattachErrors(t *testing.T) {
	locs := randomLocs(10, 4)
	tree, err := BuildMulticast(locs, 2)
	if err != nil {
		t.Fatal(err)
	}
	alive := make([]bool, 10)
	for i := range alive {
		alive[i] = true
	}
	if err := tree.Reattach(3, locs, 2, alive); err == nil {
		t.Error("reattaching an attached node accepted")
	}
	if err := tree.Reattach(0, locs, 2, alive); err == nil {
		t.Error("reattaching the root accepted")
	}
	if err := tree.Reattach(99, locs, 2, alive); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := tree.Remove(3, locs, 2, alive); err != nil {
		t.Fatal(err)
	}
	if err := tree.Reattach(3, locs, 2, alive[:5]); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := tree.Reattach(3, locs, 0, alive); err == nil {
		t.Error("zero degree accepted")
	}
}

func TestRemoveReattachChurn(t *testing.T) {
	const n, degree = 40, 2
	locs := randomLocs(n, 5)
	tree, err := BuildMulticast(locs, degree)
	if err != nil {
		t.Fatal(err)
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	// Knock out a third, bring them all back, repeat; the tree must stay
	// valid and fully live at each round's end.
	for round := 0; round < 3; round++ {
		var out []int
		for i := 1 + round; i < n; i += 3 {
			if err := tree.Remove(i, locs, degree, alive); err != nil {
				t.Fatalf("round %d Remove(%d): %v", round, i, err)
			}
			out = append(out, i)
		}
		if err := tree.Validate(degree, alive); err != nil {
			t.Fatalf("round %d after removals: %v", round, err)
		}
		for _, i := range out {
			if err := tree.Reattach(i, locs, degree, alive); err != nil {
				t.Fatalf("round %d Reattach(%d): %v", round, i, err)
			}
		}
		if err := tree.Validate(degree, alive); err != nil {
			t.Fatalf("round %d after reattach: %v", round, err)
		}
		for i, a := range alive {
			if !a {
				t.Fatalf("round %d node %d still down", round, i)
			}
		}
	}
}
