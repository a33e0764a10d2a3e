package cdnconsistency_test

// The engine's allocation-free event storage, the netmodel's dense indexing,
// and the parallel figure runner must all be invisible in the output:
// identical seeds produce byte-identical tables. These tests pin that
// guarantee on the figures the performance work touches hardest.

import (
	"testing"

	"cdnconsistency/internal/figures"
)

func tinyScale() figures.SimScale {
	scale := figures.SmallSimScale()
	users := 1
	scale.Scenario.Servers = 30
	scale.Scenario.UsersPerServer = &users
	scale.Scenario.Clusters = 5
	return scale
}

// renderTwice runs a figure twice from the same scale (same seeds) and
// returns both rendered tables.
func renderTwice(t *testing.T, fn func(figures.SimScale) (*figures.Table, error)) (string, string) {
	t.Helper()
	first, err := fn(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	second, err := fn(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	return first.String(), second.String()
}

// TestFig20Deterministic diffs the Figure 20 grid — the heaviest simulation
// sweep, covering every update method and infrastructure — byte for byte
// across two runs with identical seeds.
func TestFig20Deterministic(t *testing.T) {
	a, b := renderTwice(t, figures.Fig20)
	if a != b {
		t.Fatalf("Fig20 output differs between identically-seeded runs:\n--- first\n%s\n--- second\n%s", a, b)
	}
	if a == "" {
		t.Fatal("Fig20 rendered an empty table")
	}
}

// TestFig19Deterministic pins the Figure 19 sweep (the profiling target)
// the same way.
func TestFig19Deterministic(t *testing.T) {
	a, b := renderTwice(t, figures.Fig19)
	if a != b {
		t.Fatalf("Fig19 output differs between identically-seeded runs:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestFig20ParallelMatchesSerial verifies the parallelized sweep cannot
// perturb results: the same grid computed serially and with the worker pool
// renders identically.
func TestFig20ParallelMatchesSerial(t *testing.T) {
	serial := tinyScale()
	serial.Parallel = 1
	parallel := tinyScale()
	parallel.Parallel = 4

	st, err := figures.Fig20(serial)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := figures.Fig20(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if st.String() != pt.String() {
		t.Fatalf("Fig20 differs between -parallel 1 and -parallel 4:\n--- serial\n%s\n--- parallel\n%s", st, pt)
	}
}
