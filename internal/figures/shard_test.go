package figures

import (
	"io"
	"testing"
)

// The ext-scale sweep on the sharded engine must not depend on the Shards
// value: the rendered table is a pure function of (seed, partition), so
// shards 1 and 4 produce byte-identical output. The serial engine draws from a
// different RNG stream layout, so its table is expected to differ — assert
// that too, as a liveness check that -shards actually engages the sharded
// engine rather than falling back.
func TestExtScaleShardInvariance(t *testing.T) {
	old := ExtScalePerfOutput
	ExtScalePerfOutput = io.Discard
	defer func() { ExtScalePerfOutput = old }()

	tiny := reducedSimScale(30, 1)

	one := tiny
	one.Shards = 1
	four := tiny
	four.Shards = 4

	st, err := ExtScale(tiny)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	ot, err := ExtScale(one)
	if err != nil {
		t.Fatalf("shards=1: %v", err)
	}
	ft, err := ExtScale(four)
	if err != nil {
		t.Fatalf("shards=4: %v", err)
	}
	if ot.String() != ft.String() {
		t.Errorf("shards=4 output differs from shards=1:\n--- shards=1 ---\n%s--- shards=4 ---\n%s", ot.String(), ft.String())
	}
	if ot.SimEvents == 0 || ot.SimEvents != ft.SimEvents {
		t.Errorf("SimEvents: shards=1 %d, shards=4 %d (want equal, nonzero)", ot.SimEvents, ft.SimEvents)
	}
	if st.String() == ot.String() {
		t.Errorf("sharded table identical to serial engine's: sharding likely not engaged")
	}
}
