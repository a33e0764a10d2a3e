package figures

import (
	"testing"
)

// Parallel fan-out must never change a figure: every simulation run is
// deterministic from its explicit seed and rows are assembled in index
// order, so the rendered table is byte-identical at any worker count.
func TestParallelFiguresMatchSerial(t *testing.T) {
	tiny := reducedSimScale(30, 1)

	figs := []struct {
		name string
		fn   func(SimScale) (*Table, error)
	}{
		{"fig14", Fig14},
		{"fig16", Fig16},
		{"fig17", Fig17},
		{"fig23", Fig23},
		{"ext-tree-failure", ExtTreeFailure},
		{"ext-catalog", ExtCatalog},
		{"ext-failover", ExtFailover},
		{"ext-scale", ExtScale},
		{"fault-churn", func(s SimScale) (*Table, error) { return FaultScenario(s, "churn") }},
		{"ablation-adaptive", AblationAdaptive},
	}
	for _, f := range figs {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			serial := tiny
			serial.Parallel = 1
			parallel := tiny
			parallel.Parallel = 4

			st, err := f.fn(serial)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			pt, err := f.fn(parallel)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if st.String() != pt.String() {
				t.Errorf("parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", st.String(), pt.String())
			}
			if st.SimEvents == 0 || st.SimEvents != pt.SimEvents {
				t.Errorf("SimEvents: serial %d, parallel %d (want equal, nonzero)", st.SimEvents, pt.SimEvents)
			}
		})
	}
}
