package figures

import (
	"context"
	"errors"
	"testing"

	"cdnconsistency/internal/core"
)

// reducedSimScale is the small scale cut to servers servers with users
// end-users each, in 5 clusters.
func reducedSimScale(servers, users int) SimScale {
	s := SmallSimScale()
	s.Scenario.Servers = servers
	s.Scenario.UsersPerServer = &users
	s.Scenario.Clusters = 5
	return s
}

func tinySimScale() SimScale {
	s := reducedSimScale(30, 1)
	s.Parallel = 2
	return s
}

// fig16's runs are fig14's plus fig15's. With one run table, fig16 after
// those two simulates nothing, and it renders byte-identically to a fig16
// that shares nothing.
func TestRunTableSharesRuns(t *testing.T) {
	alone, err := Fig16(tinySimScale())
	if err != nil {
		t.Fatal(err)
	}
	shared := tinySimScale()
	shared.Runs = NewRunTable()
	for _, fig := range []func(SimScale) (*Table, error){Fig14, Fig15} {
		if _, err := fig(shared); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Fig16(shared)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != alone.String() {
		t.Errorf("shared fig16 differs:\n--- alone ---\n%s--- shared ---\n%s", alone.String(), got.String())
	}
	if alone.SimEvents == 0 || got.SimEvents != 0 {
		t.Errorf("SimEvents: alone %d, shared %d (want nonzero, zero)", alone.SimEvents, got.SimEvents)
	}
}

// A run that fails, here cancelled through its context, is not stored: a
// later request simulates it again.
func TestRunTableDropsFailedRuns(t *testing.T) {
	alone, err := Fig14(tinySimScale())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := tinySimScale()
	s.Runs = NewRunTable()
	s.Ctx = ctx
	if _, err := Fig14(s); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fig14: err = %v, want context.Canceled", err)
	}
	s.Ctx = nil
	got, err := Fig14(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != alone.String() || got.SimEvents != alone.SimEvents {
		t.Errorf("fig14 after a cancelled run: %d events, want %d\n%s", got.SimEvents, alone.SimEvents, got.String())
	}
}

// Concurrent requests for one run wait on its single simulation and share
// its Result; the figure is charged that simulation's events once.
func TestRunTableConcurrentRequests(t *testing.T) {
	s := tinySimScale()
	s.Parallel = 4
	s.Runs = NewRunTable()
	tab := &Table{ID: "dup"}
	results, err := s.run(tab, 4, func(int) cell { return cell{sys: core.SystemPush, sc: s.Scenario} })
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != results[0] {
			t.Errorf("result %d is not the shared run", i)
		}
	}
	if tab.SimEvents == 0 || tab.SimEvents != results[0].Events {
		t.Errorf("SimEvents = %d, want one run's %d", tab.SimEvents, results[0].Events)
	}
}
