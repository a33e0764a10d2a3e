package figures

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/core"
	"cdnconsistency/internal/plan"
	"cdnconsistency/internal/runner"
)

// cell is one simulation run a figure asks for: a system and the scenario
// it runs, at the scale's seed plus seedOffset. The run's context is the
// driver's to add.
type cell struct {
	sys core.System
	sc  plan.Scenario
	// seedOffset is 0 but for ext-catalog, whose content i runs at the
	// scale's seed + i.
	seedOffset int64
	// ran, when set, receives the run's wall time if this figure
	// simulated it (not when the run table already held it).
	ran func(wall time.Duration)
}

// run simulates t's grid of n cells, built by at, and returns the results
// in index order. It is the one place a figure reaches the simulator: it
// validates each cell's scenario for its system, compiles it at its
// seed, adds the scale's run controls, fans the cells out over
// s.Parallel, names the figure and system in errors, and adds the events
// of the runs it simulated to t.SimEvents. With a run table, a cell whose
// run the table already holds (or is simulating) gets that shared,
// read-only Result instead of a second simulation. Every run is
// deterministic from its seed, so neither fan-out nor sharing changes a
// figure's numbers.
func (s SimScale) run(t *Table, n int, at func(i int) cell) ([]*cdn.Result, error) {
	var controls []core.Option
	if s.Ctx != nil {
		controls = append(controls, core.WithContext(s.Ctx))
	}
	simulated := make([]bool, n)
	results, err := runner.Collect(s.Parallel, n, func(i int) (*cdn.Result, error) {
		c := at(i)
		if s.observe != nil {
			s.observe(c)
		}
		opts, err := c.options(s.Seed)
		if err != nil {
			return nil, fmt.Errorf("figures: %s: %s: %w", t.ID, c.sys.Name, err)
		}
		start := time.Now()
		res, ran, err := s.Runs.get(s.Ctx, c.sys, append(opts, controls...))
		if err != nil {
			return nil, fmt.Errorf("figures: %s: %s: %w", t.ID, c.sys.Name, err)
		}
		if ran && c.ran != nil {
			c.ran(time.Since(start))
		}
		simulated[i] = ran
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		if simulated[i] {
			t.SimEvents += r.Events
		}
	}
	return results, nil
}

// options validates the cell's scenario for its system and compiles it
// into the core options of one run at the cell's seed, scaleSeed +
// seedOffset.
func (c cell) options(scaleSeed int64) ([]core.Option, error) {
	if err := c.sc.Validate(c.sys); err != nil {
		return nil, err
	}
	return c.sc.Options(scaleSeed + c.seedOffset)
}

// RunTable shares simulation runs across the figures of one sweep: each
// distinct run, keyed by core.Key, is simulated once, and every later
// request gets the same read-only Result. Concurrent requests for a key
// wait on the one in-flight run. A failed run is never stored: its waiters
// get its error, and a later request simulates it again.
type RunTable struct {
	mu   sync.Mutex
	runs map[string]*sharedRun
}

type sharedRun struct {
	done chan struct{} // closed once res and err are set
	res  *cdn.Result
	err  error
}

// NewRunTable returns an empty run table.
func NewRunTable() *RunTable {
	return &RunTable{runs: make(map[string]*sharedRun)}
}

// get returns the run of sys under opts and whether this call simulated
// it. A nil table simulates every request, and so does a table asked for a
// run without a key (a prebuilt topology). A waiter stops waiting when ctx
// is cancelled.
func (rt *RunTable) get(ctx context.Context, sys core.System, opts []core.Option) (*cdn.Result, bool, error) {
	if rt != nil {
		if key, err := core.Key(sys, opts...); err == nil {
			return rt.shared(ctx, key, sys, opts)
		}
	}
	res, err := core.Run(sys, opts...)
	return res, true, err
}

func (rt *RunTable) shared(ctx context.Context, key string, sys core.System, opts []core.Option) (*cdn.Result, bool, error) {
	rt.mu.Lock()
	if r, ok := rt.runs[key]; ok {
		rt.mu.Unlock()
		var cancelled <-chan struct{}
		if ctx != nil {
			cancelled = ctx.Done()
		}
		select {
		case <-r.done:
			return r.res, false, r.err
		case <-cancelled:
			return nil, false, ctx.Err()
		}
	}
	r := &sharedRun{done: make(chan struct{})}
	rt.runs[key] = r
	rt.mu.Unlock()

	r.res, r.err = core.Run(sys, opts...)
	if r.err != nil {
		rt.mu.Lock()
		delete(rt.runs, key)
		rt.mu.Unlock()
	}
	close(r.done)
	return r.res, true, r.err
}
