package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// opResult is the outcome of one operation of a pass.
type opResult struct {
	name   string        // unique within a pass
	wall   time.Duration // host time in the program's calls, checks excluded
	digest string        // digest of the operation's outputs
	err    error         // an error return or a failed output check
	visits float64       // modelled user visits the operation covered
	counts map[string]float64
}

// A workload builds its inputs from a seed and then runs a fixed list of
// operations over them, once per pass.
type benchWorkload interface {
	setup(tr *tracer, seed int64) error
	pass(tr *tracer) []opResult
	// traced derives the workload's per-layer metrics after the traced
	// passes, given the operations of the last one. It may run ablations;
	// it returns their operations for checking.
	traced(tr *tracer, last []opResult) (map[string]float64, []opResult)
}

// newWorkload returns the named workload at full or tiny size.
func newWorkload(name string, tiny bool, workers int) (benchWorkload, error) {
	switch name {
	case "cohort-visits":
		return cohortVisits(tiny), nil
	case "update-storm":
		return updateStorm(tiny, workers), nil
	case "crawl-replay":
		return crawlReplay(tiny), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// options configure one benchmark run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// pins maps operation names to the digests their outputs must have;
	// operations without a pin must repeat their first digest.
	pins map[string]string
}

// Set-up is repeated at least minSetupReps times, and further while the
// repetitions take less than setupBudget, up to maxSetupReps.
const (
	minSetupReps = 5
	maxSetupReps = 200
	setupBudget  = 2 * time.Second
	// minPasses is the least number of timed passes of each kind.
	minPasses = 3
)

// outcome is what one benchmark run measured.
type outcome struct {
	attempted, failed int
	failures          []string
	digests           map[string]string // first digest per operation
	walls             []float64         // host wall seconds of the untraced timed passes
	refs              []float64         // host wall seconds of the reference kernel around the passes
	notes             []string          // further lines for the report
	metrics           map[string]float64
	spans             []span
}

func (o *outcome) failedFrac() float64 { return float64(o.failed) / float64(o.attempted) }

// check counts op and records why it failed, if it did: an error, a digest
// other than its pin, or a digest other than its first repetition's.
func (o *outcome) check(pins map[string]string, ops []opResult) {
	for _, op := range ops {
		o.attempted++
		err := op.err
		if err == nil {
			if want, ok := pins[op.name]; ok && op.digest != want {
				err = fmt.Errorf("digest %s, pinned %s", op.digest, want)
			} else if first, ok := o.digests[op.name]; ok && op.digest != first {
				err = fmt.Errorf("digest %s differs from the first repetition's %s", op.digest, first)
			}
		}
		if _, ok := o.digests[op.name]; !ok && op.err == nil {
			o.digests[op.name] = op.digest
		}
		if err != nil {
			o.failed++
			o.failures = append(o.failures, fmt.Sprintf("%s: %v", op.name, err))
		}
	}
}

// measure runs one benchmark: repeated set-up, an untimed warm-up pass,
// then timed passes for o.seconds. Untraced, it gives the end-to-end
// metrics. Traced, it alternates untraced and traced passes and gives the
// per-layer metrics.
func measure(name string, w benchWorkload, o options) (*outcome, error) {
	out := &outcome{digests: map[string]string{}, metrics: map[string]float64{}}
	tr := newTracer(o.trace, name)

	tr.pass = -1
	var setups []float64
	for begin := time.Now(); len(setups) < minSetupReps ||
		(time.Since(begin) < setupBudget && len(setups) < maxSetupReps); {
		runtime.GC()
		root := tr.start("setup")
		start := time.Now()
		err := w.setup(tr, o.seed)
		setups = append(setups, time.Since(start).Seconds())
		tr.stop(root)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
	}

	tr.on = false
	ref := newRefKernel()
	runtime.GC()
	ref.run()
	out.check(o.pins, w.pass(tr))

	// The reference kernel runs before every pass and once after the last,
	// so refs[i] and refs[i+1] bracket pass i. ratios holds each untraced
	// pass's wall time over the mean of its two.
	var walls, tracedWalls, visits, refs, rss, ratios []float64
	var untraced []int
	var lastTraced []opResult
	begin := time.Now()
	for i := 0; time.Since(begin).Seconds() < o.seconds || len(walls) < minPasses ||
		(o.trace && len(tracedWalls) < minPasses); i++ {
		traced := o.trace && i%2 == 1
		runtime.GC()
		refs = append(refs, ref.run().Seconds())
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		tr.on, tr.pass = traced, i
		root := tr.start("pass")
		ops := w.pass(tr)
		tr.stop(root)
		tr.on = false
		var wall time.Duration
		var n float64
		for _, op := range ops {
			wall += op.wall
			n += op.visits
		}
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		if traced {
			tracedWalls, lastTraced = append(tracedWalls, wall.Seconds()), ops
		} else {
			walls, visits, rss = append(walls, wall.Seconds()), append(visits, n), append(rss, peak)
			untraced = append(untraced, i)
		}
		out.check(o.pins, ops)
	}
	runtime.GC()
	refs = append(refs, ref.run().Seconds())
	for j, i := range untraced {
		ratios = append(ratios, walls[j]/((refs[i]+refs[i+1])/2))
	}
	out.walls, out.refs = walls, refs
	refS := median(refs)
	out.notes = append(out.notes,
		fmt.Sprintf("set-up repetitions %d, host wall min %.6g s max %.6g s", len(setups), slices.Min(setups), slices.Max(setups)),
		fmt.Sprintf("host wall medians: setup %.6g s, pass %.6g s, reference kernel %.6g s", median(setups), median(walls), refS))

	if !o.trace {
		// Times in seconds of the reference host (see refNominal).
		out.metrics["setup_s"] = median(setups) * refNominal.Seconds() / refS
		out.metrics["wall_s"] = median(ratios) * refNominal.Seconds()
		out.metrics["visits_per_s"] = median(visits) / out.metrics["wall_s"]
		out.metrics["peak_rss_mb"] = median(rss)
		out.metrics["success_frac"] = 1 - out.failedFrac()
		return out, nil
	}

	tr.on = true
	layers, extra := w.traced(tr, lastTraced)
	out.check(o.pins, extra)
	for k, v := range layers {
		out.metrics[k] = v
	}
	for _, l := range []struct{ metric, span string }{
		{"topology.generate_s", "topology.generate"},
		{"workload.population_s", "workload.population"},
		{"workload.schedule_s", "workload.schedule"},
		{"tracegen.generate_s", "tracegen.generate"},
		{"trace.encode_s", "trace.encode"},
	} {
		out.metrics[l.metric] = median(perRoot(tr.spans, "setup", l.span))
	}
	var setupAlloc, passAlloc, gcCycles []float64
	var cpu, gcCPU float64
	for _, s := range tr.spans {
		switch {
		case s.Parent >= 0:
		case s.Name == "setup":
			setupAlloc = append(setupAlloc, float64(s.AllocBytes)/1e6)
		case s.Name == "pass":
			passAlloc = append(passAlloc, float64(s.AllocBytes)/1e6)
			gcCycles = append(gcCycles, float64(s.GCCycles))
			cpu += s.CPUSeconds
			gcCPU += s.GCCPUSeconds
		}
	}
	out.metrics["go.alloc_mb.setup"] = median(setupAlloc)
	out.metrics["go.alloc_mb.pass"] = median(passAlloc)
	out.metrics["go.gc_cycles"] = median(gcCycles)
	if cpu > 0 {
		out.metrics["go.gc_cpu_frac"] = gcCPU / cpu
	}
	out.metrics["trace.overhead_frac"] = median(tracedWalls)/median(walls) - 1
	out.metrics["bench.ref_kernel_s"] = refS
	out.spans = tr.spans
	return out, nil
}

// resetPeakRSS sets the process's resident-set high-water mark to its
// current resident set, so the next reading covers one pass.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
