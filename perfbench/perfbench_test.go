package main

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/netmodel"
	"cdnconsistency/internal/workload"
)

var workloadNames = []string{"cohort-visits", "update-storm", "crawl-replay"}

func tinyWorkload(t *testing.T, name string) benchWorkload {
	t.Helper()
	w, err := newWorkload(name, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkloadsPassAtTinySize runs every workload untraced and traced at a
// tiny size: every check passes, every end-to-end metric is measured and
// positive, and every metric either run gives is declared in
// BENCHMARK.json, whose per-layer metrics the three traced runs cover.
func TestWorkloadsPassAtTinySize(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			out, err := measure(name, tinyWorkload(t, name), options{seed: 3, trace: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Fatalf("%s traced=%v: %d of %d operations failed: %v", name, traced, out.failed, out.attempted, out.failures)
			}
			declared := sp.EndToEnd
			if traced {
				declared = sp.PerLayer
			}
			res, err := report(io.Discard, out, declared, !traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || len(res.Metrics) != len(declared) {
				t.Fatalf("%s traced=%v: correct=%v with %d metrics, want %d", name, traced, res.Correct, len(res.Metrics), len(declared))
			}
			for k, v := range res.Metrics {
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, v.Value)
				}
				if traced && v.Value != 0 {
					covered[k] = true
				}
			}
		}
	}
	// Push sends no light messages, the storm books no visit traffic, and
	// the tracing overhead may read 0 at this size.
	mayBeZero := map[string]bool{
		"netmodel.msgs.light.Push":           true,
		"netmodel.msgs.content.Push":         true,
		"netmodel.msgs.content.Invalidation": true,
		"trace.overhead_frac":                true,
	}
	for _, m := range sp.PerLayer {
		if !covered[m.Name] && !mayBeZero[m.Name] {
			t.Errorf("per-layer metric %s is zero on every workload", m.Name)
		}
	}
}

// TestWrongPinFailsEveryOperation shows the digest gate bites: with every
// operation pinned to a wrong digest, failed_frac is 1.
func TestWrongPinFailsEveryOperation(t *testing.T) {
	for _, name := range workloadNames {
		w := tinyWorkload(t, name)
		pins := map[string]string{}
		for _, op := range []string{"TTL", "HAT", "Push", "Invalidation", "crawl"} {
			pins[op] = "000000000000000000000000"
		}
		out, err := measure(name, w, options{seed: 3, pins: pins})
		if err != nil {
			t.Fatal(err)
		}
		if out.failedFrac() != 1 {
			t.Errorf("%s: failed_frac = %v with wrong pins, want 1", name, out.failedFrac())
		}
	}
}

// corruptLog is the crawl workload with one server moved in the access-log
// encoding only, so the two encodings no longer hold the same crawl.
type corruptLog struct{ *crawlWorkload }

func (c corruptLog) setup(tr *tracer, seed int64) error {
	if err := c.crawlWorkload.setup(tr, seed); err != nil {
		return err
	}
	c.accesslog = bytes.Replace(c.accesslog, []byte(" lat="), []byte(" lat=-"), 1)
	return nil
}

func TestBundleMismatchFailsEveryOperation(t *testing.T) {
	w := corruptLog{crawlReplay(true)}
	out, err := measure("crawl-replay", w, options{seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.failedFrac() != 1 {
		t.Fatalf("failed_frac = %v with mismatched bundles, want 1", out.failedFrac())
	}
	if !strings.Contains(out.failures[0], "bundles inferred from JSONL and #cdnlog differ") {
		t.Errorf("failure %q, want a bundle mismatch", out.failures[0])
	}
}

// TestUnpinnedDigestMustRepeat shows the repeatability check: an operation
// whose digest changes between repetitions fails from then on.
func TestUnpinnedDigestMustRepeat(t *testing.T) {
	out := &outcome{digests: map[string]string{}}
	out.check(nil, []opResult{{name: "a", digest: "x"}})
	out.check(nil, []opResult{{name: "a", digest: "x"}})
	out.check(nil, []opResult{{name: "a", digest: "y"}})
	if out.attempted != 3 || out.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", out.attempted, out.failed)
	}
}

func TestResultDigest(t *testing.T) {
	base := func() *cdn.Result {
		return &cdn.Result{
			ServerAvgInconsistency: []float64{1.5, 2},
			UserObservations:       10,
			Events:                 100,
			AuditChecks:            3,
			Accounting: netmodel.Accounting{
				ByClass:  map[netmodel.Class]netmodel.ClassTotals{netmodel.ClassUpdate: {Messages: 4, KB: 4}},
				BySender: map[string]netmodel.ClassTotals{"provider": {Messages: 4}, "s1": {Messages: 1}},
			},
		}
	}
	want := resultDigest(base())
	same := base()
	same.Events, same.AuditChecks = 7, 0
	if got := resultDigest(same); got != want {
		t.Errorf("digest moved with Events/AuditChecks: %s vs %s", got, want)
	}
	for name, mutate := range map[string]func(*cdn.Result){
		"mean":  func(r *cdn.Result) { r.ServerAvgInconsistency[1] = 2.0000001 },
		"count": func(r *cdn.Result) { r.FailedVisits = 1 },
		"class": func(r *cdn.Result) {
			r.Accounting.ByClass[netmodel.ClassUpdate] = netmodel.ClassTotals{Messages: 4, KB: 5}
		},
		"sender": func(r *cdn.Result) { r.Accounting.BySender["s2"] = netmodel.ClassTotals{Messages: 1} },
	} {
		r := base()
		mutate(r)
		if resultDigest(r) == want {
			t.Errorf("%s: digest did not change", name)
		}
	}
}

func TestFixedSchedule(t *testing.T) {
	span := 20 * time.Minute
	for seed := int64(1); seed <= 5; seed++ {
		ups, err := fixedSchedule(workload.DefaultGame(), seed, 50, span)
		if err != nil {
			t.Fatal(err)
		}
		if len(ups) != 50 || ups[49].At != span {
			t.Fatalf("seed %d: %d updates ending at %v, want 50 ending at %v", seed, len(ups), ups[len(ups)-1].At, span)
		}
		for i := 1; i < len(ups); i++ {
			if ups[i].At <= ups[i-1].At || ups[i].Snapshot != i+1 {
				t.Fatalf("seed %d: update %d out of order", seed, i)
			}
		}
	}
	if _, err := fixedSchedule(workload.DefaultGame(), 1, 10_000, span); err == nil {
		t.Error("fixedSchedule accepted more updates than the game has")
	}
}

func TestSpansSelfTimeAndRoots(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "pass", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 1, Name: "b", StartNS: 15, EndNS: 25},
		{ID: 3, Parent: 0, Name: "a", StartNS: 50, EndNS: 60},
		{ID: 4, Parent: -1, Name: "setup", StartNS: 100, EndNS: 200},
		{ID: 5, Parent: 4, Name: "a", StartNS: 100, EndNS: 200},
		{ID: 6, Parent: -1, Name: "pass", StartNS: 200, EndNS: 300},
	}
	fillSelf(spans)
	var self []int64
	for _, s := range spans {
		self = append(self, s.SelfNS)
	}
	if want := []int64{60, 20, 10, 10, 0, 100, 100}; !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if got, want := perRoot(spans, "pass", "a"), []float64{40e-9, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("perRoot = %v, want %v", got, want)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
