package analysis

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"cdnconsistency/internal/trace"
)

// userTrace builds a 1-day trace where one user alternates servers and
// observes a self-inconsistency.
func userTrace() *trace.Trace {
	mk := func(poller, server string, atSec, snap int, userView bool) trace.PollRecord {
		return trace.PollRecord{
			Day: 0, Server: server, Poller: poller,
			At: time.Duration(atSec) * time.Second, Snapshot: snap, UserView: userView,
		}
	}
	return &trace.Trace{
		Meta: trace.Meta{
			Description: "user", Days: 1,
			PollInterval: 10 * time.Second,
			DayLength:    200 * time.Second,
			ServerTTL:    60 * time.Second,
		},
		Servers: []trace.ServerInfo{{ID: "s1", ISP: 1}, {ID: "s2", ISP: 1}},
		Records: []trace.PollRecord{
			// Server-view records establish alphas (C1@10, C2@30).
			mk("p1", "s1", 10, 1, false),
			mk("p1", "s1", 30, 2, false),
			mk("p2", "s2", 40, 1, false),
			mk("p2", "s2", 60, 2, false),
			// User u1: sees C1, C2 on s1, then redirected to stale s2
			// (sees C1 again: self-inconsistency), then C2.
			mk("u1", "s1", 10, 1, true),
			mk("u1", "s1", 30, 2, true),
			mk("u1", "s2", 40, 1, true),
			mk("u1", "s2", 60, 2, true),
			mk("u1", "s2", 70, 2, true),
		},
	}
}

func TestUserViewRedirects(t *testing.T) {
	d := mustDataset(t, userTrace())
	uv, err := d.UserView(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(uv.RedirectFractions) != 1 {
		t.Fatalf("RedirectFractions = %v", uv.RedirectFractions)
	}
	// u1's transitions: s1->s1 (no), s1->s2 (yes), s2->s2 (no), s2->s2 (no).
	if math.Abs(uv.RedirectFractions[0]-0.25) > 1e-9 {
		t.Errorf("redirect fraction = %v, want 0.25", uv.RedirectFractions[0])
	}
}

func TestUserViewInconsistencyRuns(t *testing.T) {
	d := mustDataset(t, userTrace())
	uv, err := d.UserView(0)
	if err != nil {
		t.Fatal(err)
	}
	// Observations: 10(C1 fresh), 30(C2 fresh), 40(C1 < maxSeen=2:
	// inconsistent), 60(C2 consistent), 70(C2 consistent).
	if math.Abs(uv.InconsistentObservationFrac-0.2) > 1e-9 {
		t.Errorf("inconsistent frac = %v, want 0.2", uv.InconsistentObservationFrac)
	}
	// Runs: consistent [10,40)=30s, inconsistent [40,60)=20s,
	// consistent [60,70]=10s.
	if len(uv.ContinuousInconsistency) != 1 || math.Abs(uv.ContinuousInconsistency[0]-20) > 1e-9 {
		t.Errorf("inconsistency runs = %v, want [20]", uv.ContinuousInconsistency)
	}
	if len(uv.ContinuousConsistency) != 2 {
		t.Errorf("consistency runs = %v, want 2 runs", uv.ContinuousConsistency)
	}
}

func TestUserViewBadDay(t *testing.T) {
	d := mustDataset(t, userTrace())
	if _, err := d.UserView(3); err == nil {
		t.Error("bad day accepted")
	}
}

func TestInconsistentServerFraction(t *testing.T) {
	d := mustDataset(t, tinyTrace())
	frac, err := d.InconsistentServerFraction(0)
	if err != nil {
		t.Fatal(err)
	}
	// Buckets of 10s: t=10 {s1:C1 fresh}, t=20 {s2:C1 fresh},
	// t=30 {s1:C2 fresh}, t=40 {s2:C1 stale}=1, t=50 {s2:C2 fresh},
	// t=60 {s1:C3 fresh}, t=70 {s2:C2 stale}=1. Avg = 2/7.
	want := 2.0 / 7.0
	if math.Abs(frac-want) > 1e-9 {
		t.Errorf("fraction = %v, want %v", frac, want)
	}
}

func TestInconsistentServerFractionEmptyDay(t *testing.T) {
	tr := tinyTrace()
	tr.Meta.Days = 2 // day 1 has no records
	d := mustDataset(t, tr)
	frac, err := d.InconsistentServerFraction(1)
	if err != nil {
		t.Fatal(err)
	}
	if frac != 0 {
		t.Errorf("empty day fraction = %v", frac)
	}
}

func TestResampledInconsistencyRuns(t *testing.T) {
	d := mustDataset(t, userTrace())
	// At the native 10s cadence the run is 20s (one stale poll at 40,
	// cleared at 60).
	runs, err := d.ResampledInconsistencyRuns(0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || math.Abs(runs[0]-20) > 1e-9 {
		t.Errorf("runs@10s = %v, want [20]", runs)
	}
	// At a 60s cadence the user polls at 10 and 70 only — both
	// consistent, so no runs.
	runs, err = d.ResampledInconsistencyRuns(0, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Errorf("runs@60s = %v, want none", runs)
	}
	// Default period (<=0) falls back to the crawl interval.
	runs, err = d.ResampledInconsistencyRuns(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Errorf("runs@default = %v, want 1 run", runs)
	}
	if _, err := d.ResampledInconsistencyRuns(9, time.Second); err == nil {
		t.Error("bad day accepted")
	}
}

func TestUserViewOpenEndedInconsistencyRun(t *testing.T) {
	tr := userTrace()
	// Append a trailing stale observation so the day ends mid-run.
	tr.Records = append(tr.Records, trace.PollRecord{
		Day: 0, Server: "s2", Poller: "u1", At: 90 * time.Second, Snapshot: 1, UserView: true,
	})
	d := mustDataset(t, tr)
	uv, err := d.UserView(0)
	if err != nil {
		t.Fatal(err)
	}
	// Two inconsistency runs now: [40,60) = 20s and the open-ended one
	// at 90 (zero-length, flushed at last record; excluded as <=0).
	if len(uv.ContinuousInconsistency) != 1 {
		t.Errorf("inconsistency runs = %v", uv.ContinuousInconsistency)
	}
}

// TestResampledRunsInUserOrder requires the runs user by user, in user-id
// order: user k (of 16) sees one stale run of (k+1)*10 s, so the runs must
// read 10, 20, ..., 160 on every call.
func TestResampledRunsInUserOrder(t *testing.T) {
	tr := &trace.Trace{
		Meta:    trace.Meta{Days: 1, PollInterval: 10 * time.Second, DayLength: 300 * time.Second},
		Servers: []trace.ServerInfo{{ID: "s1"}},
	}
	var want []float64
	for k := 15; k >= 0; k-- {
		user := fmt.Sprintf("u%02d", k)
		stale := k + 1
		for step := 0; step <= stale+1; step++ {
			snap := 1
			if step == 0 || step == stale+1 {
				snap = 2
			}
			tr.Records = append(tr.Records, trace.PollRecord{
				Server: "s1", Poller: user, UserView: true,
				At: time.Duration(10+10*step) * time.Second, Snapshot: snap,
			})
		}
	}
	for k := 0; k < 16; k++ {
		want = append(want, float64(10*(k+1)))
	}
	d := mustDataset(t, tr)
	for call := 0; call < 5; call++ {
		runs, err := d.ResampledInconsistencyRuns(0, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(runs, want) {
			t.Fatalf("call %d: runs = %v, want %v", call, runs, want)
		}
	}
}
