package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestContextCancelSkipsQueuedJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := make([]Job[int], 6)
	var ran atomic.Int32
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{ID: fmt.Sprintf("j%d", i), Run: func(*Metrics) (int, error) {
			ran.Add(1)
			if i == 0 {
				cancel() // the running job observes cancellation mid-sweep
			}
			return i, nil
		}}
	}
	// Serial pool: job 0 runs and cancels; 1..5 must never start.
	results := All(jobs, Options{Workers: 1, Context: ctx})
	if results[0].Err != nil || results[0].Value != 0 {
		t.Fatalf("in-flight job aborted by pool: %+v", results[0])
	}
	for _, r := range results[1:] {
		if !errors.Is(r.Err, ErrCanceled) {
			t.Errorf("job %s: err = %v, want ErrCanceled", r.ID, r.Err)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %s: cancellation cause not preserved: %v", r.ID, r.Err)
		}
	}
	if got := ran.Load(); got != 1 {
		t.Errorf("%d jobs ran after cancellation, want 1", got)
	}
}

func TestContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := All([]Job[int]{
		{ID: "a", Run: func(*Metrics) (int, error) { t.Error("job ran"); return 0, nil }},
	}, Options{Workers: 4, Context: ctx})
	if !errors.Is(results[0].Err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", results[0].Err)
	}
}

// Regression: every early-return path — fail-fast, emit abort, context
// cancellation — must drain its worker goroutines before returning. A leaked
// worker would accumulate across sweep invocations and eventually exhaust
// the scheduler.
func TestNoWorkerGoroutineLeakOnEarlyReturn(t *testing.T) {
	baseline := runtime.NumGoroutine()

	fail := errors.New("boom")
	jobs := make([]Job[int], 32)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{ID: fmt.Sprintf("j%d", i), Run: func(*Metrics) (int, error) {
			if i == 3 {
				return 0, fail
			}
			return i, nil
		}}
	}

	// Fail-fast trip.
	All(jobs, Options{Workers: 8, FailFast: true})
	// Emit abort.
	_ = ForEachOrdered(jobs, Options{Workers: 8}, func(i int, r Result[int]) error {
		if i == 2 {
			return fail
		}
		return nil
	})
	// Context cancellation mid-run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	All(jobs, Options{Workers: 8, Context: ctx})

	// Workers exit after wg.Wait inside the calls above, but give the
	// runtime a moment to reap them before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
}

// Satellite coverage for the nesting case the package docs promise is safe:
// the outer pool's context is cancelled from inside a *nested* Collect worker
// mid-dispatch. The in-flight outer job (including its whole inner fan-out)
// must complete untouched; undispatched outer jobs must report ErrCanceled
// with the cause preserved; inner pools never observe the outer context.
func TestForEachOrderedCancelMidDispatchNestedCollect(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const outer, inner = 8, 16
	wantSum := func(i int) int {
		sum := 0
		for k := 0; k < inner; k++ {
			sum += i*inner + k
		}
		return sum
	}
	jobs := make([]Job[int], outer)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{ID: fmt.Sprintf("outer%d", i), Run: func(*Metrics) (int, error) {
			parts, err := Collect(4, inner, func(k int) (int, error) {
				if i == 0 && k == inner/2 {
					cancel() // lands mid-dispatch, from a nested worker goroutine
				}
				return i*inner + k, nil
			})
			if err != nil {
				return 0, err
			}
			sum := 0
			for _, p := range parts {
				sum += p
			}
			return sum, nil
		}}
	}
	var emitted int
	err := ForEachOrdered(jobs, Options{Workers: 1, Context: ctx}, func(idx int, r Result[int]) error {
		if idx != emitted {
			t.Errorf("emit order broken: got %d, want %d", idx, emitted)
		}
		emitted++
		if idx == 0 {
			if r.Err != nil || r.Value != wantSum(0) {
				t.Errorf("cancelling job's own fan-out was disturbed: %+v", r)
			}
			return nil
		}
		if !errors.Is(r.Err, ErrCanceled) {
			t.Errorf("job %d: err = %v, want ErrCanceled", idx, r.Err)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: cancellation cause not preserved: %v", idx, r.Err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != outer {
		t.Fatalf("emitted %d results, want %d (cancelled jobs still emit)", emitted, outer)
	}

	// Same shape with parallel outer workers: results are either a correct
	// full fan-out sum or a cancellation — never a partial sum — and the
	// pool still emits every result in order.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	jobs2 := make([]Job[int], outer)
	for i := range jobs2 {
		i := i
		jobs2[i] = Job[int]{ID: fmt.Sprintf("p%d", i), Run: func(*Metrics) (int, error) {
			parts, err := Collect(4, inner, func(k int) (int, error) {
				if i == 2 && k == 0 {
					cancel2()
				}
				return i*inner + k, nil
			})
			if err != nil {
				return 0, err
			}
			sum := 0
			for _, p := range parts {
				sum += p
			}
			return sum, nil
		}}
	}
	canceled := 0
	for idx, r := range All(jobs2, Options{Workers: 3, Context: ctx2}) {
		switch {
		case r.Err == nil:
			if r.Value != wantSum(idx) {
				t.Errorf("job %d: partial fan-out sum %d, want %d", idx, r.Value, wantSum(idx))
			}
		case errors.Is(r.Err, ErrCanceled):
			canceled++
		default:
			t.Errorf("job %d: unexpected error %v", idx, r.Err)
		}
	}
	if canceled == 0 {
		t.Error("cancellation from a nested worker never skipped any outer job")
	}
}
