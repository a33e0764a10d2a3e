// Package runner provides a bounded worker pool for independent,
// deterministic simulation jobs — the fan-out engine behind the paper-scale
// experiment grids (methods × infrastructures × parameter sweeps).
//
// Every job is assumed to be a pure function of its inputs (each cdn
// simulation builds its own engine and RNG from an explicit seed), so
// running jobs concurrently changes wall-clock time but never results.
// The pool preserves that property end to end: results are delivered in
// submission order regardless of completion order, a panicking job is
// captured as that job's error instead of killing the process, and the
// first failure is reported deterministically (lowest submission index).
//
// Pools may nest — a figure job fanned out by cmd/experiments can itself
// fan its simulation runs through Collect. Nesting multiplies the number
// of runnable goroutines, not OS threads; CPU-bound oversubscription is
// bounded by GOMAXPROCS and is harmless in practice.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"
)

// Metrics records one job's execution measurements.
type Metrics struct {
	// Wall is the job's wall-clock duration.
	Wall time.Duration
	// Events is a domain-reported progress count (for simulation jobs,
	// discrete events processed). Jobs report it via AddEvents.
	Events uint64
	// AllocBytes approximates the heap bytes allocated while the job ran.
	// The underlying counter is process-global, so concurrently running
	// jobs observe each other's allocations; treat the value as
	// indicative, not exact, whenever Workers > 1.
	AllocBytes uint64
	// Panicked reports that Err wraps a recovered panic (*PanicError).
	Panicked bool
}

// AddEvents accumulates a job-reported progress count.
func (m *Metrics) AddEvents(n uint64) { m.Events += n }

// Job is one independent unit of work.
type Job[T any] struct {
	// ID labels the job in results, errors, and panic reports.
	ID string
	// Run produces the job's value. It may report progress counts on m;
	// the pool fills the remaining Metrics fields.
	Run func(m *Metrics) (T, error)
}

// Result pairs one job's output with its measurements.
type Result[T any] struct {
	ID      string
	Value   T
	Err     error
	Metrics Metrics
}

// Options configures a pool run.
type Options struct {
	// Workers bounds the number of concurrently running jobs; a value
	// <= 0 means GOMAXPROCS.
	Workers int
	// FailFast stops handing out new jobs after the first failure; jobs
	// never started complete with ErrSkipped. Already-running jobs always
	// finish, so the lowest-index failure is always executed and its
	// error is deterministic run to run.
	FailFast bool
	// Context, when non-nil, cancels dispatch: once it is done, jobs not
	// yet started complete with an error wrapping ErrCanceled (and the
	// context's cause). In-flight jobs are not interrupted by the pool —
	// cancellation-aware jobs observe the same context themselves and
	// return early.
	Context context.Context
}

// ErrSkipped marks a job that was never started because an earlier job
// failed under FailFast.
var ErrSkipped = errors.New("runner: job skipped after earlier failure")

// ErrCanceled marks a job that was never started because the pool's context
// was cancelled.
var ErrCanceled = errors.New("runner: job canceled before start")

// PanicError is the error recorded for a job that panicked.
type PanicError struct {
	JobID string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %s panicked: %v\n%s", e.JobID, e.Value, e.Stack)
}

// All executes jobs with bounded parallelism and returns one Result per
// job, in submission order. It never fails as a whole: per-job errors
// (including captured panics) land in the corresponding Result.
func All[T any](jobs []Job[T], opts Options) []Result[T] {
	out := make([]Result[T], len(jobs))
	ForEachOrdered(jobs, opts, func(i int, r Result[T]) error { //nolint:errcheck // emit never fails
		out[i] = r
		return nil
	})
	return out
}

// ForEachOrdered executes jobs with bounded parallelism and delivers each
// result to emit in submission order, as soon as it and all its
// predecessors have finished — completion order never reorders output, so
// streamed output is byte-identical to a serial run. emit runs on the
// calling goroutine. A non-nil error from emit stops further jobs from
// being handed out and is returned once in-flight jobs drain.
func ForEachOrdered[T any](jobs []Job[T], opts Options, emit func(i int, r Result[T]) error) error {
	n := len(jobs)
	if n == 0 {
		return nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var (
		mu      sync.Mutex
		next    int   // next job index to hand out
		stopped bool  // fail-fast tripped, emit aborted, or context cancelled
		cause   error // why undispatched jobs are skipped; nil means ErrSkipped
	)
	results := make([]Result[T], n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				skip := stopped
				skipErr := cause
				mu.Unlock()

				if skip {
					if skipErr == nil {
						skipErr = ErrSkipped
					}
					results[i] = Result[T]{ID: jobs[i].ID, Err: skipErr}
					close(done[i])
					continue
				}
				if ctx := opts.Context; ctx != nil {
					select {
					case <-ctx.Done():
						// Stop dispatch and record why, so every later job
						// reports the cancellation (not a generic skip).
						err := fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
						mu.Lock()
						stopped = true
						cause = err
						mu.Unlock()
						results[i] = Result[T]{ID: jobs[i].ID, Err: err}
						close(done[i])
						continue
					default:
					}
				}
				r := execute(jobs[i])
				if r.Err != nil && opts.FailFast {
					mu.Lock()
					stopped = true
					mu.Unlock()
				}
				results[i] = r
				close(done[i])
			}
		}()
	}

	var emitErr error
	for i := 0; i < n; i++ {
		<-done[i]
		if emitErr != nil {
			continue // keep draining so workers are not leaked
		}
		if err := emit(i, results[i]); err != nil {
			emitErr = err
			mu.Lock()
			stopped = true
			mu.Unlock()
		}
	}
	wg.Wait()
	return emitErr
}

// execute runs one job, filling in its metrics and converting a panic into
// a *PanicError so one bad job cannot kill the whole run.
func execute[T any](j Job[T]) (r Result[T]) {
	r.ID = j.ID
	allocStart := heapAllocBytes()
	start := time.Now()
	defer func() {
		r.Metrics.Wall = time.Since(start)
		if end := heapAllocBytes(); end > allocStart {
			r.Metrics.AllocBytes = end - allocStart
		}
		if p := recover(); p != nil {
			r.Metrics.Panicked = true
			r.Err = &PanicError{JobID: j.ID, Value: p, Stack: debug.Stack()}
		}
	}()
	r.Value, r.Err = j.Run(&r.Metrics)
	return r
}

// heapAllocBytes reads the process's cumulative heap allocation counter
// (cheap, no stop-the-world).
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// Collect fans n indexed jobs out over workers goroutines and returns
// their values in index order. On failure it returns the error of the
// lowest-index failing job — the same error a plain serial loop would
// have returned — and nil values. workers <= 1 runs the jobs serially on
// the calling goroutine with no pool overhead, preserving the exact
// semantics of the loop it replaces (later jobs are not attempted).
func Collect[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative job count %d", n)
	}
	if workers <= 1 || n <= 1 {
		out := make([]T, n)
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	jobs := make([]Job[T], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[T]{
			ID:  strconv.Itoa(i),
			Run: func(*Metrics) (T, error) { return fn(i) },
		}
	}
	results := All(jobs, Options{Workers: workers, FailFast: true})
	out := make([]T, n)
	for i, r := range results {
		if r.Err != nil {
			if errors.Is(r.Err, ErrSkipped) {
				// Skipped jobs only follow a real failure; keep
				// scanning for it.
				continue
			}
			return nil, r.Err
		}
		out[i] = r.Value
	}
	return out, nil
}
