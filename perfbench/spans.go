package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a top-level span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	// Pass numbers the timed passes from 0; setup repetitions and
	// ablations are -1.
	Pass    int   `json:"pass"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// SelfNS is the span's duration minus the time its children cover;
	// it is filled in when the spans are written out.
	SelfNS int64 `json:"self_ns"`
	// Process CPU and Go runtime counters over the span.
	CPUSeconds   float64 `json:"cpu_s"`
	GCCPUSeconds float64 `json:"gc_cpu_s"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	GCCycles     uint64  `json:"gc_cycles"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// counters is a reading of the process and Go runtime counters a span
// records as deltas.
type counters struct {
	cpu, gcCPU       float64
	allocs, gcCycles uint64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readCounters(samples []metrics.Sample) counters {
	metrics.Read(samples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	return counters{
		cpu:      cpu,
		gcCPU:    samples[0].Value.Float64(),
		allocs:   samples[1].Value.Uint64(),
		gcCycles: samples[2].Value.Uint64(),
	}
}

// tracer keeps spans in memory. When off, start and stop do nothing, so
// the same pass code runs traced and untraced.
type tracer struct {
	on       bool
	workload string
	pass     int
	origin   time.Time
	spans    []span
	open     []int // stack of unfinished span IDs
	begin    []counters
	samples  []metrics.Sample
}

func newTracer(on bool, workload string) *tracer {
	t := &tracer{on: on, workload: workload, origin: time.Now()}
	for _, name := range runtimeSamples {
		t.samples = append(t.samples, metrics.Sample{Name: name})
	}
	return t
}

// start opens a span under the innermost open one and returns its ID.
func (t *tracer) start(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Pass: t.pass})
	t.open = append(t.open, id)
	t.begin = append(t.begin, readCounters(t.samples))
	t.spans[id].StartNS = time.Since(t.origin).Nanoseconds()
	return id
}

// stop closes span id, which must be the innermost open span.
func (t *tracer) stop(id int) {
	if !t.on {
		return
	}
	end := time.Since(t.origin).Nanoseconds()
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	c, b := readCounters(t.samples), t.begin[n-1]
	s := &t.spans[id]
	s.EndNS = end
	s.CPUSeconds = c.cpu - b.cpu
	s.GCCPUSeconds = c.gcCPU - b.gcCPU
	s.AllocBytes = c.allocs - b.allocs
	s.GCCycles = c.gcCycles - b.gcCycles
	t.open, t.begin = t.open[:n-1], t.begin[:n-1]
}

// fillSelf sets every span's self time. Children of one span run one after
// another on one goroutine, so the time they cover is the sum of their
// durations.
func fillSelf(spans []span) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for i := range spans {
		spans[i].SelfNS = spans[i].EndNS - spans[i].StartNS - child[i]
	}
}

// writeSpans writes the host record and then one span per line as JSON.
func writeSpans(path string, h host, spans []span) error {
	fillSelf(spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(h); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// perRoot sums the durations of the spans named name under each top-level
// span named root, and returns one total per such root, in start order.
func perRoot(spans []span, root, name string) []float64 {
	var roots []int
	sums := map[int]float64{}
	for _, s := range spans {
		if s.Parent < 0 && s.Name == root {
			roots = append(roots, s.ID)
			sums[s.ID] = 0
		}
	}
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		r := s.ID
		for spans[r].Parent >= 0 {
			r = spans[r].Parent
		}
		if _, ok := sums[r]; ok {
			sums[r] += s.seconds()
		}
	}
	out := make([]float64, len(roots))
	for i, r := range roots {
		out[i] = sums[r]
	}
	return out
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
