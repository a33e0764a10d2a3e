package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"time"
)

// refNominal is the time the reference kernel is taken to need on the
// reference host. Timed metrics are reported in seconds of that host: a
// pass's host wall time times refNominal over the mean kernel time just
// before and just after it, and the set-up time times refNominal over the
// run's median kernel time.
const refNominal = 100 * time.Millisecond

// refKernel is a fixed workload, independent of the program under test,
// that the benchmark runs between passes. On a shared host the speed of
// the machine drifts by tens of percent over minutes; the kernel slows and
// speeds with it, so scaling by it takes part of the drift out of the
// timed metrics. It has two halves with different costs: sorting and
// indexing a pseudo-random array (integer work and cache misses; no
// allocation), and decoding a fixed JSON-lines buffer (parsing and
// allocation, a few MB right after a collection). Changing it changes
// every timed metric.
type refKernel struct {
	xs    []uint64
	idx   map[uint64]int
	jsonl []byte
}

type refRecord struct {
	Day      int     `json:"day"`
	Server   string  `json:"server"`
	At       int64   `json:"at"`
	Snapshot int     `json:"snapshot"`
	Lag      float64 `json:"lag"`
}

func newRefKernel() *refKernel {
	k := &refKernel{xs: make([]uint64, 1<<18), idx: make(map[uint64]int, 1<<16)}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < 20000; i++ {
		r := refRecord{Day: i % 3, Server: "s" + strconv.Itoa(i%977), At: int64(i) * 12345, Snapshot: i % 300, Lag: float64(i) / 7}
		if err := enc.Encode(r); err != nil {
			panic(err) // a fixed, encodable value
		}
	}
	k.jsonl = buf.Bytes()
	return k
}

// run does the kernel's fixed work once and returns the host time it took.
func (k *refKernel) run() time.Duration {
	start := time.Now()
	s := uint64(1)
	for i := range k.xs {
		s += 0x9e3779b97f4a7c15 // splitmix64
		z := (s ^ s>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		k.xs[i] = z ^ z>>31
	}
	slices.Sort(k.xs)
	clear(k.idx)
	for i, x := range k.xs[:1<<16] {
		k.idx[x>>16] = i
	}

	dec := json.NewDecoder(bytes.NewReader(k.jsonl))
	var records []refRecord
	for dec.More() {
		var r refRecord
		if err := dec.Decode(&r); err != nil {
			panic(err) // a fixed, valid buffer
		}
		records = append(records, r)
	}
	perServer := map[string]int{}
	for _, r := range records {
		perServer[r.Server] += r.Snapshot
	}
	if len(k.idx) == 0 || len(perServer) != 977 {
		panic(fmt.Sprintf("perfbench: reference kernel indexed %d and %d keys", len(k.idx), len(perServer)))
	}
	return time.Since(start)
}
