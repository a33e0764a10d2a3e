package main

import (
	"bytes"
	"fmt"
	"time"

	"cdnconsistency/internal/analysis"
	"cdnconsistency/internal/figures"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/tracegen"
	"cdnconsistency/internal/traceimport"
)

// section3Stages are the Section-3 analyses a crawl-replay pass runs, with
// the span each is recorded under.
var section3Stages = []struct {
	span string
	fn   func(*figures.TraceEnv) (*figures.Table, error)
}{
	{"figures.fig03", figures.Fig03},
	{"figures.fig04", figures.Fig04},
	{"figures.fig05", figures.Fig05},
	{"figures.fig06", figures.Fig06},
	{"figures.fig07", figures.Fig07},
	{"figures.fig08", figures.Fig08},
	{"figures.fig09", figures.Fig09},
	{"figures.fig10", figures.Fig10},
	{"figures.fig11", figures.Fig11},
	{"figures.fig12", figures.Fig12},
	{"figures.tree_verdict", figures.TreeVerdictTable},
}

// unstableRows are Section-3 table rows that vary from run to run: Fig11
// and TreeVerdictTable rank the servers of the largest city cluster, and
// pick among equally large clusters in map iteration order. The digest
// leaves these rows out; they are still computed and timed.
var unstableRows = map[string]bool{
	"# server_rank_spread": true,
	"server_rank_spread":   true,
	"static_tree_likely":   true,
}

// crawlWorkload is the Section-3 pipeline: a synthetic crawl, encoded as
// JSONL and as a #cdnlog access log, is parsed back from both, analysed,
// and turned into a deployment bundle from each encoding.
type crawlWorkload struct {
	servers, days, users int

	// Inputs built by setup.
	jsonl, accesslog []byte
	userVisits       int // user-perspective records in the crawl
}

func crawlReplay(tiny bool) *crawlWorkload {
	if tiny {
		return &crawlWorkload{servers: 24, days: 2, users: 6}
	}
	return &crawlWorkload{servers: 32, days: 2, users: 12}
}

func (w *crawlWorkload) setup(tr *tracer, seed int64) error {
	id := tr.start("tracegen.generate")
	gen, err := tracegen.Generate(tracegen.Config{
		Topology: topology.Config{Servers: w.servers, Seed: seed},
		Days:     w.days,
		Users:    w.users,
		Seed:     seed,
	})
	tr.stop(id)
	if err != nil {
		return err
	}
	id = tr.start("trace.encode")
	defer tr.stop(id)
	// The access log promises time order; give the JSONL the same records
	// in the same order so both encodings hold one crawl.
	gen.Trace.SortRecords()
	var jsonl, accesslog bytes.Buffer
	if err := trace.Write(&jsonl, gen.Trace); err != nil {
		return err
	}
	if err := trace.WriteAccessLog(&accesslog, gen.Trace); err != nil {
		return err
	}
	w.jsonl, w.accesslog = jsonl.Bytes(), accesslog.Bytes()
	w.userVisits = 0
	for _, r := range gen.Trace.Records {
		if r.UserView {
			w.userVisits++
		}
	}
	return nil
}

// pass is one operation: parse both encodings, build the dataset, run
// every Section-3 stage, infer a bundle from each parsed trace and marshal
// both. Its digest covers the tables and the bundle, and the two bundles
// must be byte-identical.
func (w *crawlWorkload) pass(tr *tracer) []opResult {
	op := opResult{name: "crawl", visits: float64(w.userVisits)}
	start := time.Now()
	tables, bundle, err := w.replay(tr)
	op.wall = time.Since(start)
	if err != nil {
		op.err = err
		return []opResult{op}
	}
	op.digest = bytesDigest(tables, bundle)
	return []opResult{op}
}

func (w *crawlWorkload) replay(tr *tracer) (tables, bundle []byte, err error) {
	id := tr.start("trace.read_jsonl")
	fromJSONL, err := trace.Read(bytes.NewReader(w.jsonl))
	tr.stop(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.start("trace.parse_accesslog")
	fromLog, err := trace.ParseAccessLog(bytes.NewReader(w.accesslog))
	tr.stop(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.start("analysis.dataset")
	ds, err := analysis.NewDataset(fromJSONL)
	tr.stop(id)
	if err != nil {
		return nil, nil, err
	}
	env := &figures.TraceEnv{Dataset: ds}
	var out bytes.Buffer
	for _, st := range section3Stages {
		id := tr.start(st.span)
		t, err := st.fn(env)
		tr.stop(id)
		if err != nil {
			return nil, nil, err
		}
		stable := *t
		stable.Rows = nil
		for _, row := range t.Rows {
			if !unstableRows[row[0]] {
				stable.Rows = append(stable.Rows, row)
			}
		}
		out.WriteString(stable.String())
	}
	var marshaled [2][]byte
	for i, in := range []struct {
		span string
		tr   *trace.Trace
	}{{"traceimport.infer.jsonl", fromJSONL}, {"traceimport.infer.accesslog", fromLog}} {
		id := tr.start(in.span)
		b, err := traceimport.Infer(in.tr)
		tr.stop(id)
		if err != nil {
			return nil, nil, err
		}
		id = tr.start("traceimport.marshal")
		marshaled[i], err = b.Marshal()
		tr.stop(id)
		if err != nil {
			return nil, nil, err
		}
	}
	if !bytes.Equal(marshaled[0], marshaled[1]) {
		return nil, nil, fmt.Errorf("bundles inferred from JSONL and #cdnlog differ")
	}
	return out.Bytes(), marshaled[0], nil
}

// traced derives the trace, analysis and traceimport metrics from the
// traced passes.
func (w *crawlWorkload) traced(tr *tracer, _ []opResult) (map[string]float64, []opResult) {
	out := map[string]float64{}
	stage := func(span string) float64 { return median(perRoot(tr.spans, "pass", span)) }
	out["trace.read_jsonl_s"] = stage("trace.read_jsonl")
	out["trace.parse_accesslog_s"] = stage("trace.parse_accesslog")
	if out["trace.read_jsonl_s"] > 0 && out["trace.parse_accesslog_s"] > 0 {
		out["trace.jsonl_mb_per_s"] = float64(len(w.jsonl)) / 1e6 / out["trace.read_jsonl_s"]
		out["trace.accesslog_mb_per_s"] = float64(len(w.accesslog)) / 1e6 / out["trace.parse_accesslog_s"]
	}
	out["analysis.dataset_s"] = stage("analysis.dataset")
	for _, st := range section3Stages {
		out[st.span+"_s"] = stage(st.span)
	}
	out["traceimport.infer_s.jsonl"] = stage("traceimport.infer.jsonl")
	out["traceimport.infer_s.accesslog"] = stage("traceimport.infer.accesslog")
	out["traceimport.marshal_s"] = stage("traceimport.marshal")
	return out, nil
}
