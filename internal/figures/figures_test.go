package figures

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/core"
	"cdnconsistency/internal/federation"
	"cdnconsistency/internal/traceimport"
)

var (
	envOnce sync.Once
	envVal  *TraceEnv
	envErr  error
)

func smallEnv(t *testing.T) *TraceEnv {
	t.Helper()
	envOnce.Do(func() {
		envVal, envErr = NewTraceEnv(SmallTraceScale())
	})
	if envErr != nil {
		t.Fatalf("NewTraceEnv: %v", envErr)
	}
	return envVal
}

func checkTable(t *testing.T, tab *Table, err error, wantID string) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", wantID, err)
	}
	if tab.ID != wantID {
		t.Errorf("ID = %s, want %s", tab.ID, wantID)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: no rows", wantID)
	}
	s := tab.String()
	if !strings.Contains(s, wantID) || !strings.Contains(s, "\t") {
		t.Errorf("%s: String() malformed:\n%s", wantID, s)
	}
}

// pinOf is the sha256 prefix the Section-3 pins compare.
func pinOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// TestTraceFigures renders every Section-3 table on the small crawl and pins
// each rendering, every row included, by a sha256 prefix of its bytes.
func TestTraceFigures(t *testing.T) {
	env := smallEnv(t)
	type gen func(*TraceEnv) (*Table, error)
	cases := []struct {
		id  string
		fn  gen
		pin string
	}{
		{"fig03", Fig03, "9a8efb395b0aa87a"}, {"fig04", Fig04, "e947e16d9b7eb832"}, {"fig05", Fig05, "0ab9dbdede15ec7d"},
		{"fig06", Fig06, "6c9f29ac23953508"}, {"fig07", Fig07, "a1f04d1ad17c90c2"}, {"fig08", Fig08, "0ad708849a26eb3c"},
		{"fig09", Fig09, "bf113159b3f0274c"}, {"fig10", Fig10, "f6e2d766f4f4896c"}, {"fig11", Fig11, "264eee610f96ad84"},
		{"fig12", Fig12, "201eeb7c92b92cdf"}, {"tree-verdict", TreeVerdictTable, "f394105fae7b7a98"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.id, func(t *testing.T) {
			tab, err := c.fn(env)
			checkTable(t, tab, err, c.id)
			if got := pinOf([]byte(tab.String())); got != c.pin {
				t.Errorf("%s renders pin %s, want %s:\n%s", c.id, got, c.pin, tab)
			}
		})
	}
}

// TestTraceImportPin pins the bundle traceimport.Infer marshals from the
// same small crawl.
func TestTraceImportPin(t *testing.T) {
	env := smallEnv(t)
	b, err := traceimport.Infer(env.Dataset.Trace)
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pinOf(out), "8cff4bfafd0312e2"; got != want {
		t.Errorf("bundle pin %s, want %s:\n%s", got, want, out)
	}
}

func TestTreeVerdictConcludesUnicast(t *testing.T) {
	env := smallEnv(t)
	tab, err := TreeVerdictTable(env)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, row := range tab.Rows {
		got[row[0]] = row[1]
	}
	if got["static_tree_likely"] != "false" {
		t.Errorf("static_tree_likely = %s", got["static_tree_likely"])
	}
	if got["dynamic_tree_likely"] != "false" {
		t.Errorf("dynamic_tree_likely = %s", got["dynamic_tree_likely"])
	}
}

func TestFig06InfersTTLNear60(t *testing.T) {
	env := smallEnv(t)
	tab, err := Fig06(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[0] == "# inferred_ttl_s" {
			v, err := strconv.ParseFloat(row[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			if v < 50 || v > 75 {
				t.Errorf("inferred TTL = %v, want ~60", v)
			}
			return
		}
	}
	t.Error("inferred TTL row missing")
}

// TestSimFigures renders the Section 4-5 tables, the extensions and the
// ablations at a reduced scale and pins each rendering, every row included,
// by a sha256 prefix of its bytes, as TestTraceFigures does for Section 3.
func TestSimFigures(t *testing.T) {
	scale := reducedSimScale(40, 2)
	fed := federation.DefaultSpec(3)
	type gen func(SimScale) (*Table, error)
	cases := []struct {
		id  string
		fn  gen
		pin string
	}{
		{"fig14", Fig14, "125d33395a9c00a0"}, {"fig15", Fig15, "05065fd2ae707145"}, {"fig16", Fig16, "01b63c794d669a53"},
		{"fig17", Fig17, "77abc5c23a53d31e"}, {"fig18", Fig18, "87a74143599b2b55"},
		{"fig23", Fig23, "6eb5332271f7b521"},
		{"ext-broadcast", ExtBroadcast, "932063450043727a"},
		{"ext-tree-failure", ExtTreeFailure, "8f1d9aba99284c24"},
		{"ext-lease", ExtLease, "d4bb38bfcc4d7482"},
		{"ext-dns", ExtDNS, "67326e4184a8a7c6"},
		{"ext-regime", ExtRegime, "632ca8ddc15b66d9"},
		{"ext-catalog", ExtCatalog, "101fa8a7cfe871c1"},
		{"ext-faults", ExtFaults, "d9737fd6929c3d7d"},
		{"ext-failover", ExtFailover, "7344e0876b2fd859"},
		{"ext-scale", ExtScale, "dd381075f8249640"},
		{"fault-mixed", func(s SimScale) (*Table, error) { return FaultScenario(s, "mixed") }, "de1ad30aa23956a2"},
		{"federation-storm", func(s SimScale) (*Table, error) { return FederationStorm(s, fed) }, "483610215330cb76"},
		{"federation-flap", func(s SimScale) (*Table, error) { return FederationFlap(s, fed) }, "4a6f5a5d99fcbe91"},
		{"ablation-queue", AblationQueue, "47c43c651bdb467d"},
		{"ablation-proximity", AblationProximity, "0a56787097e2f850"},
		{"ablation-adaptive", AblationAdaptive, "e33b7b541d34b50b"},
		{"ablation-hilbert", AblationHilbert, "53fa09c860116733"},
		{"ablation-depth", AblationDepth, "fd73b6abf96d9af4"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.id, func(t *testing.T) {
			t.Parallel()
			tab, err := c.fn(scale)
			checkTable(t, tab, err, c.id)
			if got := pinOf([]byte(tab.String())); got != c.pin {
				t.Errorf("%s renders pin %s, want %s:\n%s", c.id, got, c.pin, tab)
			}
		})
	}
}

// TestExtCatalogShape checks ext-catalog's bills at the small scale. The
// planned fleet misses no budget by more than 5 s and costs fewer KB than
// all-Push; all-TTL misses the tight budgets by more.
func TestExtCatalogShape(t *testing.T) {
	tab, err := ExtCatalog(SmallSimScale())
	checkTable(t, tab, err, "ext-catalog")
	fleet := map[string][]float64{}
	for _, row := range tab.Rows {
		for _, col := range row[1:] {
			v, err := strconv.ParseFloat(col, 64)
			if err != nil {
				t.Fatalf("row %v: %v", row, err)
			}
			fleet[row[0]] = append(fleet[row[0]], v)
		}
	}
	const kb, worstMiss = 0, 3
	planned, allPush, allTTL := fleet["planned"], fleet["all-push"], fleet["all-ttl"]
	if len(planned) != 4 || len(allPush) != 4 || len(allTTL) != 4 {
		t.Fatalf("fleet rows missing:\n%s", tab)
	}
	if planned[worstMiss] > 5 || planned[kb] >= allPush[kb] || allTTL[worstMiss] <= 5 {
		t.Errorf("planned fleet worst miss %.2f s and %.0f KB (all-Push %.0f KB), all-TTL worst miss %.2f s:\n%s",
			planned[worstMiss], planned[kb], allPush[kb], allTTL[worstMiss], tab)
	}
}

// TestExtCatalogSimulatesEachRunOnce checks that ext-catalog asks for each
// (content, method) run once: the planned fleet adds no cell to the three
// per publishing content, and no two cells share a run.
func TestExtCatalogSimulatesEachRunOnce(t *testing.T) {
	scale := SmallSimScale()
	type run struct {
		content int64
		method  consistency.Method
	}
	var (
		mu    sync.Mutex
		runs  = map[run]int{}
		keys  = map[string]bool{}
		cells int
	)
	scale.observe = func(c cell) {
		opts, err := c.options(scale.Seed)
		if err != nil {
			t.Error(err)
			return
		}
		key, err := core.Key(c.sys, opts...)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		cells++
		runs[run{c.seedOffset, c.sys.Method}]++
		keys[key] = true
	}
	tab, err := ExtCatalog(scale)
	checkTable(t, tab, err, "ext-catalog")
	contents := map[int64]bool{}
	for r, n := range runs {
		contents[r.content] = true
		if n != 1 {
			t.Errorf("content %d under %v asked for %d times", r.content, r.method, n)
		}
	}
	if cells != 3*len(contents) || len(keys) != cells || len(contents) < 20 {
		t.Errorf("%d cells with %d distinct runs for %d contents, want 3 per content, each distinct", cells, len(keys), len(contents))
	}
}

// TestExtCatalogRejectsBadScale checks that a scale too small to give each
// content a server is an error, not a run.
func TestExtCatalogRejectsBadScale(t *testing.T) {
	for _, servers := range []int{0, 1} {
		scale := SmallSimScale()
		scale.Scenario.Servers = servers
		if tab, err := ExtCatalog(scale); err == nil {
			t.Errorf("%d servers accepted:\n%s", servers, tab)
		}
	}
}

// TestSimFiguresSweeps pins the scalability sweeps and the Section 5
// figures the same way, at a smaller scale still.
func TestSimFiguresSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep figures are slow")
	}
	scale := reducedSimScale(30, 2)
	type gen func(SimScale) (*Table, error)
	cases := []struct {
		id  string
		fn  gen
		pin string
	}{
		{"fig19", Fig19, "22557b5d527a8c9b"}, {"fig20", Fig20, "dcee0c48b59323e0"}, {"fig22", Fig22, "5fcb4347d5d03542"}, {"fig24", Fig24, "f9e7ef41a2b2b4c1"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.id, func(t *testing.T) {
			t.Parallel()
			tab, err := c.fn(scale)
			checkTable(t, tab, err, c.id)
			if got := pinOf([]byte(tab.String())); got != c.pin {
				t.Errorf("%s renders pin %s, want %s:\n%s", c.id, got, c.pin, tab)
			}
		})
	}
}

func TestTableString(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Note: "n", Header: []string{"a", "b"}}
	tab.AddRow("1", "2")
	s := tab.String()
	for _, want := range []string{"== x: demo ==", "# paper: n", "a\tb", "1\t2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if f1(1.25) != "1.2" && f1(1.25) != "1.3" {
		t.Errorf("f1 = %s", f1(1.25))
	}
	if f2(3.14159) != "3.14" || f3(3.14159) != "3.142" || f4(0.5) != "0.5000" {
		t.Error("f2/f3/f4 wrong")
	}
	if d0(7) != "7" {
		t.Error("d0 wrong")
	}
	if !strings.Contains(e2(12345.0), "e+04") {
		t.Errorf("e2 = %s", e2(12345.0))
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := &Table{ID: "figX", Title: "demo", Note: "paper said so", Header: []string{"a", "b"}}
	tab.AddRow("1", "2")
	tab.AddRow("# summary_metric", "3.14")
	md := tab.Markdown()
	for _, want := range []string{
		"### figX — demo",
		"*Paper:* paper said so",
		"| a | b |",
		"| 1 | 2 |",
		"- **summary_metric**: 3.14",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q:\n%s", want, md)
		}
	}
}

func TestTableMarkdownNoSummary(t *testing.T) {
	tab := &Table{ID: "y", Title: "t", Header: []string{"x"}}
	tab.AddRow("v")
	md := tab.Markdown()
	if strings.Contains(md, "- **") {
		t.Errorf("unexpected summary bullets:\n%s", md)
	}
	if strings.Contains(md, "*Paper:*") {
		t.Errorf("unexpected note:\n%s", md)
	}
}
