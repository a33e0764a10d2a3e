package figures

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"cdnconsistency/internal/core"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/federation"
	"cdnconsistency/internal/plan"
	"cdnconsistency/internal/traceimport"
)

// TestCellsRoundTripThroughPlans writes every cell the simulation figures
// run at a reduced scale as a one-cell plan file, loads it back through
// plan.LoadFile (which validates it for its system) and checks that the
// loaded cell is the same run: the same core.Key, or, for the imported
// deployment, whose prebuilt topology has no key, the same Result.
func TestCellsRoundTripThroughPlans(t *testing.T) {
	defer func(w io.Writer) { ExtScalePerfOutput = w }(ExtScalePerfOutput)
	ExtScalePerfOutput = io.Discard
	bundlePath := filepath.Join("..", "..", "plans", "bundles", "smoke.json")
	bundle, _, err := traceimport.LoadAny(bundlePath)
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu    sync.Mutex
		cells []cell
	)
	scale := reducedSimScale(30, 1)
	scale.Parallel = 2
	scale.Runs = NewRunTable()
	scale.observe = func(c cell) {
		mu.Lock()
		cells = append(cells, c)
		mu.Unlock()
	}
	fed := federation.DefaultSpec(3)
	figs := map[string]func() (*Table, error){
		"import-replay":    func() (*Table, error) { return ImportReplay(scale, bundlePath, bundle) },
		"federation-storm": func() (*Table, error) { return FederationStorm(scale, fed) },
		"federation-flap":  func() (*Table, error) { return FederationFlap(scale, fed) },
	}
	for id, fn := range map[string]func(SimScale) (*Table, error){
		"fig14": Fig14, "fig15": Fig15, "fig16": Fig16, "fig17": Fig17, "fig18": Fig18,
		"fig19": Fig19, "fig20": Fig20, "fig22": Fig22, "fig23": Fig23, "fig24": Fig24,
		"ext-broadcast": ExtBroadcast, "ext-tree-failure": ExtTreeFailure, "ext-lease": ExtLease,
		"ext-dns": ExtDNS, "ext-regime": ExtRegime, "ext-faults": ExtFaults, "ext-failover": ExtFailover,
		"ext-scale": ExtScale, "ablation-queue": AblationQueue, "ablation-adaptive": AblationAdaptive,
		"ablation-depth": AblationDepth,
	} {
		figs[id] = func() (*Table, error) { return fn(scale) }
	}
	for _, name := range fault.ScenarioNames() {
		figs["fault-"+name] = func() (*Table, error) { return FaultScenario(scale, name) }
	}
	for id, fn := range figs {
		if _, err := fn(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}

	dir := t.TempDir()
	data, err := bundle.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bundle.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	imports := 0
	for i, c := range cells {
		id := fmt.Sprintf("%s %+v", systemLabel(c.sys), c.sc)
		p := plan.Plan{
			Name:     fmt.Sprintf("cell-%03d", i),
			Systems:  []string{systemLabel(c.sys)},
			Seeds:    []int64{scale.Seed},
			Scenario: c.sc,
			Assert:   []plan.Assertion{{Metric: "crashes", Op: ">="}},
		}
		if p.Import != "" {
			p.Import = "bundle.json"
			imports++
		}
		data, err := p.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		path := filepath.Join(dir, p.Name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := plan.LoadFile(path)
		if err != nil {
			t.Fatalf("%s does not load back: %v\n%s", id, err, data)
		}
		lc, err := loaded.Cells()
		if err != nil || len(lc) != 1 {
			t.Fatalf("%s: loaded plan has cells %v, err %v", id, lc, err)
		}
		want, err := c.options(scale.Seed)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got, err := loaded.Options(lc[0].Seed)
		if err != nil {
			t.Fatalf("%s: loaded: %v", id, err)
		}
		if c.sc.Import != "" {
			// A prebuilt topology has no key: compare the runs themselves.
			wantRes, err := core.Run(c.sys, want...)
			if err != nil {
				t.Fatal(err)
			}
			gotRes, err := core.Run(lc[0].System, got...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantRes, gotRes) {
				t.Errorf("%s: the loaded cell's run differs", id)
			}
			continue
		}
		wantKey, err := core.Key(c.sys, want...)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		gotKey, err := core.Key(lc[0].System, got...)
		if err != nil {
			t.Fatalf("%s: loaded: %v", id, err)
		}
		if gotKey != wantKey {
			t.Errorf("%s: the loaded cell's key differs\n%s", id, data)
		}
	}
	if imports != len(core.Systems()) || len(cells) < 250 {
		t.Errorf("checked %d cells, %d imported: the figures were not all observed", len(cells), imports)
	}
}

// systemLabel names sys the way a plan does, as an explicit Method/Infra
// pair.
func systemLabel(sys core.System) string {
	return sys.Method.String() + "/" + sys.Infra.String()
}
