// Package figures regenerates every data figure in the paper's evaluation:
// the Section-3 measurement figures from a synthetic crawl trace, and the
// Section-4/5 evaluation figures from the cdn simulation. Each generator
// returns a Table the experiment harness prints; EXPERIMENTS.md records the
// paper-vs-measured comparison for each.
package figures

import (
	"fmt"
	"strings"
)

// Table is one figure's regenerated data series.
type Table struct {
	// ID is the figure key, e.g. "fig03".
	ID string
	// Title describes the figure as the paper captions it.
	Title string
	// Note records the paper's reported values for comparison.
	Note   string
	Header []string
	Rows   [][]string
	// SimEvents counts the discrete-simulation events behind the table,
	// when the generator reports them (sim-driven figures only). It is
	// not rendered; the experiments harness surfaces it in the -metrics
	// summary.
	SimEvents uint64
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table as tab-separated text with a header block.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "# paper: %s\n", t.Note)
	}
	b.WriteString(strings.Join(t.Header, "\t"))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func d0(v int) string     { return fmt.Sprintf("%d", v) }
func e2(v float64) string { return fmt.Sprintf("%.2e", v) }

func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}
