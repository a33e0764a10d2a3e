package plan

import (
	"encoding/xml"
	"fmt"
	"sort"
	"strings"
)

// JUnit report rendering: one testsuite per plan, one testcase per cell,
// failed assertions as <failure> with the assertion messages, execution
// errors as <error>, and the cell's full metric map in <system-out> so a CI
// artifact is enough to recalibrate an SLO. No wall-clock attributes are
// emitted: the report is a pure function of the cell results, byte-identical
// across -parallel settings.

type junitSuites struct {
	XMLName  xml.Name     `xml:"testsuites"`
	Tests    int          `xml:"tests,attr"`
	Failures int          `xml:"failures,attr"`
	Errors   int          `xml:"errors,attr"`
	Suites   []junitSuite `xml:"testsuite"`
}

type junitSuite struct {
	Name     string      `xml:"name,attr"`
	Tests    int         `xml:"tests,attr"`
	Failures int         `xml:"failures,attr"`
	Errors   int         `xml:"errors,attr"`
	Cases    []junitCase `xml:"testcase"`
}

type junitCase struct {
	Name      string    `xml:"name,attr"`
	Classname string    `xml:"classname,attr"`
	Failure   *junitMsg `xml:"failure,omitempty"`
	Error     *junitMsg `xml:"error,omitempty"`
	SystemOut string    `xml:"system-out,omitempty"`
}

type junitMsg struct {
	Message string `xml:"message,attr"`
	Body    string `xml:",chardata"`
}

// JUnit renders the cells as a junit-style XML document. Cells are grouped
// into testsuites by plan, preserving first-appearance order.
func JUnit(cells []*CellResult) ([]byte, error) {
	doc := junitSuites{}
	index := map[string]int{}
	for _, r := range cells {
		i, ok := index[r.Plan]
		if !ok {
			i = len(doc.Suites)
			index[r.Plan] = i
			doc.Suites = append(doc.Suites, junitSuite{Name: r.Plan})
		}
		tc := junitCase{Name: r.ID, Classname: r.Plan, SystemOut: systemOut(r)}
		doc.Tests++
		doc.Suites[i].Tests++
		switch {
		case r.Err != "":
			tc.Error = &junitMsg{Message: "run failed", Body: r.Err}
			doc.Errors++
			doc.Suites[i].Errors++
		case r.Failed():
			failed := 0
			for _, c := range r.Checks {
				if !c.OK {
					failed++
				}
			}
			tc.Failure = &junitMsg{
				Message: fmt.Sprintf("%d assertion(s) failed", failed),
				Body:    r.FailureDetail(),
			}
			doc.Failures++
			doc.Suites[i].Failures++
		}
		doc.Suites[i].Cases = append(doc.Suites[i].Cases, tc)
	}
	data, err := xml.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("plan: junit: %w", err)
	}
	return append([]byte(xml.Header), append(data, '\n')...), nil
}

// systemOut renders the cell's metrics as sorted "name=value" lines.
func systemOut(r *CellResult) string {
	if len(r.Metrics) == 0 {
		return ""
	}
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s\n", k, fnum(r.Metrics[k]))
	}
	return b.String()
}
