package audit

import (
	"math"

	"cdnconsistency/internal/netmodel"
)

// relTol is the relative tolerance for float aggregate comparisons: the
// per-class and per-sender aggregations accumulate the same messages in a
// different order, so their sums differ by rounding, never by more.
const relTol = 1e-9

// AccountingReader is the read shape the accounting predicates need. Both
// netmodel.Accounting (a materialized snapshot) and netmodel.AccountingView
// (a copy-free window onto the live ledgers) satisfy it, so the runtime
// auditor can sweep without cloning the ledger each cadence.
type AccountingReader interface {
	// Total sums the per-class ledger.
	Total() netmodel.ClassTotals
	// SenderRows returns the per-sender ledger as parallel id and totals
	// slices in a deterministic order. Rows with no messages may appear;
	// the predicates skip them.
	SenderRows() (ids []string, totals []netmodel.ClassTotals)
}

// CheckAccounting verifies the traffic accounting's conservation properties:
// every per-class and per-sender total is finite and non-negative, and the
// two independent aggregations of the same message stream — by class and by
// sending endpoint — agree on message count, payload, distance, and cost.
// A mismatch means a message was recorded in one ledger but not the other:
// exactly the silent corruption that would skew the km·KB figures.
//
// CheckAccounting allocates nothing when it passes on a copy-free reader, so
// a sweep neither clones the ledger nor builds a label per sender.
func CheckAccounting(a AccountingReader) *Violation {
	classTotal := a.Total()
	if v := checkTotals("class aggregate", classTotal); v != nil {
		return v
	}
	var senderTotal netmodel.ClassTotals
	senders := 0
	ids, rows := a.SenderRows()
	for i, t := range rows {
		if t.Messages == 0 {
			continue
		}
		senders++
		// Fast numeric check first: the violation label concatenation must
		// only be paid on the failure path, or the sweep allocates one
		// string per sender per cadence.
		if !totalsOK(t) {
			return checkTotals("sender "+ids[i], t)
		}
		senderTotal.Messages += t.Messages
		senderTotal.KB += t.KB
		senderTotal.Km += t.Km
		senderTotal.KmKB += t.KmKB
	}
	if senders == 0 && classTotal.Messages == 0 {
		return nil // nothing sent yet
	}
	if senderTotal.Messages != classTotal.Messages {
		return violationf("accounting-conservation",
			"per-sender messages %d != per-class messages %d",
			senderTotal.Messages, classTotal.Messages)
	}
	for _, c := range []struct {
		name        string
		sender, cls float64
	}{
		{"KB", senderTotal.KB, classTotal.KB},
		{"Km", senderTotal.Km, classTotal.Km},
		{"KmKB", senderTotal.KmKB, classTotal.KmKB},
	} {
		if !aggregatesAgree(c.sender, c.cls) {
			return violationf("accounting-conservation",
				"per-sender %s %.6f != per-class %s %.6f", c.name, c.sender, c.name, c.cls)
		}
	}
	return nil
}

// totalsOK is the allocation-free predicate behind checkTotals; callers on
// the hot path gate on it before paying for a labelled Violation.
func totalsOK(t netmodel.ClassTotals) bool {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }
	return t.Messages >= 0 && finite(t.KB) && finite(t.Km) && finite(t.KmKB)
}

func checkTotals(label string, t netmodel.ClassTotals) *Violation {
	if t.Messages < 0 {
		return violationf("accounting-nonnegative", "%s: %d messages", label, t.Messages)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"KB", t.KB}, {"Km", t.Km}, {"KmKB", t.KmKB}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return violationf("accounting-nonnegative", "%s: %s = %v", label, f.name, f.v)
		}
	}
	return nil
}

func aggregatesAgree(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= relTol*scale || diff < 1e-12
}
