package netmodel

import (
	"math"
	"testing"
)

func TestAccountBatchesBothLedgers(t *testing.T) {
	n := New(Config{})
	n.Account(atlanta, 1, ClassContent, 1000)
	n.Account(atlanta, 0.5, ClassContent, 4)
	n.Account(london, 1, ClassContent, 1)

	acct := n.Accounting()
	content := acct.ByClass[ClassContent]
	if content.Messages != 1005 || math.Abs(content.KB-1003) > 1e-9 {
		t.Errorf("content totals = %+v, want 1005 msgs, 1003 KB", content)
	}
	if content.Km != 0 || content.KmKB != 0 {
		t.Errorf("accounted traffic has nonzero distance: %+v", content)
	}
	if got := acct.BySender[atlanta.ID]; got.Messages != 1004 {
		t.Errorf("atlanta sender ledger = %+v, want 1004 msgs", got)
	}
	if got := acct.BySender[london.ID]; got.Messages != 1 {
		t.Errorf("london sender ledger = %+v, want 1 msg", got)
	}
	// The dual-ledger conservation property the auditor cross-checks must
	// hold for batched traffic exactly as for per-message sends: per-sender
	// totals and per-class totals describe the same message stream.
	var senders ClassTotals
	for _, st := range acct.BySender {
		senders.Messages += st.Messages
		senders.KB += st.KB
	}
	total := acct.Total()
	if senders.Messages != total.Messages || math.Abs(senders.KB-total.KB) > 1e-9 {
		t.Errorf("sender ledger %+v diverges from class ledger %+v", senders, total)
	}
}

func TestAccountMatchesRepeatedSendsOnCounts(t *testing.T) {
	// Message and KB totals must be the same whether a sender books one
	// batch of k or k individual zero-distance accounts.
	a := New(Config{})
	b := New(Config{})
	a.Account(atlanta, 2, ClassContent, 7)
	for i := 0; i < 7; i++ {
		b.Account(atlanta, 2, ClassContent, 1)
	}
	at, bt := a.Accounting().ByClass[ClassContent], b.Accounting().ByClass[ClassContent]
	if at.Messages != bt.Messages || math.Abs(at.KB-bt.KB) > 1e-9 {
		t.Errorf("batched %+v != repeated %+v", at, bt)
	}
}

func TestAccountIgnoresDegenerateInput(t *testing.T) {
	n := New(Config{})
	n.Account(atlanta, 1, ClassContent, 0)
	n.Account(atlanta, 1, ClassContent, -5)
	if got := n.Accounting().Total().Messages; got != 0 {
		t.Errorf("degenerate counts booked %d messages", got)
	}
	n.Account(atlanta, -3, ClassContent, 2)
	if got := n.Accounting().ByClass[ClassContent]; got.Messages != 2 || got.KB != 0 {
		t.Errorf("negative size not clamped: %+v", got)
	}
}

func TestAccountDoesNotTouchQueueState(t *testing.T) {
	// Accounted traffic must not delay real sends: the uplink queue is
	// reserved for modeled transmissions.
	plain := New(Config{})
	mixed := New(Config{})
	mixed.Account(atlanta, 1e6, ClassContent, 1000)
	if plain.Send(atlanta, london, 100, ClassUpdate, 0) != mixed.Send(atlanta, london, 100, ClassUpdate, 0) {
		t.Error("Account changed a later Send's arrival time")
	}
}
