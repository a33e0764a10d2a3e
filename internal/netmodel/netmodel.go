// Package netmodel models message delivery between CDN nodes: propagation
// delay from great-circle distance, transmission delay from message size and
// uplink bandwidth, FIFO queuing at each sender's output port, and an
// inter-ISP penalty. It also accounts traffic the way the paper reports it:
// traffic cost in km*KB (Figure 16/17) and network load in km split by
// message class (Figure 23).
//
// The output-port queue is the mechanism behind the paper's scalability
// results: a provider pushing a large update to 170 unicast children
// serializes 170 transmissions on one uplink, so the last child's delay
// grows with fanout x size (Figures 19 and 20).
package netmodel

import (
	"fmt"
	"sort"
	"time"

	"cdnconsistency/internal/geo"
)

// Class categorizes messages for accounting. The paper distinguishes bulky
// update messages from light messages (polls, invalidations, maintenance).
type Class int

// Message classes.
const (
	ClassUpdate  Class = iota + 1 // content update payloads
	ClassLight                    // polls, invalidations, tree maintenance
	ClassContent                  // end-user content requests/responses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassUpdate:
		return "update"
	case ClassLight:
		return "light"
	case ClassContent:
		return "content"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Endpoint identifies one communicating node.
type Endpoint struct {
	// ID names the endpoint in the per-sender ledger.
	ID string
	// Key is the caller-assigned dense key of the endpoint's network state:
	// its output-port queue, overload factor and ledger row. A Network
	// reaches that state through a slice indexed by Key, so keys must be
	// positive and should be small and dense (1, 2, 3, ...). Endpoints that
	// share a Key are one endpoint to the network: one queue, one ledger
	// row, booked under the ID first used with that Key.
	Key        int
	Loc        geo.Point
	ISP        int
	UplinkKBps float64 // output-port capacity; <=0 means the network default
}

// The fixed terms of the delay model.
const (
	// propagationKmPerSec is the signal speed, roughly 2/3 c, typical for
	// fiber.
	propagationKmPerSec = 200000
	// baseDelay is the fixed per-message overhead (processing, last-mile).
	baseDelay = 2 * time.Millisecond
	// interISPDelay is added when source and destination ISPs differ. It
	// reproduces the paper's Section 3.4.3 finding that inter-ISP traffic
	// inflates inconsistency.
	interISPDelay = 15 * time.Millisecond
)

// Config tunes the delay model. Zero fields take the documented defaults.
type Config struct {
	// DefaultUplinkKBps is used when an endpoint does not set its own;
	// default 12500 KB/s (100 Mbit/s).
	DefaultUplinkKBps float64
	// DisableQueuing turns off output-port serialization. Used only by
	// the ablation-queue figure; the realistic model keeps it on.
	DisableQueuing bool
}

func (c Config) withDefaults() Config {
	if c.DefaultUplinkKBps <= 0 {
		c.DefaultUplinkKBps = 12500
	}
	return c
}

// Network computes delivery delays and accumulates traffic accounting.
// It is not safe for concurrent use; the discrete-event simulation is
// single-threaded by design.
//
// Per-endpoint state (output-port queue, overload factor, per-sender ledger)
// is held in dense slices indexed by an interned endpoint index, assigned
// when an endpoint's Key is first used. Send and Account reach it through
// one slice load on the caller's Key — no map lookup, no string hashing —
// and a handful of slice writes. The interning order is the deterministic
// first-use order, which fixes the order of the ledger rows, so dense
// indexing cannot leak nondeterminism into any output.
type Network struct {
	cfg Config

	// slot maps an endpoint Key to its interned index plus one (zero: not
	// yet used); ids maps the interned index back to the endpoint ID. The
	// busyUntil, overload, and bySender columns are all indexed by the
	// interned index and grown in lockstep.
	slot      []int32
	ids       []string
	busyUntil []time.Duration
	overload  []float64 // service-delay multiplier; <= 1 means none

	// byClass and bySender are the two independent ledgers over the same
	// message stream (see Accounting). byClass is indexed by Class, which is
	// a small dense enum; classMax pre-sizes it.
	byClass  []ClassTotals
	bySender []ClassTotals

	// distKm caches the great-circle distance between interned endpoint
	// pairs (key fromIdx<<32|toIdx): the haversine trigonometry is a large
	// fraction of Send's cost and a simulation sends along a bounded set of
	// pairs millions of times. The cache assumes an endpoint ID names a
	// stable location, which is how the simulation uses the model.
	distKm map[uint64]float64

	partitions map[int]map[int]bool // partition group -> isolated ISP set
}

// classMax pre-sizes the per-class ledger for the known message classes.
const classMax = int(ClassContent) + 1

// New returns a Network with the given configuration.
func New(cfg Config) *Network {
	return &Network{
		cfg:     cfg.withDefaults(),
		byClass: make([]ClassTotals, classMax),
		distKm:  make(map[uint64]float64),
	}
}

// distance returns the cached great-circle km between two interned
// endpoints, computing it on first use.
func (n *Network) distance(fi, ti int, from, to Endpoint) float64 {
	key := uint64(fi)<<32 | uint64(uint32(ti))
	if km, ok := n.distKm[key]; ok {
		return km
	}
	km := geo.DistanceKm(from.Loc, to.Loc)
	n.distKm[key] = km
	return km
}

// intern returns the dense index of the endpoint, assigning one (and
// growing every per-endpoint column) on the first use of its Key.
func (n *Network) intern(ep Endpoint) int {
	if i := n.lookup(ep.Key); i >= 0 {
		return i
	}
	if ep.Key <= 0 {
		panic(fmt.Sprintf("netmodel: endpoint %q has Key %d, want a positive key", ep.ID, ep.Key))
	}
	for ep.Key >= len(n.slot) {
		n.slot = append(n.slot, 0)
	}
	i := len(n.ids)
	n.slot[ep.Key] = int32(i + 1)
	n.ids = append(n.ids, ep.ID)
	n.busyUntil = append(n.busyUntil, 0)
	n.overload = append(n.overload, 0)
	n.bySender = append(n.bySender, ClassTotals{})
	return i
}

// lookup returns the interned index of key, or -1 if it is not yet used.
func (n *Network) lookup(key int) int {
	if uint(key) < uint(len(n.slot)) {
		return int(n.slot[key]) - 1
	}
	return -1
}

// Config returns the effective (defaulted) configuration.
func (n *Network) Config() Config { return n.cfg }

// SetPartitionGroup installs an ISP-level partition: the listed ISPs are cut
// off from every ISP outside the set until ClearPartitionGroup(group). ISPs
// inside the set still reach each other. Groups are independent, so
// overlapping partitions compose (a path is cut if any group cuts it).
func (n *Network) SetPartitionGroup(group int, isps []int) {
	if n.partitions == nil {
		n.partitions = make(map[int]map[int]bool)
	}
	set := make(map[int]bool, len(isps))
	for _, i := range isps {
		set[i] = true
	}
	n.partitions[group] = set
}

// ClearPartitionGroup heals the partition installed under group.
func (n *Network) ClearPartitionGroup(group int) { delete(n.partitions, group) }

// Reachable reports whether a message from one endpoint can currently reach
// the other, i.e. no active partition separates their ISPs.
func (n *Network) Reachable(from, to Endpoint) bool {
	for _, set := range n.partitions {
		if set[from.ISP] != set[to.ISP] {
			return false
		}
	}
	return true
}

// SetOverload multiplies the endpoint's service delay — its uplink
// serialization and per-message processing overhead — by factor until
// ClearOverload. Factors <= 1 are ignored. Models transient overload that
// slows a replica without killing it (paper Section 3.4.5).
func (n *Network) SetOverload(ep Endpoint, factor float64) {
	if factor <= 1 {
		return
	}
	n.overload[n.intern(ep)] = factor
}

// ClearOverload restores the endpoint's normal service delay.
func (n *Network) ClearOverload(ep Endpoint) {
	if i := n.lookup(ep.Key); i >= 0 {
		n.overload[i] = 0
	}
}

// PropagationDelay returns the one-way propagation component between two
// endpoints, excluding transmission and queuing.
func (n *Network) PropagationDelay(from, to Endpoint) time.Duration {
	return n.propagationFromKm(geo.DistanceKm(from.Loc, to.Loc), from, to)
}

// propagationFromKm is PropagationDelay with the distance already in hand,
// so Send computes (or cache-loads) the great-circle distance exactly once
// per message for both delay and accounting.
func (n *Network) propagationFromKm(km float64, from, to Endpoint) time.Duration {
	d := time.Duration(km/propagationKmPerSec*float64(time.Second)) + baseDelay
	if from.ISP != to.ISP {
		d += interISPDelay
	}
	return d
}

// PropagationBound returns the longest propagation component a message
// carried km can have: the PropagationDelay of a path of that length
// between two different ISPs.
func PropagationBound(km float64) time.Duration {
	return time.Duration(km/propagationKmPerSec*float64(time.Second)) + baseDelay + interISPDelay
}

// transmissionDelay is size/bandwidth on the sender's uplink.
func (n *Network) transmissionDelay(from Endpoint, sizeKB float64) time.Duration {
	bw := from.UplinkKBps
	if bw <= 0 {
		bw = n.cfg.DefaultUplinkKBps
	}
	return time.Duration(sizeKB / bw * float64(time.Second))
}

// Send records a message of sizeKB from one endpoint to another at virtual
// time now, and returns its arrival time. Queuing at the sender's output
// port is modeled: the transmission starts when the uplink frees up.
// Once both endpoints are interned and the pair's distance is cached (its
// first message), Send allocates nothing.
func (n *Network) Send(from, to Endpoint, sizeKB float64, class Class, now time.Duration) time.Duration {
	if sizeKB < 0 {
		sizeKB = 0
	}
	si := n.intern(from)
	ti := n.intern(to)
	km := n.distance(si, ti, from, to)
	tx := n.transmissionDelay(from, sizeKB)
	var slowdown time.Duration
	if factor := n.overload[si]; factor > 1 {
		// An overloaded sender serializes slower and adds processing lag.
		tx = time.Duration(float64(tx) * factor)
		slowdown = time.Duration(float64(baseDelay) * (factor - 1))
	}
	start := now
	if !n.cfg.DisableQueuing {
		if busy := n.busyUntil[si]; busy > start {
			start = busy
		}
		n.busyUntil[si] = start + tx
	}
	n.record(class, si, km, sizeKB)
	return start + tx + n.propagationFromKm(km, from, to) + slowdown
}

// Account books count identical messages of sizeKB from ep into both ledgers
// without entering the delivery path: no queuing, no delay, zero distance.
// It batches the end-user request traffic of the cohort user model — users
// are modeled co-located with their edge server, and their requests must not
// serialize on the server's update uplink — while keeping the dual-ledger
// write, so the auditor's per-sender vs per-class conservation cross-check
// still covers batched traffic. Once the endpoint is interned (its first
// send or account), Account allocates nothing.
func (n *Network) Account(ep Endpoint, sizeKB float64, class Class, count int) {
	if count <= 0 {
		return
	}
	if sizeKB < 0 {
		sizeKB = 0
	}
	si := n.intern(ep)
	for int(class) >= len(n.byClass) {
		n.byClass = append(n.byClass, ClassTotals{})
	}
	kb := sizeKB * float64(count)
	t := &n.byClass[class]
	t.Messages += count
	t.KB += kb
	s := &n.bySender[si]
	s.Messages += count
	s.KB += kb
}

// record books one transmission into both ledgers. The two aggregations are
// written independently on purpose: the auditor cross-checks them against
// each other, so a message dropped from one ledger is detectable.
func (n *Network) record(class Class, sender int, km, kb float64) {
	for int(class) >= len(n.byClass) {
		n.byClass = append(n.byClass, ClassTotals{})
	}
	t := &n.byClass[class]
	t.Messages++
	t.KB += kb
	t.Km += km
	t.KmKB += km * kb

	s := &n.bySender[sender]
	s.Messages++
	s.KB += kb
	s.Km += km
	s.KmKB += km * kb
}

// Accounting materializes a snapshot of the traffic accounting so far. The
// snapshot is an independent copy, safe to hold across further sends; for
// copy-free reads on the hot path (the auditor's per-sweep conservation
// checks) use View instead.
func (n *Network) Accounting() Accounting {
	out := newAccounting()
	for c, t := range n.byClass {
		if t.Messages != 0 {
			out.ByClass[Class(c)] = t
		}
	}
	for i, t := range n.bySender {
		if t.Messages != 0 {
			// Distinct keys may carry one ID; the snapshot books them as one
			// sender.
			cur := out.BySender[n.ids[i]]
			cur.Messages += t.Messages
			cur.KB += t.KB
			cur.Km += t.Km
			cur.KmKB += t.KmKB
			out.BySender[n.ids[i]] = cur
		}
	}
	return out
}

// View returns a copy-free read-only view over the live ledgers. The view
// observes subsequent sends; it must not be read concurrently with them.
func (n *Network) View() AccountingView { return AccountingView{n: n} }

// AccountingView is a read-only window onto a Network's live traffic
// ledgers. Unlike Accounting it copies nothing: Total and Class sum in
// place, and SenderRows hands out the dense per-sender ledger in interning
// (first-use) order — a deterministic order, since the simulation is
// single-threaded. It implements the same reader shape Accounting does, so
// the audit predicates accept either.
type AccountingView struct{ n *Network }

// Total sums all classes.
func (v AccountingView) Total() ClassTotals {
	var t ClassTotals
	for _, c := range v.n.byClass {
		t.Messages += c.Messages
		t.KB += c.KB
		t.Km += c.Km
		t.KmKB += c.KmKB
	}
	return t
}

// Class returns the totals recorded for one message class.
func (v AccountingView) Class(c Class) ClassTotals {
	if int(c) < 0 || int(c) >= len(v.n.byClass) {
		return ClassTotals{}
	}
	return v.n.byClass[c]
}

// Senders reports how many distinct endpoints have sent at least once.
func (v AccountingView) Senders() int {
	count := 0
	for _, t := range v.n.bySender {
		if t.Messages != 0 {
			count++
		}
	}
	return count
}

// SenderRows returns the per-sender ledger as parallel id and totals slices
// in interning order, without copying: both alias the live ledger and must
// not be modified. An endpoint that has only received has a zero row.
func (v AccountingView) SenderRows() ([]string, []ClassTotals) {
	return v.n.ids, v.n.bySender
}

// ClassTotals aggregates traffic for one message class.
type ClassTotals struct {
	Messages int     // number of messages sent
	KB       float64 // total payload
	Km       float64 // total transmission distance (network load, Fig. 23)
	KmKB     float64 // traffic cost (Fig. 16/17), sum of distance*size
}

// Accounting aggregates traffic twice over the same message stream: per
// message class (the figures' breakdown) and per sending endpoint (the
// per-server ledger). The two aggregations are maintained independently so
// the invariant auditor can cross-check them — per-sender totals must sum to
// the per-class totals, or a message was dropped from one ledger.
type Accounting struct {
	ByClass  map[Class]ClassTotals
	BySender map[string]ClassTotals
}

func newAccounting() Accounting {
	return Accounting{
		ByClass:  make(map[Class]ClassTotals),
		BySender: make(map[string]ClassTotals),
	}
}

// Merge folds other's totals into a, per class and per sender. It combines
// the independent per-cell ledgers of a partitioned simulation into one
// run-level snapshot: every message is booked in exactly one cell (its
// sender's), so summing is exact.
func (a Accounting) Merge(other Accounting) {
	for c, t := range other.ByClass {
		cur := a.ByClass[c]
		cur.Messages += t.Messages
		cur.KB += t.KB
		cur.Km += t.Km
		cur.KmKB += t.KmKB
		a.ByClass[c] = cur
	}
	for id, t := range other.BySender {
		cur := a.BySender[id]
		cur.Messages += t.Messages
		cur.KB += t.KB
		cur.Km += t.Km
		cur.KmKB += t.KmKB
		a.BySender[id] = cur
	}
}

// Total sums all classes.
func (a Accounting) Total() ClassTotals {
	var t ClassTotals
	for _, v := range a.ByClass {
		t.Messages += v.Messages
		t.KB += v.KB
		t.Km += v.Km
		t.KmKB += v.KmKB
	}
	return t
}

// Classes returns the classes present, sorted, for stable output.
func (a Accounting) Classes() []Class {
	out := make([]Class, 0, len(a.ByClass))
	for c := range a.ByClass {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Senders returns the sending endpoint IDs present, sorted, for stable
// iteration.
func (a Accounting) Senders() []string {
	out := make([]string, 0, len(a.BySender))
	for id := range a.BySender {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// SenderRows returns the sending endpoints and their totals as parallel
// slices in sorted-id order. It mirrors AccountingView.SenderRows so
// snapshots and live views satisfy the same reader shape.
func (a Accounting) SenderRows() ([]string, []ClassTotals) {
	ids := a.Senders()
	totals := make([]ClassTotals, len(ids))
	for i, id := range ids {
		totals[i] = a.BySender[id]
	}
	return ids, totals
}
