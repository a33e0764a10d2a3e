package cdn

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cdnconsistency/internal/audit"
	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/geo"
	"cdnconsistency/internal/netmodel"
	"cdnconsistency/internal/sim"
)

// This file holds the sharded-execution substrate: the per-cell state, the
// static topology partition, and the node-routed accessors every protocol
// path uses. A serial run is the degenerate case of exactly one cell holding
// every node — the same code executes, on the classic single engine.
//
// The partition rule keeps all protocol traffic except provider<->cell
// exchanges inside one cell: the indivisible units ("atoms") are the
// top-level communication subtrees — each child subtree of the update tree's
// root (a single server under the unicast star, a relay subtree under
// multicast, a supernode cluster under hybrid), or each flooding cluster
// under broadcast. Atoms are sorted by distance from the provider and packed
// into cells in distance bands, so the provider's nearest atoms share its cell
// and the conservative lookahead — the minimum network propagation delay
// from the provider to a node outside its cell — stays as large as the
// partition allows.
// User failover re-homes within the dead server's cell (the regional
// catchment an anycast CDN would fail over inside), so a user's entire
// lifetime stays in one cell.

// maxEventsPerCell is the runaway-simulation backstop, per cell.
const maxEventsPerCell = 200_000_000

// shardCells is the number of partition cells a sharded run asks for
// (clamped to the number of atoms). It is part of the simulation's
// identity: another count is another partition, and other results.
const shardCells = 8

// cellState is one partition cell's execution state: its engine, its own
// view of the network (output-port queues and traffic ledgers; each message
// is booked in its sender's cell), and the run counters its nodes
// accumulate. Counters are merged in cell order when the run ends.
type cellState struct {
	eng *sim.Engine
	net *netmodel.Network

	// published is the id of the newest snapshot published so far.
	// Publication times are a static schedule, so every cell advances its
	// own copy with a local marker event at each publication instant — the
	// stale-serve comparison needs no cross-cell read.
	published int

	dnsRedirects int
	dnsVisits    int

	updateMsgsToServers    int
	updateMsgsFromProvider int
	lightMsgs              int

	crashes           int
	recoveries        int
	recoverySeconds   []float64
	failedVisits      int
	userFailovers     int
	serverReparents   int
	ttlFallbacks      int
	staleObservations int
	visitsAccounted   int

	deliverAttempts int
	deliverSends    int
	deliverDrops    map[string]int

	// Federation counters (serial-only; always zero in cells > 0).
	degradedSeconds  float64
	degradedEnters   int
	degradedExits    int
	providerSwitches int
	peerHandoffs     int

	// Cell-local auditor observations, written only while this cell runs
	// and drained at the next window barrier (sharded runs only; serial
	// runs audit inline).
	audDelayViol   *audit.Violation
	audPendingTree int
	audTreeWhere   string
}

// sharded reports whether this run executes under the window barrier.
func (s *simulation) sharded() bool { return s.shEng != nil }

// cell returns the cell that owns node i.
func (s *simulation) cell(i int) *cellState { return s.cells[s.cellOf[i]] }

// now is node i's cell-local clock. Within one window, cells advance
// independently; an event handler must only read the clock of the cell it
// runs in.
func (s *simulation) now(i int) time.Duration { return s.cell(i).eng.Now() }

// rng is node i's cell-local randomness stream.
func (s *simulation) rng(i int) *rand.Rand { return s.cell(i).eng.Rand() }

// at schedules f at absolute time t in node i's cell. It rides the engine's
// thunk path, so the engine side of every protocol continuation is
// allocation-free (f itself may still be a closure).
func (s *simulation) at(i int, t time.Duration, f func()) {
	s.cell(i).eng.ScheduleAtCall(t, f) //nolint:errcheck // t >= now by construction
}

// eachNet schedules f against every cell's network view at time t.
// Partition and overload faults must be visible to every sender, so each
// cell applies them locally at the fault instant — in serial that is the one
// event the classic engine always scheduled.
func (s *simulation) eachNet(t time.Duration, f func(*netmodel.Network)) {
	for _, c := range s.cells {
		c := c
		c.eng.ScheduleAtCall(t, func() { f(c.net) }) //nolint:errcheck // t >= 0 by construction
	}
}

// initCells builds the execution cells. Serial runs get one cell with the
// classic engine seeded directly from cfg.Seed (bit-identical to the
// pre-sharding engine); sharded runs partition the topology and derive each
// cell's RNG from (Seed, cell) via the sharded engine.
func (s *simulation) initCells() error {
	if !s.cfg.Sharded {
		eng := sim.NewEngine(s.cfg.Seed)
		eng.SetMaxEvents(maxEventsPerCell)
		s.cells = []*cellState{s.newCell(eng)}
		s.cellOf = make([]int, len(s.nodes))
		return nil
	}
	cellOf, n, lookahead, err := s.partitionCells(shardCells)
	if err != nil {
		return err
	}
	sh, err := sim.NewSharded(sim.ShardedConfig{
		Seed:             s.cfg.Seed,
		Cells:            n,
		Lookahead:        lookahead,
		MaxEventsPerCell: maxEventsPerCell,
	})
	if err != nil {
		return fmt.Errorf("cdn: %w", err)
	}
	s.shEng = sh
	s.cellOf = cellOf
	for i := 0; i < n; i++ {
		s.cells = append(s.cells, s.newCell(sh.Cell(i)))
	}
	return nil
}

// newCell wraps a cell engine. It declares the FIFO lanes of the two
// re-arm delays that carry most events, the user visit and the server poll.
func (s *simulation) newCell(eng *sim.Engine) *cellState {
	eng.Periodic(s.cfg.UserTTL)
	eng.Periodic(s.cfg.ServerTTL)
	return &cellState{eng: eng, net: netmodel.New(s.cfg.Net)}
}

// partitionAtoms returns the indivisible node groups of the partition, each
// with its communication root first. All intra-atom traffic stays inside one
// cell by construction; only provider<->atom traffic can cross cells.
func (s *simulation) partitionAtoms() [][]int {
	if s.cfg.Infra == consistency.InfraBroadcast {
		// Flooding stays within a cluster; the provider seeds each cluster
		// through its first member.
		atoms := make([][]int, 0, len(s.clusterMembers))
		for _, members := range s.clusterMembers {
			if len(members) > 0 {
				atoms = append(atoms, members)
			}
		}
		return atoms
	}
	var atoms [][]int
	for _, r := range s.tree.Children(0) {
		var atom []int
		var walk func(int)
		walk = func(i int) {
			atom = append(atom, i)
			for _, c := range s.tree.Children(i) {
				walk(c)
			}
		}
		walk(r)
		atoms = append(atoms, atom)
	}
	return atoms
}

// partitionCells computes the static node->cell assignment into at most
// cells cells and the conservative lookahead. The assignment is a pure
// function of the topology and the cell count.
func (s *simulation) partitionCells(cells int) ([]int, int, time.Duration, error) {
	atoms := s.partitionAtoms()
	if len(atoms) == 0 {
		return nil, 0, 0, fmt.Errorf("cdn: sharded run needs at least one server")
	}
	want := min(cells, len(atoms))

	// Distance-band the atoms: nearest atoms share the provider's cell, so
	// the smallest provider<->server delays never become cross-cell bounds.
	// Each atom's distance is computed once; ties break on the root index,
	// so the order is total and any sort gives the same one.
	providerLoc := s.nodes[0].ep.Loc
	type bandedAtom struct {
		nodes []int
		km    float64
	}
	banded := make([]bandedAtom, len(atoms))
	for i, atom := range atoms {
		banded[i] = bandedAtom{atom, geo.DistanceKm(providerLoc, s.nodes[atom[0]].ep.Loc)}
	}
	sort.Slice(banded, func(i, j int) bool {
		if banded[i].km != banded[j].km {
			return banded[i].km < banded[j].km
		}
		return banded[i].nodes[0] < banded[j].nodes[0]
	})
	cellOf := make([]int, len(s.nodes))
	per := (len(s.nodes) - 1 + want - 1) / want
	cellIdx, inCell := 0, 0
	for _, atom := range banded {
		if inCell >= per && cellIdx < want-1 {
			cellIdx++
			inCell = 0
		}
		for _, nd := range atom.nodes {
			cellOf[nd] = cellIdx
		}
		inCell += len(atom.nodes)
	}
	n := cellIdx + 1

	// The lookahead is the minimum propagation delay over the pairs that can
	// exchange a cross-cell message: node 0 against every node outside node
	// 0's cell. The atoms confine every other message to one cell, and
	// deliverVia panics on a cross-cell send without node 0 at one end, so
	// the bound never rests on this comment alone. netmodel guarantees every
	// arrival is at least PropagationDelay after the send (queuing and
	// overload only add). A federated run would add every provider endpoint
	// to the minimum; federation is serial-only, so node 0 is the only origin
	// here.
	origin := s.nodes[0].ep
	probe := netmodel.New(s.cfg.Net)
	var lookahead time.Duration
	for i, nd := range s.nodes {
		if cellOf[i] == cellOf[0] {
			continue
		}
		if d := probe.PropagationDelay(origin, nd.ep); lookahead == 0 || d < lookahead {
			lookahead = d
		}
	}
	if lookahead == 0 {
		// Single-cell partition (a tiny topology, or a tree with few root
		// subtrees): the barrier never exchanges anything, any positive
		// window length works.
		lookahead = probe.PropagationDelay(origin, origin)
	}
	return cellOf, n, lookahead, nil
}

// mergeCellTallies folds the per-cell counters into the result, in cell
// order. With one cell this is a plain copy of the serial counters.
func (s *simulation) mergeCellTallies(res *Result) {
	for _, c := range s.cells {
		res.UpdateMsgsToServers += c.updateMsgsToServers
		res.UpdateMsgsFromProvider += c.updateMsgsFromProvider
		res.LightMsgs += c.lightMsgs
		res.DNSRedirects += c.dnsRedirects
		res.DNSVisits += c.dnsVisits
		res.Crashes += c.crashes
		res.Recoveries += c.recoveries
		res.RecoverySeconds = append(res.RecoverySeconds, c.recoverySeconds...)
		res.FailedVisits += c.failedVisits
		res.UserFailovers += c.userFailovers
		res.ServerReparents += c.serverReparents
		res.TTLFallbacks += c.ttlFallbacks
		res.StaleObservations += c.staleObservations
		res.DegradedSeconds += c.degradedSeconds
		res.DegradedEnters += c.degradedEnters
		res.DegradedExits += c.degradedExits
		res.ProviderSwitches += c.providerSwitches
		res.PeerHandoffs += c.peerHandoffs
	}
}
