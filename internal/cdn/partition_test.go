package cdn

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"cdnconsistency/internal/consistency"
	"cdnconsistency/internal/geo"
	"cdnconsistency/internal/netmodel"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/workload"
)

// allPairsPartition is the reference partition: the atoms sorted by a
// comparator that measures both provider distances on every comparison, and
// the all-pairs lookahead, the minimum propagation delay over every
// cross-cell node pair, for at most cells cells. partitionCells must give
// its cells exactly; the all-pairs lookahead is a lower bound on
// partitionCells' own.
func allPairsPartition(s *simulation, cells int) ([]int, int, time.Duration) {
	atoms := s.partitionAtoms()
	want := min(cells, len(atoms))
	providerLoc := s.nodes[0].ep.Loc
	sort.Slice(atoms, func(i, j int) bool {
		di := geo.DistanceKm(providerLoc, s.nodes[atoms[i][0]].ep.Loc)
		dj := geo.DistanceKm(providerLoc, s.nodes[atoms[j][0]].ep.Loc)
		if di != dj {
			return di < dj
		}
		return atoms[i][0] < atoms[j][0]
	})
	cellOf := make([]int, len(s.nodes))
	per := (len(s.nodes) - 1 + want - 1) / want
	cellIdx, inCell := 0, 0
	for _, atom := range atoms {
		if inCell >= per && cellIdx < want-1 {
			cellIdx++
			inCell = 0
		}
		for _, nd := range atom {
			cellOf[nd] = cellIdx
		}
		inCell += len(atom)
	}
	probe := netmodel.New(s.cfg.Net)
	var lookahead time.Duration
	for i := 0; i < len(s.nodes); i++ {
		for j := i + 1; j < len(s.nodes); j++ {
			if cellOf[i] == cellOf[j] {
				continue
			}
			if d := probe.PropagationDelay(s.nodes[i].ep, s.nodes[j].ep); lookahead == 0 || d < lookahead {
				lookahead = d
			}
		}
	}
	if lookahead == 0 {
		lookahead = probe.PropagationDelay(s.nodes[0].ep, s.nodes[0].ep)
	}
	return cellOf, cellIdx + 1, lookahead
}

// originLookahead is the brute-force reference of partitionCells'
// lookahead: the minimum propagation delay, in either direction, between
// node 0 and every node outside node 0's cell — the only pairs that can
// exchange a cross-cell message.
func originLookahead(s *simulation, cellOf []int) time.Duration {
	probe := netmodel.New(s.cfg.Net)
	origin := s.nodes[0].ep
	var lookahead time.Duration
	for j, nd := range s.nodes {
		if cellOf[j] == cellOf[0] {
			continue
		}
		for _, d := range []time.Duration{probe.PropagationDelay(origin, nd.ep), probe.PropagationDelay(nd.ep, origin)} {
			if lookahead == 0 || d < lookahead {
				lookahead = d
			}
		}
	}
	if lookahead == 0 {
		lookahead = probe.PropagationDelay(origin, origin)
	}
	return lookahead
}

// partitionSimulation builds, without running, a sharded Push simulation
// of servers servers over infra.
func partitionSimulation(tb testing.TB, infra consistency.Infra, servers int, seed int64) *simulation {
	tb.Helper()
	updates, err := workload.Schedule(testGame(), seed)
	if err != nil {
		tb.Fatal(err)
	}
	cfg, err := Config{
		Method:   consistency.MethodPush,
		Infra:    infra,
		Topology: topology.Config{Servers: servers, UsersPerServer: 1, Seed: seed},
		Updates:  updates,
		Seed:     seed,
		Sharded:  true,
	}.withDefaults()
	if err != nil {
		tb.Fatal(err)
	}
	s, err := newSimulation(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// straddles reports whether two nodes at one location sit in different
// cells: a zero-km cross-cell pair.
func straddles(s *simulation, cellOf []int) bool {
	cellAt := make(map[geo.Point]int)
	for i, nd := range s.nodes {
		if c, ok := cellAt[nd.ep.Loc]; ok && c != cellOf[i] {
			return true
		}
		cellAt[nd.ep.Loc] = cellOf[i]
	}
	return false
}

// partitionCells must give exactly the reference cells and, to the
// nanosecond, the brute-force origin lookahead, for every infrastructure,
// fleet size, cell count and seed. The lookahead is never below the
// all-pairs one, and never below the zero-km delay between two ISPs: the
// provider's ISP is -1, so every one of its messages pays the inter-ISP
// penalty. Partitions that split one city's servers across a cell boundary,
// which pin the all-pairs bound at the zero-km floor, must be among the
// cases.
func TestPartitionCellsMatchesAllPairs(t *testing.T) {
	infras := []consistency.Infra{
		consistency.InfraUnicast, consistency.InfraMulticast,
		consistency.InfraHybrid, consistency.InfraBroadcast,
	}
	straddled := 0
	for _, seed := range []int64{1, 7} {
		for _, servers := range []int{40, 170, 850} {
			for _, cells := range []int{2, 8, 16} {
				for _, infra := range infras {
					name := fmt.Sprintf("seed%d/%dservers/%dcells/%v", seed, servers, cells, infra)
					s := partitionSimulation(t, infra, servers, seed)
					cellOf, n, lookahead, err := s.partitionCells(cells)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					wantCellOf, wantN, allPairs := allPairsPartition(s, cells)
					if n != wantN || !reflect.DeepEqual(cellOf, wantCellOf) {
						t.Errorf("%s: partition differs from the reference (%d cells, want %d)", name, n, wantN)
					}
					if want := originLookahead(s, wantCellOf); lookahead != want {
						t.Errorf("%s: lookahead %v, brute-force reference %v", name, lookahead, want)
					}
					if lookahead < allPairs {
						t.Errorf("%s: lookahead %v below the all-pairs bound %v", name, lookahead, allPairs)
					}
					if s.nodes[0].ep.ISP != -1 {
						t.Errorf("%s: provider ISP %d, want -1", name, s.nodes[0].ep.ISP)
					} else if n > 1 { // one cell exchanges nothing; any window length works
						if floor := netmodel.PropagationBound(0); lookahead < floor {
							t.Errorf("%s: lookahead %v below the inter-ISP floor %v", name, lookahead, floor)
						}
					}
					if straddles(s, cellOf) {
						straddled++
						if lookahead <= allPairs {
							t.Errorf("%s: a city straddles a cell boundary and the lookahead %v is still the all-pairs %v", name, lookahead, allPairs)
						}
					}
				}
			}
		}
	}
	if straddled == 0 {
		t.Error("no case split a city across cells; the zero-km cross-cell pair went untested")
	}
}

// A cross-cell message without node 0 at one end is outside what the
// lookahead bounds, so a delivery must refuse it loudly: a hand-built
// partition that moves a relay's child into another cell panics
// at the relay's first push to that child, naming both nodes. The test uses
// hybrid, whose partition has relays (supernodes) and, at this size, several
// cells; a degree-2 multicast tree mostly packs into one cell.
func TestDeliverViaPanicsOnCrossCellRelaySend(t *testing.T) {
	s := partitionSimulation(t, consistency.InfraHybrid, 170, 1)
	if len(s.cells) < 2 {
		t.Fatalf("partition has %d cell, want several", len(s.cells))
	}
	relay, child := -1, -1
	for j := 1; j < len(s.nodes) && child < 0; j++ {
		if p := s.tree.Parent(j); p > 0 {
			relay, child = p, j
		}
	}
	if child < 0 {
		t.Fatal("no relay with a child in the hybrid tree")
	}
	moveToCell(s, child, (s.cellOf[relay]+1)%len(s.cells))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("the relay's cross-cell send did not panic")
		}
		want := fmt.Sprintf(" %d (cell %d) -> %d (cell %d) ", relay, s.cellOf[relay], child, s.cellOf[child])
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Errorf("panic %q does not name%q", msg, want)
		}
	}()
	s.run() //nolint:errcheck // the run must not return
}

// BenchmarkPartitionCells measures the sharded partition of an 850-server
// unicast topology into 8 cells, lookahead included.
func BenchmarkPartitionCells(b *testing.B) {
	s := partitionSimulation(b, consistency.InfraUnicast, 850, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, lookahead, err := s.partitionCells(shardCells); err != nil || lookahead <= 0 {
			b.Fatalf("partition: lookahead %v, err %v", lookahead, err)
		}
	}
}
