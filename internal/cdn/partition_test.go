package cdn

import (
	"fmt"
	"reflect"
	"sort"
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
// the lookahead as the minimum propagation delay over every cross-cell node
// pair. partitionCells must agree with it exactly.
func allPairsPartition(s *simulation) ([]int, int, time.Duration) {
	atoms := s.partitionAtoms()
	want := s.cfg.ShardCells
	if want > len(atoms) {
		want = len(atoms)
	}
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

// partitionSimulation builds, without running, a sharded Push simulation
// of servers servers in cells cells over infra.
func partitionSimulation(tb testing.TB, infra consistency.Infra, servers, cells int, seed int64) *simulation {
	tb.Helper()
	updates, err := workload.Schedule(testGame(), seed)
	if err != nil {
		tb.Fatal(err)
	}
	cfg, err := Config{
		Method:     consistency.MethodPush,
		Infra:      infra,
		Topology:   topology.Config{Servers: servers, UsersPerServer: 1, Seed: seed},
		Updates:    updates,
		Seed:       seed,
		Shards:     1,
		ShardCells: cells,
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

// The site-folded lookahead and the precomputed atom distances must give
// exactly the reference partition — the same cell of every node and the
// same lookahead, to the nanosecond — for every infrastructure, fleet size,
// cell count and seed, including partitions that split one city's servers
// across a cell boundary.
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
					s := partitionSimulation(t, infra, servers, cells, seed)
					cellOf, n, lookahead, err := s.partitionCells()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					wantCellOf, wantN, wantLookahead := allPairsPartition(s)
					if n != wantN || !reflect.DeepEqual(cellOf, wantCellOf) {
						t.Errorf("%s: partition differs from the reference (%d cells, want %d)", name, n, wantN)
					}
					if lookahead != wantLookahead {
						t.Errorf("%s: lookahead %v, reference %v", name, lookahead, wantLookahead)
					}
					if straddles(s, cellOf) {
						straddled++
						// A zero-km pair in one ISP is the floor of the delay model.
						ep := s.nodes[1].ep
						if floor := s.cells[0].net.PropagationDelay(ep, ep); lookahead != floor {
							t.Errorf("%s: a city straddles a cell boundary but the lookahead is %v, not the zero-km %v", name, lookahead, floor)
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

// BenchmarkPartitionCells measures the sharded partition of an 850-server
// unicast topology into 8 cells, lookahead included.
func BenchmarkPartitionCells(b *testing.B) {
	s := partitionSimulation(b, consistency.InfraUnicast, 850, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, lookahead, err := s.partitionCells(); err != nil || lookahead <= 0 {
			b.Fatalf("partition: lookahead %v, err %v", lookahead, err)
		}
	}
}
