package dns

import (
	"math/rand"
	"testing"

	"cdnconsistency/internal/topology"
)

// BenchmarkResolve measures one authoritative lookup over the paper's
// 170-server deployment. The querying resolvers sit at the topology's own
// user locations and rank the servers once, before the timer starts, as a
// resolver does when it is built; every tenth server is down, so a lookup
// walks a ranking past the dead servers to its nearest live ones. Each
// answer is released at once, so the load counters, and with them the
// tie-break draws, stay bounded.
func BenchmarkResolve(b *testing.B) {
	topo, err := topology.Generate(topology.Config{Servers: 170, UsersPerServer: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]ServerEntry, len(topo.Servers))
	for i, srv := range topo.Servers {
		entries[i] = ServerEntry{Index: i + 1, Loc: srv.Loc}
	}
	auth, err := NewAuthoritative(entries, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= len(entries); i += 10 {
		auth.SetLive(i, false)
	}
	var ranks [][]int
	for _, us := range topo.Users {
		for _, u := range us {
			ranks = append(ranks, auth.rank(u.Loc))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		auth.Release(auth.resolve(ranks[i%len(ranks)]))
	}
}
