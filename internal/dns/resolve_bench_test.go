package dns

import (
	"math/rand"
	"testing"

	"cdnconsistency/internal/topology"
)

// BenchmarkResolve measures one authoritative lookup over the paper's
// 170-server deployment: the querying resolvers sit at the topology's own
// user locations, and every tenth server is down, so a lookup ranks the
// live servers and skips the dead ones. Each answer is released at once,
// so the load counters, and with them the tie-break draws, stay bounded.
func BenchmarkResolve(b *testing.B) {
	topo, err := topology.Generate(topology.Config{Servers: 170, UsersPerServer: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]ServerEntry, len(topo.Servers))
	for i, srv := range topo.Servers {
		entries[i] = ServerEntry{Index: i + 1, Loc: srv.Loc}
	}
	auth, err := NewAuthoritative(entries, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= len(entries); i += 10 {
		auth.SetLive(i, false)
	}
	var users []topology.Node
	for _, us := range topo.Users {
		users = append(users, us...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		auth.Release(auth.Resolve(users[i%len(users)].Loc))
	}
}
