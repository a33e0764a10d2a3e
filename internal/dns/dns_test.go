package dns

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"cdnconsistency/internal/geo"
)

func testServers() []ServerEntry {
	return []ServerEntry{
		{Index: 1, Loc: geo.Point{Lat: 33.7, Lon: -84.4}},  // Atlanta
		{Index: 2, Loc: geo.Point{Lat: 33.8, Lon: -84.3}},  // near Atlanta
		{Index: 3, Loc: geo.Point{Lat: 34.0, Lon: -84.0}},  // near Atlanta
		{Index: 4, Loc: geo.Point{Lat: 51.5, Lon: -0.1}},   // London
		{Index: 5, Loc: geo.Point{Lat: 35.7, Lon: 139.7}},  // Tokyo
		{Index: 6, Loc: geo.Point{Lat: -33.9, Lon: 151.2}}, // Sydney
	}
}

// resolveAt answers one query from loc, ranking the servers for it first.
func resolveAt(a *Authoritative, loc geo.Point) int { return a.resolve(a.rank(loc)) }

func TestNewAuthoritativeValidation(t *testing.T) {
	if _, err := NewAuthoritative(nil, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty server set accepted")
	}
	a, err := NewAuthoritative(testServers()[:2], rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// candidateSet clamps to the server count.
	got := resolveAt(a, geo.Point{Lat: 33.7, Lon: -84.4})
	if got != 1 && got != 2 {
		t.Errorf("resolve = %d", got)
	}
}

func TestResolvePrefersNearbyServers(t *testing.T) {
	a, err := NewAuthoritative(testServers(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	atlantaUser := geo.Point{Lat: 33.75, Lon: -84.39}
	for i := 0; i < 50; i++ {
		got := resolveAt(a, atlantaUser)
		if got != 1 && got != 2 && got != 3 {
			t.Fatalf("Resolve handed distant server %d to an Atlanta user", got)
		}
	}
	tokyoUser := geo.Point{Lat: 35.68, Lon: 139.69}
	got := resolveAt(a, tokyoUser)
	if got == 1 || got == 2 {
		t.Errorf("Resolve handed Atlanta server %d to a Tokyo user", got)
	}
}

func TestResolveBalancesLoad(t *testing.T) {
	a, err := NewAuthoritative(testServers(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	atlantaUser := geo.Point{Lat: 33.75, Lon: -84.39}
	counts := map[int]int{}
	for i := 0; i < 300; i++ {
		counts[resolveAt(a, atlantaUser)]++
	}
	// Least-loaded selection must spread across the three candidates.
	for _, idx := range []int{1, 2, 3} {
		if counts[idx] < 80 || counts[idx] > 120 {
			t.Errorf("server %d got %d of 300 assignments, want ~100", idx, counts[idx])
		}
	}
}

func TestReleaseFreesLoad(t *testing.T) {
	a, err := NewAuthoritative(testServers(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	idx := resolveAt(a, geo.Point{Lat: 33.75, Lon: -84.39})
	if a.load[idx] != 1 {
		t.Fatalf("load = %d", a.load[idx])
	}
	a.Release(idx)
	if a.load[idx] != 0 {
		t.Errorf("load after release = %d", a.load[idx])
	}
	a.Release(idx) // extra release is a no-op
	if a.load[idx] != 0 {
		t.Errorf("load after double release = %d", a.load[idx])
	}
}

func TestResolverValidation(t *testing.T) {
	a, err := NewAuthoritative(testServers(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewResolver(nil, geo.Point{}, time.Minute); err == nil {
		t.Error("nil authoritative accepted")
	}
	if _, err := NewResolver(a, geo.Point{}, 0); err == nil {
		t.Error("zero TTL accepted")
	}
}

func TestResolverCachesUntilExpiry(t *testing.T) {
	a, err := NewAuthoritative(testServers(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewResolver(a, geo.Point{Lat: 33.75, Lon: -84.39}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	first, fresh := r.Lookup(0)
	if !fresh {
		t.Fatal("first lookup not fresh")
	}
	// Within the TTL: same answer, cached.
	for _, at := range []time.Duration{10 * time.Second, 29 * time.Second} {
		got, fresh := r.Lookup(at)
		if fresh {
			t.Errorf("lookup at %v went to authoritative", at)
		}
		if got != first {
			t.Errorf("cached answer changed: %d -> %d", first, got)
		}
	}
	// At expiry the resolver re-queries, and releases its old answer.
	_, fresh = r.Lookup(30 * time.Second)
	if !fresh {
		t.Error("lookup at TTL did not refresh")
	}
	held := 0
	for _, l := range a.load {
		held += l
	}
	if held != 1 {
		t.Errorf("authoritative holds %d assignments after two resolutions, want 1", held)
	}
}

func TestResolverRedirectionRate(t *testing.T) {
	// With a 60s resolver TTL and 10s visits, 1 in 6 visits re-resolves;
	// re-resolution may land on another of the 3 near candidates. The
	// observed server-switch rate must sit well below the re-resolve rate
	// but above zero — the paper's 13-17% band corresponds to shorter
	// cache TTLs; the mechanism is what matters here.
	a, err := NewAuthoritative(testServers(), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewResolver(a, geo.Point{Lat: 33.75, Lon: -84.39}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	switches, visits := 0, 0
	for now := time.Duration(0); now < 2*time.Hour; now += 10 * time.Second {
		got, _ := r.Lookup(now)
		if prev >= 0 {
			visits++
			if got != prev {
				switches++
			}
		}
		prev = got
	}
	rate := float64(switches) / float64(visits)
	if rate <= 0 || rate >= 1.0/6.0 {
		t.Errorf("switch rate = %.3f, want in (0, 0.167)", rate)
	}
}

func TestResolverDeterministicWithSeed(t *testing.T) {
	run := func() []int {
		a, err := NewAuthoritative(testServers(), rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewResolver(a, geo.Point{Lat: 33.75, Lon: -84.39}, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var out []int
		for now := time.Duration(0); now < 10*time.Minute; now += 10 * time.Second {
			got, _ := r.Lookup(now)
			out = append(out, got)
		}
		return out
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("lookup %d diverged", i)
		}
	}
}

// resolveBySort is the lookup as it was before resolvers ranked their
// servers once: every query measures the distance to every server, sorts
// the live ones by (distance, index), falls back to sorting all of them
// when every server is down, and truncates to the candidate set. It is the
// reference the ranking walk must match, draw for draw.
func resolveBySort(a *Authoritative, loc geo.Point) int {
	type cand struct {
		idx  int
		dist float64
	}
	cands := make([]cand, 0, len(a.servers))
	for _, s := range a.servers {
		if a.down[s.Index] {
			continue
		}
		cands = append(cands, cand{idx: s.Index, dist: geo.DistanceKm(loc, s.Loc)})
	}
	if len(cands) == 0 {
		for _, s := range a.servers {
			cands = append(cands, cand{idx: s.Index, dist: geo.DistanceKm(loc, s.Loc)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].idx < cands[j].idx
	})
	if len(cands) > candidateSet {
		cands = cands[:candidateSet]
	}
	best := cands[0]
	bestLoad := a.load[best.idx]
	ties := 1
	for _, c := range cands[1:] {
		l := a.load[c.idx]
		switch {
		case l < bestLoad:
			best, bestLoad, ties = c, l, 1
		case l == bestLoad:
			ties++
			if a.rng.Intn(ties) == 0 {
				best = c
			}
		}
	}
	a.load[best.idx]++
	return best.idx
}

// twinAuthoritatives builds two authoritatives over the same servers with
// equally seeded RNGs: one to walk rankings, one to sort per lookup.
func twinAuthoritatives(t testing.TB, servers []ServerEntry, seed int64) (walk, sorted *Authoritative) {
	t.Helper()
	walk, err := NewAuthoritative(servers, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	sorted, err = NewAuthoritative(servers, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return walk, sorted
}

// checkTwinState fails unless the twins hold the same loads and their RNGs
// are at the same point of their streams.
func checkTwinState(t testing.TB, walk, sorted *Authoritative) {
	t.Helper()
	if !reflect.DeepEqual(walk.load, sorted.load) {
		t.Fatalf("loads diverged:\nwalk %v\nsort %v", walk.load, sorted.load)
	}
	if w, s := walk.rng.Int63(), sorted.rng.Int63(); w != s {
		t.Fatalf("next RNG draw diverged: walk %d, sort %d", w, s)
	}
}

// The ranking walk answers exactly as the per-lookup sort did, for server
// sets from one server to the paper's 170 with shared locations (so
// distances tie), under down sets that leave every count of live servers
// from none upwards, with releases interleaved.
func TestResolveMatchesFullSort(t *testing.T) {
	gen := rand.New(rand.NewSource(35))
	randPoint := func() geo.Point {
		return geo.Point{Lat: gen.Float64()*180 - 90, Lon: gen.Float64()*360 - 180}
	}
	for _, n := range []int{1, 2, 3, 170} {
		for trial := 0; trial < 20; trial++ {
			// Indices are a shuffled, gapped range, so index order is not
			// slice order; locations repeat from a small pool.
			pool := make([]geo.Point, 1+n/4)
			for i := range pool {
				pool[i] = randPoint()
			}
			servers := make([]ServerEntry, n)
			for i, p := range gen.Perm(n) {
				servers[i] = ServerEntry{Index: 3*p + 1, Loc: pool[gen.Intn(len(pool))]}
			}
			queries := []geo.Point{randPoint(), randPoint(), pool[0], servers[n-1].Loc}
			walk, sorted := twinAuthoritatives(t, servers, int64(trial))
			ranks := make([][]int, len(queries))
			for i, q := range queries {
				ranks[i] = walk.rank(q)
			}
			var answered []int
			for step := 0; step < 400; step++ {
				switch op := gen.Intn(10); {
				case op < 6:
					q := gen.Intn(len(queries))
					got, want := walk.resolve(ranks[q]), resolveBySort(sorted, queries[q])
					if got != want {
						t.Fatalf("n=%d trial %d step %d: walk answered %d, sort %d", n, trial, step, got, want)
					}
					answered = append(answered, got)
				case op < 9:
					// Mostly an outstanding answer; sometimes a server
					// holding nothing, which must be a no-op on both sides.
					idx := servers[gen.Intn(n)].Index
					if len(answered) > 0 && op < 8 {
						i := gen.Intn(len(answered))
						idx = answered[i]
						answered = append(answered[:i], answered[i+1:]...)
					}
					walk.Release(idx)
					sorted.Release(idx)
				default:
					// Leave exactly `live` servers up: none, fewer than the
					// candidate set, or a random count.
					live := []int{0, 1, 2, gen.Intn(n + 1), n}[gen.Intn(5)]
					for i, p := range gen.Perm(n) {
						walk.SetLive(servers[p].Index, i < live)
						sorted.SetLive(servers[p].Index, i < live)
					}
				}
			}
			checkTwinState(t, walk, sorted)
		}
	}
}

// FuzzResolve checks the ranking walk against the per-lookup sort for
// fuzzed server locations, down sets and query locations. Each pair of
// bytes in locs is one server on a coarse grid, so locations collide and
// distances tie; bit i of down takes server i down.
func FuzzResolve(f *testing.F) {
	f.Add([]byte{10, 20, 10, 20, 200, 90}, []byte{0}, int16(0), int16(0))
	f.Add([]byte{10, 20, 10, 20, 10, 20, 10, 20}, []byte{0x0b}, int16(1000), int16(-2000))
	f.Add([]byte{0, 0, 255, 255, 128, 128}, []byte{0xff}, int16(-32768), int16(32767))
	f.Fuzz(func(t *testing.T, locs, down []byte, qlat, qlon int16) {
		n := min(len(locs)/2, 170)
		if n == 0 {
			return
		}
		servers := make([]ServerEntry, n)
		for i := range servers {
			servers[i] = ServerEntry{
				Index: n - i,
				Loc: geo.Point{
					Lat: float64(locs[2*i])/255*180 - 90,
					Lon: float64(locs[2*i+1])/255*360 - 180,
				},
			}
		}
		walk, sorted := twinAuthoritatives(t, servers, 1)
		for i := 0; i < n && i/8 < len(down); i++ {
			if down[i/8]&(1<<(i%8)) != 0 {
				walk.SetLive(servers[i].Index, false)
				sorted.SetLive(servers[i].Index, false)
			}
		}
		q := geo.Point{Lat: float64(qlat) / 32768 * 90, Lon: float64(qlon) / 32768 * 180}
		rank := walk.rank(q)
		for i := 0; i < 8; i++ {
			got, want := walk.resolve(rank), resolveBySort(sorted, q)
			if got != want {
				t.Fatalf("lookup %d: walk answered %d, sort %d", i, got, want)
			}
			if i == 3 {
				walk.Release(got)
				sorted.Release(want)
			}
		}
		checkTwinState(t, walk, sorted)
	})
}
