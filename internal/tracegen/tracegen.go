// Package tracegen synthesizes a crawl trace with the same schema and the
// same statistical phenomena as the paper's 15-day crawl of a major CDN
// (Section 3). The real trace is proprietary; this generator rebuilds the
// polled-snapshot relation from the mechanism the paper itself infers:
//
//   - content servers serve from a cache refreshed by a fixed TTL poll of
//     the provider (Section 3.4.1, TTL = 60 s),
//   - the provider itself is nearly consistent (mean staleness ~3.4 s,
//     Section 3.4.2) and answers within [0.5 s, 2.1 s] (Section 3.4.4),
//   - per-ISP paths to the provider add seconds of lag, so inter-ISP
//     comparisons show larger inconsistency than intra-ISP (Section 3.4.3),
//   - servers suffer absences (overload/failure) of 1-500 s during which
//     they neither answer polls nor refresh (Section 3.4.5),
//   - end-user requests are redirected to a different server on ~15% of
//     visits by DNS cache expiry and load balancing (Section 3.3).
//
// Every Section-3 analysis is a pure function of the resulting records, so
// the analysis pipeline reproduces the paper's figures from this input.
//
// The records come out in canonical order (trace.Compare) by construction:
// every poller polls at a fixed offset in [0, PollInterval) and then once
// per interval, so a day is a matrix of ticks by pollers, filled poller by
// poller and read out tick by tick with the pollers in offset order.
package tracegen

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"cdnconsistency/internal/geo"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/workload"
)

// Config controls the synthetic crawl.
type Config struct {
	// Topology sizes the CDN; Topology.Servers is the crawled server
	// count (the paper crawled 3000).
	Topology topology.Config
	// Game is the per-day live event; default workload.DefaultGame().
	Game workload.GameConfig
	// Days is the number of crawl days (the paper used 15).
	Days int
	// PollInterval is the crawler cadence; default 10 s.
	PollInterval time.Duration
	// ServerTTL is the CDN cache TTL; default 60 s.
	ServerTTL time.Duration
	// Users is the number of user-perspective pollers (the paper used
	// 200). 0 disables the user-view part of the trace.
	Users int
	// AbsencesPerServerDay is the expected number of absence intervals a
	// server suffers per day; default 0.4.
	AbsencesPerServerDay float64
	Seed                 int64
}

// Fixed parameters of the generated crawl.
const (
	// redirectProb is the chance a user's visit lands on a different
	// server (the paper observed 13-17%).
	redirectProb = 0.15
	// providerPollers is the number of vantage points polling the
	// provider's origin servers.
	providerPollers = 10
	// providerLagMean is the provider's own mean staleness.
	providerLagMean = 3400 * time.Millisecond
	// ispLagMax bounds the per-ISP daily fetch-lag bias.
	ispLagMax = 8 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Game.Duration() == 0 {
		c.Game = workload.DefaultGame()
	}
	if c.Days <= 0 {
		c.Days = 1
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 10 * time.Second
	}
	if c.ServerTTL <= 0 {
		c.ServerTTL = 60 * time.Second
	}
	if c.AbsencesPerServerDay <= 0 {
		c.AbsencesPerServerDay = 0.4
	}
	return c
}

// Result bundles the generated trace with the ground-truth update schedules
// (one per day), which tests and EXPERIMENTS comparisons may consult but the
// analyses never see.
type Result struct {
	Trace     *trace.Trace
	Schedules [][]workload.Update
	Topo      *topology.Topology
}

type absence struct {
	start, end time.Duration
}

// serverDay is a server's cache behaviour for one day: a step function of
// refresh times to snapshot values, plus its absence intervals.
type serverDay struct {
	refreshAt []time.Duration
	snapshot  []int
	absences  []absence
}

func (sd *serverDay) absentAt(t time.Duration) bool {
	for _, a := range sd.absences {
		if t >= a.start && t < a.end {
			return true
		}
	}
	return false
}

// cachedAt returns the snapshot the server serves at time t (0 before the
// first refresh).
func (sd *serverDay) cachedAt(t time.Duration) int {
	i := sort.Search(len(sd.refreshAt), func(i int) bool { return sd.refreshAt[i] > t })
	if i == 0 {
		return 0
	}
	return sd.snapshot[i-1]
}

// Generate builds the synthetic crawl. Its records are in canonical order
// (trace.Compare) without a sort, and its record slice is allocated once,
// for the most polls a poller can make in a day (day length / PollInterval
// + 1) from every poller on every day.
func Generate(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	topo, err := topology.Generate(cfg.Topology)
	if err != nil {
		return nil, fmt.Errorf("tracegen: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dayLen := cfg.Game.Duration()

	tr := &trace.Trace{
		Meta: trace.Meta{
			Description:  "synthetic crawl (see internal/tracegen)",
			Days:         cfg.Days,
			PollInterval: cfg.PollInterval,
			DayLength:    dayLen,
			ServerTTL:    cfg.ServerTTL,
			Seed:         cfg.Seed,
		},
	}
	for _, s := range topo.Servers {
		tr.Servers = append(tr.Servers, trace.ServerInfo{
			ID: s.ID, Lat: s.Loc.Lat, Lon: s.Loc.Lon, ISP: s.ISP, City: s.City,
			DistanceKm: geo.DistanceKm(s.Loc, topo.Provider.Loc),
		})
	}

	pollers := len(topo.Servers) + providerPollers + max(cfg.Users, 0)
	perDay := pollers * (int(dayLen/cfg.PollInterval) + 1)
	buf := newDayBuffer(pollers, perDay)
	tr.Records = make([]trace.PollRecord, 0, cfg.Days*perDay)
	res := &Result{Trace: tr, Topo: topo}
	for day := 0; day < cfg.Days; day++ {
		updates, err := workload.Schedule(cfg.Game, cfg.Seed+int64(day)*7919)
		if err != nil {
			return nil, fmt.Errorf("tracegen: day %d: %w", day, err)
		}
		res.Schedules = append(res.Schedules, updates)
		genDay(cfg, topo, buf, rng, day, dayLen, updates)
		tr.Records = buf.appendSorted(tr.Records)
	}
	return res, nil
}

// dayBuffer collects one day's records poller by poller, in the order the
// pollers are generated, and is reused from day to day.
type dayBuffer struct {
	recs   []trace.PollRecord
	start  []int           // poller s's records are recs[start[s]:start[s+1]]
	offset []time.Duration // poller s's first poll time
}

func newDayBuffer(pollers, records int) *dayBuffer {
	return &dayBuffer{
		recs:   make([]trace.PollRecord, 0, records),
		start:  make([]int, 0, pollers+1),
		offset: make([]time.Duration, 0, pollers),
	}
}

// poller starts the next poller, which first polls at offset; its records
// are the ones appended to recs until the next call.
func (d *dayBuffer) poller(offset time.Duration) {
	d.start = append(d.start, len(d.recs))
	d.offset = append(d.offset, offset)
}

// transposeBlock is the side of the square of (poller, tick) cells that
// appendSorted copies at a time, so the records it reads and the records
// it writes both stay in cache.
const transposeBlock = 16

// appendSorted appends the day's records to dst in canonical order and
// empties the buffer for the next day.
//
// Every poller polls at a fixed offset in [0, PollInterval) and then once
// per interval, so its k-th poll falls in tick k, [k, k+1) intervals into
// the day: the records sort by tick, then by poller offset. Every poller
// polls at every tick but the last, where only the pollers with the
// smallest offsets still fall inside the day. Pollers with equal offsets
// poll at equal times; their records at each tick are ordered by
// trace.Compare itself.
func (d *dayBuffer) appendSorted(dst []trace.PollRecord) []trace.PollRecord {
	n := len(d.offset)
	d.start = append(d.start, len(d.recs))
	order := make([]int, n)
	for s := range order {
		order[s] = s
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(d.offset[a], d.offset[b]) })
	polls := func(r int) int { return d.start[order[r]+1] - d.start[order[r]] }

	// out[k*n+r] is the k-th record of the poller ranked r.
	base := len(dst)
	dst = slices.Grow(dst, len(d.recs))[:base+len(d.recs)]
	out := dst[base:]
	for r0 := 0; r0 < n; r0 += transposeBlock {
		r1 := min(r0+transposeBlock, n)
		for k0 := 0; k0 < polls(r0); k0 += transposeBlock {
			for r := r0; r < r1; r++ {
				src := d.recs[d.start[order[r]]:]
				for k := k0; k < min(k0+transposeBlock, polls(r)); k++ {
					out[k*n+r] = src[k]
				}
			}
		}
	}

	for r := 0; r < n; {
		tie := r + 1
		for tie < n && d.offset[order[tie]] == d.offset[order[r]] {
			tie++
		}
		if tie-r > 1 {
			for k := 0; k < polls(r); k++ {
				slices.SortFunc(out[k*n+r:k*n+tie], func(a, b trace.PollRecord) int { return trace.Compare(&a, &b) })
			}
		}
		r = tie
	}
	d.recs, d.start, d.offset = d.recs[:0], d.start[:0], d.offset[:0]
	return dst
}

func genDay(cfg Config, topo *topology.Topology, buf *dayBuffer, rng *rand.Rand,
	day int, dayLen time.Duration, updates []workload.Update) {

	// Per-ISP fetch-lag bias for the day (Section 3.4.3 reproduction).
	ispLag := make(map[int]time.Duration)
	lagFor := func(isp int) time.Duration {
		if l, ok := ispLag[isp]; ok {
			return l
		}
		l := time.Duration(rng.Float64() * float64(ispLagMax))
		ispLag[isp] = l
		return l
	}

	// Build each server's cache step function.
	days := make([]serverDay, len(topo.Servers))
	for i, s := range topo.Servers {
		sd := &days[i]
		sd.absences = drawAbsences(rng, cfg.AbsencesPerServerDay, dayLen)

		r := time.Duration(rng.Float64() * float64(cfg.ServerTTL))
		for r < dayLen {
			if sd.absentAt(r) {
				// The server cannot refresh while absent. On recovery
				// its cache TTL is already expired, so the next
				// end-user request (within one crawl interval)
				// triggers the refresh — until then it serves the
				// pre-absence content (Section 3.4.5: inconsistency
				// is elevated right after an absence).
				r = absenceEnd(sd.absences, r) +
					time.Duration(rng.Float64()*float64(cfg.PollInterval))
				continue
			}
			lag := responseTime(rng) + lagFor(s.ISP) + providerStaleness(rng, providerLagMean)
			snap := workload.SnapshotAt(updates, r-lag)
			sd.refreshAt = append(sd.refreshAt, r)
			sd.snapshot = append(sd.snapshot, snap)
			r += cfg.ServerTTL
		}
	}

	// Crawler records: one poller per server, every PollInterval.
	for i, s := range topo.Servers {
		sd := &days[i]
		poller := fmt.Sprintf("pl-%04d", i%200)
		offset := time.Duration(rng.Int63n(int64(cfg.PollInterval)))
		rtt := pollerRTT(rng)
		buf.poller(offset)
		for t := offset; t <= dayLen; t += cfg.PollInterval {
			rec := trace.PollRecord{
				Day: day, Server: s.ID, Poller: poller, At: t, RTT: rtt,
			}
			if sd.absentAt(t) {
				rec.Absent = true
			} else {
				rec.Snapshot = sd.cachedAt(t)
			}
			buf.recs = append(buf.recs, rec)
		}
	}

	// Provider records (Section 3.4.2/3.4.4): near-fresh, fast answers.
	for p := 0; p < providerPollers; p++ {
		poller := fmt.Sprintf("plprov-%02d", p)
		offset := time.Duration(rng.Int63n(int64(cfg.PollInterval)))
		buf.poller(offset)
		for t := offset; t <= dayLen; t += cfg.PollInterval {
			lag := providerStaleness(rng, providerLagMean)
			buf.recs = append(buf.recs, trace.PollRecord{
				Day: day, Server: "origin", Poller: poller, At: t,
				Snapshot: workload.SnapshotAt(updates, t-lag),
				RTT:      responseTime(rng),
				Provider: true,
			})
		}
	}

	// User-view records (Section 3.3): users poll the URL; DNS redirects
	// ~redirectProb of visits to another server.
	if cfg.Users > 0 && len(topo.Servers) > 0 {
		for u := 0; u < cfg.Users; u++ {
			poller := fmt.Sprintf("user-%03d", u)
			cur := rng.Intn(len(topo.Servers))
			offset := time.Duration(rng.Int63n(int64(cfg.PollInterval)))
			buf.poller(offset)
			for t := offset; t <= dayLen; t += cfg.PollInterval {
				if rng.Float64() < redirectProb {
					cur = rng.Intn(len(topo.Servers))
				}
				sd := &days[cur]
				rec := trace.PollRecord{
					Day: day, Server: topo.Servers[cur].ID, Poller: poller,
					At: t, RTT: pollerRTT(rng), UserView: true,
				}
				if sd.absentAt(t) {
					rec.Absent = true
				} else {
					rec.Snapshot = sd.cachedAt(t)
				}
				buf.recs = append(buf.recs, rec)
			}
		}
	}
}

// drawAbsences samples a day's absence intervals. Lengths follow the
// paper's Figure 10(b): ~30% under 10 s, ~93% under 50 s, max 500 s.
func drawAbsences(rng *rand.Rand, perDay float64, dayLen time.Duration) []absence {
	n := poisson(rng, perDay)
	if n == 0 {
		return nil
	}
	out := make([]absence, 0, n)
	for i := 0; i < n; i++ {
		var length time.Duration
		if rng.Float64() < 0.93 {
			length = time.Second + time.Duration(rng.ExpFloat64()*float64(18*time.Second))
			if length > 50*time.Second {
				length = 50 * time.Second
			}
		} else {
			length = 50*time.Second + time.Duration(rng.ExpFloat64()*float64(120*time.Second))
			if length > 500*time.Second {
				length = 500 * time.Second
			}
		}
		start := time.Duration(rng.Float64() * float64(dayLen-length))
		if start < 0 {
			start = 0
		}
		out = append(out, absence{start: start, end: start + length})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	// Merge overlaps so absentAt and absenceEnd stay simple.
	merged := out[:1]
	for _, a := range out[1:] {
		last := &merged[len(merged)-1]
		if a.start <= last.end {
			if a.end > last.end {
				last.end = a.end
			}
			continue
		}
		merged = append(merged, a)
	}
	return merged
}

func absenceEnd(abs []absence, t time.Duration) time.Duration {
	for _, a := range abs {
		if t >= a.start && t < a.end {
			return a.end
		}
	}
	return t
}

// responseTime draws the provider's answer latency, uniform in
// [0.5 s, 2.1 s] per the paper's Figure 10(a).
func responseTime(rng *rand.Rand) time.Duration {
	return 500*time.Millisecond + time.Duration(rng.Float64()*float64(1600*time.Millisecond))
}

// providerStaleness draws the provider's own content lag, exponential with
// the configured mean (the paper measured mean 3.43 s).
func providerStaleness(rng *rand.Rand, mean time.Duration) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d > 60*time.Second {
		d = 60 * time.Second
	}
	return d
}

// pollerRTT draws a vantage-point round trip in [20 ms, 200 ms].
func pollerRTT(rng *rand.Rand) time.Duration {
	return 20*time.Millisecond + time.Duration(rng.Float64()*float64(180*time.Millisecond))
}

func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	// Knuth's algorithm; mean is small (<10) in all our uses.
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
