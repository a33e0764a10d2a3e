package analysis

import (
	"time"

	"cdnconsistency/internal/trace"
)

// UserViewStats aggregates the Section-3.3 user-perspective measures for
// one day.
type UserViewStats struct {
	// RedirectFractions holds, per user, the fraction of visits served by
	// a different server than the previous visit (Figure 4(a)).
	RedirectFractions []float64
	// ContinuousConsistency and ContinuousInconsistency hold run lengths
	// in seconds across all users (Figures 4(c) and 4(d)).
	ContinuousConsistency   []float64
	ContinuousInconsistency []float64
	// InconsistentObservationFrac is the fraction of user observations
	// that returned content older than the newest the user had seen
	// (self-inconsistency, the Figure 24 metric).
	InconsistentObservationFrac float64
}

// UserView computes the user-perspective statistics for one day. Records
// are classified per user in time order: an observation is inconsistent if
// its snapshot is older than the newest snapshot that user has seen.
func (d *Dataset) UserView(day int) (UserViewStats, error) {
	if err := d.checkDay(day); err != nil {
		return UserViewStats{}, err
	}
	var out UserViewStats
	var inconsistent, observations int
	for u := range d.ix.Pollers {
		pos := d.ix.Days[day].User[u]
		if len(pos) == 0 {
			continue
		}
		// Redirection fraction.
		var redirects, transitions int
		for i := 1; i < len(pos); i++ {
			transitions++
			if d.ix.ServerOf[pos[i]] != d.ix.ServerOf[pos[i-1]] {
				redirects++
			}
		}
		if transitions > 0 {
			out.RedirectFractions = append(out.RedirectFractions,
				float64(redirects)/float64(transitions))
		}

		// Self-inconsistency runs.
		maxSeen := 0
		runStart := time.Duration(-1)
		runInconsistent := false
		flush := func(end time.Duration) {
			if runStart < 0 || end <= runStart {
				return
			}
			l := (end - runStart).Seconds()
			if runInconsistent {
				out.ContinuousInconsistency = append(out.ContinuousInconsistency, l)
			} else {
				out.ContinuousConsistency = append(out.ContinuousConsistency, l)
			}
		}
		for _, p := range pos {
			r := &d.ix.Records[p]
			if r.Absent || r.Snapshot <= 0 {
				continue
			}
			observations++
			inc := r.Snapshot < maxSeen
			if inc {
				inconsistent++
			}
			if r.Snapshot > maxSeen {
				maxSeen = r.Snapshot
			}
			if runStart < 0 {
				runStart = r.At
				runInconsistent = inc
				continue
			}
			if inc != runInconsistent {
				flush(r.At)
				runStart = r.At
				runInconsistent = inc
			}
		}
		flush(d.ix.Records[pos[len(pos)-1]].At)
	}
	if observations > 0 {
		out.InconsistentObservationFrac = float64(inconsistent) / float64(observations)
	}
	return out, nil
}

// InconsistentServerFraction computes the Figure 4(b) measure for one day:
// at each poll instant (bucketed by the crawl interval), the fraction of
// responding servers whose content is older than the newest snapshot
// already observed anywhere. The returned value is the day's average.
func (d *Dataset) InconsistentServerFraction(day int) (float64, error) {
	if err := d.checkDay(day); err != nil {
		return 0, err
	}
	interval := d.Trace.Meta.PollInterval
	if interval <= 0 {
		interval = 10 * time.Second
	}
	// The day's crawler records come in time order, so each poll instant's bucket
	// closes before the next opens and the fractions sum in time order.
	var sum float64
	var buckets, stale, total int
	bucket := -1
	closeBucket := func() {
		if total > 0 {
			sum += float64(stale) / float64(total)
			buckets++
		}
	}
	for _, p := range d.ix.Days[day].ByTime[trace.CrawlKind] {
		r := &d.ix.Records[p]
		if r.Absent || r.Snapshot <= 0 {
			continue
		}
		if b := int(r.At / interval); b != bucket {
			closeBucket()
			bucket, stale, total = b, 0, 0
		}
		total++
		// Stale if a newer snapshot had already appeared by this time.
		if l, _ := d.inconsistencyOf(day, p); l > 0 {
			stale++
		}
	}
	closeBucket()
	if buckets == 0 {
		return 0, nil
	}
	return sum / float64(buckets), nil
}

// ResampledInconsistencyRuns reproduces Figure 4(e): it re-evaluates the
// continuous inconsistency run lengths a user would observe when polling
// every period rather than at the crawl cadence, by keeping only records on
// the coarser grid. Runs come user by user, in user-id order.
func (d *Dataset) ResampledInconsistencyRuns(day int, period time.Duration) ([]float64, error) {
	if err := d.checkDay(day); err != nil {
		return nil, err
	}
	if period <= 0 {
		period = d.Trace.Meta.PollInterval
	}
	var runs []float64
	for u := range d.ix.Pollers {
		maxSeen := 0
		var runStart time.Duration = -1
		var lastAt time.Duration
		var next time.Duration
		for _, p := range d.ix.Days[day].User[u] {
			r := &d.ix.Records[p]
			if r.At < next || r.Absent || r.Snapshot <= 0 {
				continue
			}
			next = r.At + period
			inc := r.Snapshot < maxSeen
			if r.Snapshot > maxSeen {
				maxSeen = r.Snapshot
			}
			switch {
			case inc && runStart < 0:
				runStart = r.At
			case !inc && runStart >= 0:
				end := r.At
				runs = append(runs, (end - runStart).Seconds())
				runStart = -1
			}
			lastAt = r.At
		}
		if runStart >= 0 && lastAt > runStart {
			runs = append(runs, (lastAt - runStart).Seconds())
		}
	}
	return runs, nil
}
