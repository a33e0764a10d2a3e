package trace

import (
	"fmt"
	"testing"
	"time"
)

// TestIndexGroups checks every list of a small mixed crawl's index: each
// kind's time order and each observer's group, as positions of the
// caller's unmoved records.
func TestIndexGroups(t *testing.T) {
	tr := sampleTrace()
	tr.Records = append(tr.Records,
		PollRecord{Day: 0, Server: "s2", Poller: "u1", At: 5 * time.Second, Snapshot: 1, UserView: true},
		PollRecord{Day: 0, Server: "s1", Poller: "p1", At: 5 * time.Second, Snapshot: 1},
	)
	before := fmt.Sprint(tr.Records)
	ix, err := NewIndex(tr)
	if err != nil {
		t.Fatalf("NewIndex: %v", err)
	}
	if got := fmt.Sprint(tr.Records); got != before {
		t.Fatalf("NewIndex moved the records:\n%s\nwant\n%s", got, before)
	}
	checks := []struct {
		name string
		got  any
		want string
	}{
		{"pollers", ix.Pollers, "[p1 p2 u1]"},
		{"server of", ix.ServerOf, "[0 1 1 -1 0 1 0]"},
		{"poller of", ix.PollerOf, "[0 1 1 0 2 2 0]"},
		{"day 0 by time", ix.Days[0].ByTime, "[[6 0 1] [3] [5 4]]"},
		{"day 1 by time", ix.Days[1].ByTime, "[[2] [] []]"},
		{"day 0 crawl", ix.Days[0].Crawl, "[[6 0] [1]]"},
		{"day 0 provider", ix.Days[0].Provider, "[[3] [] []]"},
		{"day 0 user", ix.Days[0].User, "[[] [] [5 4]]"},
		{"day 1 crawl", ix.Days[1].Crawl, "[[] [2]]"},
	}
	for _, c := range checks {
		if got := fmt.Sprint(c.got); got != c.want {
			t.Errorf("%s = %s, want %s", c.name, got, c.want)
		}
	}
	if id := ix.ServerID("s2"); id != 1 {
		t.Errorf("ServerID(s2) = %d, want 1", id)
	}
	if id := ix.ServerID("origin"); id != -1 {
		t.Errorf("ServerID(origin) = %d, want -1", id)
	}
}
