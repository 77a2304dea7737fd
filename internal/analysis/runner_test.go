package analysis

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"clientres/internal/store"
)

// allCollectors builds the nine collectors of a study shape behind one
// Runner, as core does.
func allCollectors(weeks, domains int) *Runner {
	return NewRunner(NewCollection(weeks), NewLibraryStats(weeks), NewVulnPrevalence(weeks),
		NewUpdateDelay(weeks), NewSRI(weeks), NewFlash(weeks, domains), NewWordPress(weeks),
		NewDiscontinued(weeks), NewRegressions(weeks))
}

// TestDomainsWithEqualRankStayDistinct pins what identifies a domain in the
// per-domain state machines: its name, never its Rank, which nothing
// validates and which obsWith leaves at zero. Two domains of one rank keep
// separate windows and separate last versions.
func TestDomainsWithEqualRankStayDistinct(t *testing.T) {
	w0 := week(2019, time.April, 15)
	w1 := week(2020, time.December, 14)
	steps := []struct {
		domain  string
		week    int
		version string
	}{
		{"a.com", w0, "1.12.4"},
		{"b.com", w0, "1.12.4"},
		{"a.com", w1, "3.5.1"},
		{"b.com", w1 + 1, "1.12.4"},
	}
	// alone folds one domain's steps into collectors of its own.
	alone := func(domain string, rank int) DelayResult {
		u := NewUpdateDelay(201)
		for _, s := range steps {
			if s.domain == domain {
				o := obsWith(s.domain, s.week, "jquery", s.version)
				o.Rank = rank
				u.Observe(o)
			}
		}
		return u.Result(false, false)
	}
	for _, rank := range []int{0, 7} {
		t.Run(fmt.Sprintf("rank=%d", rank), func(t *testing.T) {
			u, r := NewUpdateDelay(201), NewRegressions(201)
			for _, s := range steps {
				o := obsWith(s.domain, s.week, "jquery", s.version)
				o.Rank = rank
				u.Observe(o)
				r.Observe(o)
			}
			// a.com closes its windows and b.com's stay open: together they
			// hold exactly what each holds alone.
			a, b := alone("a.com", rank), alone("b.com", rank)
			if a.Updated == 0 || b.Censored == 0 {
				t.Fatalf("degenerate steps: a.com updated %d, b.com censored %d", a.Updated, b.Censored)
			}
			res := u.Result(false, false)
			if res.Updated != a.Updated+b.Updated || res.Censored != a.Censored+b.Censored {
				t.Errorf("UpdateDelay: updated %d, censored %d; the domains alone: %d and %d",
					res.Updated, res.Censored, a.Updated+b.Updated, a.Censored+b.Censored)
			}
			// b.com never downgraded: 1.12.4 after a.com's 3.5.1 is not its
			// roll-back.
			if n := r.RegressedDomains(); n != 0 {
				t.Errorf("RegressedDomains = %d, want 0", n)
			}
		})
	}
}

// interleave reorders each week of a shard's stream by a seeded shuffle of
// its domains, keeping every domain's observations in week order: the same
// shard reaches its collectors in another domain order, so the order in
// which a collector first meets its domains and libraries differs per
// shard.
func interleave(part []store.Observation, rng *rand.Rand) []store.Observation {
	out := make([]store.Observation, 0, len(part))
	for i := 0; i < len(part); {
		j := i
		for j < len(part) && part[j].Week == part[i].Week {
			j++
		}
		week := append([]store.Observation(nil), part[i:j]...)
		rng.Shuffle(len(week), func(a, b int) { week[a], week[b] = week[b], week[a] })
		out = append(out, week...)
		i = j
	}
	return out
}

// TestMergeInterleavedShards checks the k-way merge when every shard met its
// domains in its own order: merging k = 3 and 5 such shards equals the
// serial collector that saw the stream in its original order.
func TestMergeInterleavedShards(t *testing.T) {
	obs := randomStream(23)
	for _, k := range []int{3, 5} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(k)))
			parts := splitByDomain(obs, k)
			for s := range parts {
				parts[s] = interleave(parts[s], rng)
			}
			checkAllMerges(t, obs, parts, streamWeeks, streamDomains)
		})
	}
}

// BenchmarkRunnerObserve folds the randomized stream through all nine
// collectors, fresh each iteration, and reports the cost per observation.
func BenchmarkRunnerObserve(b *testing.B) {
	obs := randomStream(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := allCollectors(streamWeeks, streamDomains)
		for _, o := range obs {
			r.Observe(o)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(len(obs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/obs")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/obs")
}
