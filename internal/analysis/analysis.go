// Package analysis implements every measurement of the paper's evaluation
// (Sections 5–8) over a stream of crawl observations.
//
// The unit of input is a store.Observation — one (domain, week) fetch
// reduced to facts. Collectors accumulate aggregates keyed by week and need
// no particular arrival order, so the same code runs over a live crawl, a
// stored dataset, or ground truth. A Runner fans one stream out to many
// collectors in a single pass; memory stays proportional to the aggregates,
// never the dataset.
package analysis

import (
	"time"

	"clientres/internal/semver"
	"clientres/internal/store"
	"clientres/internal/webgen"
)

// Collector consumes observations and accumulates one experiment's
// aggregates.
//
// Every collector in this package additionally has a Merge(other) method
// combining the aggregates of two collectors of the same study shape into
// the receiver. Merge exists for sharded collection: partition the
// observation stream BY DOMAIN across shards, give each shard a private
// collector, and merge the shards afterwards — the result is identical to
// a single collector observing the whole stream. Domain-disjoint shards
// are the contract: the stateful collectors (UpdateDelay, Discontinued,
// Regressions, and the per-domain extrema elsewhere) keep per-domain state
// machines that only merge exactly when each domain's history lives
// entirely inside one shard. The merge_test.go property suite asserts this
// equivalence on randomized streams for every collector.
type Collector interface {
	// Observe folds one observation into the aggregates. Implementations
	// must accept observations in any order.
	Observe(obs store.Observation)
}

// Runner fans an observation stream out to a set of collectors.
type Runner struct {
	collectors []Collector
}

// NewRunner builds a Runner over the given collectors.
func NewRunner(collectors ...Collector) *Runner {
	return &Runner{collectors: collectors}
}

// Observe distributes one observation to every collector.
func (r *Runner) Observe(obs store.Observation) {
	for _, c := range r.collectors {
		c.Observe(obs)
	}
}

// WeekDate re-exports the study calendar so downstream consumers need not
// import webgen.
func WeekDate(w int) time.Time { return webgen.WeekDate(w) }

// parseVersion parses a stored version string, returning ok=false for
// missing/unparseable versions.
func parseVersion(s string) (semver.Version, bool) {
	if s == "" {
		return semver.Version{}, false
	}
	v, err := semver.Parse(s)
	if err != nil {
		return semver.Version{}, false
	}
	return v, true
}

// weekSeries is a dense per-week int series over weeks [0, weeks), sized
// once by the collector's constructor. Observations outside the study's
// weeks are dropped, so no week number read from a store ever sizes an
// allocation.
type weekSeries []int

func newWeekSeries(weeks int) weekSeries { return make(weekSeries, weeks) }

func (s weekSeries) add(week, n int) {
	if week >= 0 && week < len(s) {
		s[week] += n
	}
}

// merge folds another series' counts into s.
func (s weekSeries) merge(o weekSeries) {
	for w, n := range o[:min(len(o), len(s))] {
		s[w] += n
	}
}

// mergeSeriesMap folds a map of lazily-created weekSeries into dst,
// creating missing entries of the given week count.
func mergeSeriesMap(dst, src map[string]weekSeries, weeks int) {
	for k, os := range src {
		ds, ok := dst[k]
		if !ok {
			ds = newWeekSeries(weeks)
			dst[k] = ds
		}
		ds.merge(os)
	}
}

// mergeCounts adds src's counters into dst.
func mergeCounts(dst, src map[string]int) {
	for k, n := range src {
		dst[k] += n
	}
}

// mergeHist adds src's histogram buckets into dst, growing dst to src's
// length when it is shorter, and returns it.
func mergeHist(dst, src []int) []int {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for k, n := range src {
		dst[k] += n
	}
	return dst
}

// mergeSets unions src into dst.
func mergeSets(dst, src map[string]bool) {
	for k := range src {
		dst[k] = true
	}
}

// mergeMinRank keeps the best (lowest) rank per key.
func mergeMinRank(dst, src map[string]int) {
	for k, r := range src {
		if cur, ok := dst[k]; !ok || r < cur {
			dst[k] = r
		}
	}
}

// Series returns a copy of the weekly counts.
func (s weekSeries) Series() []int { return append([]int(nil), s...) }

// meanRatio returns the average of num[i]/den[i] over the weeks whose
// denominator is positive; weeks with a zero denominator are skipped.
func meanRatio(num, den []int) float64 {
	sum, n := 0.0, 0
	for i := range num {
		if i < len(den) && den[i] > 0 {
			sum += float64(num[i]) / float64(den[i])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}
