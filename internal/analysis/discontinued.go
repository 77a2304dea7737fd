package analysis

import (
	"clientres/internal/store"
	"clientres/internal/vulndb"
)

// Discontinued measures the use of discontinued library projects
// (Section 6.3) and the jQuery-Cookie → JS-Cookie migration.
type Discontinued struct {
	weeks     int
	collected weekSeries
	// usage per discontinued slug per week.
	usage map[string]weekSeries
	// Migration tracking: the domains ever seen with jquery-cookie, each
	// true once later seen with js-cookie but no jquery-cookie.
	jqCookie map[string]bool
}

// NewDiscontinued builds the collector. Like UpdateDelay it relies on
// week-ascending observation order per domain for the migration direction.
func NewDiscontinued(weeks int) *Discontinued {
	d := &Discontinued{
		weeks:     weeks,
		collected: newWeekSeries(weeks),
		usage:     map[string]weekSeries{},
		jqCookie:  map[string]bool{},
	}
	for _, lib := range vulndb.Libraries() {
		if lib.Discontinued {
			d.usage[lib.Slug] = newWeekSeries(weeks)
		}
	}
	return d
}

// Observe implements Collector.
func (d *Discontinued) Observe(obs store.Observation) {
	if !obs.OK() {
		return
	}
	d.collected.add(obs.Week, 1)
	hasJQC, hasJSC := false, false
	for _, lib := range obs.Libs {
		if s, ok := d.usage[lib.Slug]; ok {
			s.add(obs.Week, 1)
		}
		switch lib.Slug {
		case "jquery-cookie":
			hasJQC = true
		case "js-cookie":
			hasJSC = true
		}
	}
	switch {
	case hasJQC:
		if _, ok := d.jqCookie[obs.Domain]; !ok {
			d.jqCookie[obs.Domain] = false
		}
	case hasJSC:
		if _, ok := d.jqCookie[obs.Domain]; ok {
			d.jqCookie[obs.Domain] = true
		}
	}
}

// Merge folds another Discontinued's aggregates into d. The two collectors
// must have observed disjoint shards of the same study (see Collector):
// the jQuery-Cookie → JS-Cookie migration tracker is a per-domain state
// machine that only merges exactly under domain-disjoint sharding.
func (d *Discontinued) Merge(o *Discontinued) {
	d.collected.merge(o.collected)
	mergeSeriesMap(d.usage, o.usage, d.weeks)
	for dom, migrated := range o.jqCookie {
		d.jqCookie[dom] = d.jqCookie[dom] || migrated
	}
}

// MeanUsage returns the average weekly usage share of a discontinued
// library.
func (d *Discontinued) MeanUsage(slug string) float64 {
	s, ok := d.usage[slug]
	if !ok {
		return 0
	}
	return meanRatio(s, d.collected)
}

// MigrationStats returns the jQuery-Cookie population and how many of those
// domains migrated to JS-Cookie during the study (the paper found 39 %
// migrated over seven years; within the four-year window the share is
// lower).
func (d *Discontinued) MigrationStats() (everUsed, migrated int) {
	for _, m := range d.jqCookie {
		if m {
			migrated++
		}
	}
	return len(d.jqCookie), migrated
}
