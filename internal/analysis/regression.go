package analysis

import (
	"sort"

	"clientres/internal/store"
	"clientres/internal/vulndb"
)

// Regressions measures the paper's Section 9 future-work question: websites
// that updated to a patched version and subsequently rolled back —
// re-opening a window of vulnerability, "potentially due to compatibility
// concerns".
//
// Like UpdateDelay this collector requires week-ascending observation order
// per domain.
type Regressions struct {
	weeks int
	// last holds each (domain, lib)'s most recent version string.
	last map[regKey]string
	// downgrades counts observed version downgrades per library.
	downgrades map[string]int
	// reopened counts downgrades that moved the site back *into* an
	// advisory's vulnerable range it had previously left.
	reopened map[string]int // advisory ID → count
	// domains with ≥1 downgrade.
	regressedDomains map[string]bool
	// exitState tracks, per (domain, advisory), whether the site has been
	// seen outside the vulnerable range after having been inside it.
	exitState map[regAdvKey]bool
	parsed    versionTable
}

type regKey struct{ domain, lib string }
type regAdvKey struct{ domain, advID string }

// NewRegressions builds the collector.
func NewRegressions(weeks int) *Regressions {
	return &Regressions{
		weeks:            weeks,
		last:             map[regKey]string{},
		downgrades:       map[string]int{},
		reopened:         map[string]int{},
		regressedDomains: map[string]bool{},
		exitState:        map[regAdvKey]bool{},
		parsed:           versionTable{},
	}
}

// Name implements Collector.
func (r *Regressions) Name() string { return "regressions" }

// Observe implements Collector.
func (r *Regressions) Observe(obs store.Observation) {
	if !obs.OK() {
		return
	}
	date := WeekDate(obs.Week)
	for _, lib := range obs.Libs {
		pv, ok := r.parsed.parse(lib.Version)
		if !ok {
			continue
		}
		ver := pv.v
		key := regKey{obs.Domain, lib.Slug}
		if prevStr, seen := r.last[key]; seen {
			if prev, ok := r.parsed.parse(prevStr); ok && ver.Less(prev.v) {
				r.downgrades[lib.Slug]++
				r.regressedDomains[obs.Domain] = true
			}
		}
		r.last[key] = lib.Version

		// Vulnerability window re-opening: entering a range after having
		// been seen outside it (post-disclosure).
		for _, adv := range vulndb.AdvisoriesFor(lib.Slug) {
			if adv.Disclosed.After(date) {
				continue
			}
			akey := regAdvKey{obs.Domain, adv.ID}
			in := adv.EffectiveTrueRange().Contains(ver)
			wasOut := r.exitState[akey]
			switch {
			case !in:
				r.exitState[akey] = true
			case in && wasOut:
				r.reopened[adv.ID]++
				r.exitState[akey] = false
			}
		}
	}
}

// Merge folds another Regressions' aggregates into r. The two collectors
// must have observed disjoint shards of the same study (see Collector):
// the last-version and exit-state machines are per-domain and only merge
// exactly under domain-disjoint sharding (overlapping keys keep the
// receiver's state).
func (r *Regressions) Merge(o *Regressions) {
	for key, v := range o.last {
		if _, ok := r.last[key]; !ok {
			r.last[key] = v
		}
	}
	mergeCounts(r.downgrades, o.downgrades)
	r.parsed.merge(o.parsed)
	mergeCounts(r.reopened, o.reopened)
	mergeSets(r.regressedDomains, o.regressedDomains)
	for key, v := range o.exitState {
		if _, ok := r.exitState[key]; !ok {
			r.exitState[key] = v
		}
	}
}

// RegressedDomains returns the number of domains with ≥1 observed version
// downgrade.
func (r *Regressions) RegressedDomains() int { return len(r.regressedDomains) }

// LibCount is one (library, count) aggregate.
type LibCount struct {
	Slug  string
	Count int
}

// DowngradesByLibrary returns downgrade event counts per library, largest
// first.
func (r *Regressions) DowngradesByLibrary() []LibCount {
	var out []LibCount
	for slug, n := range r.downgrades {
		out = append(out, LibCount{Slug: slug, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Slug < out[j].Slug
	})
	return out
}

// ReopenedWindows returns, per advisory, how many times a site re-entered
// the vulnerable range after having left it.
func (r *Regressions) ReopenedWindows() map[string]int {
	out := make(map[string]int, len(r.reopened))
	for id, n := range r.reopened {
		out[id] = n
	}
	return out
}

// TotalReopened sums re-opened windows across advisories.
func (r *Regressions) TotalReopened() int {
	total := 0
	for _, n := range r.reopened {
		total += n
	}
	return total
}
