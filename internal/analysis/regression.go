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
	// domains holds each domain's libraries, in first-seen order.
	domains map[string][]regLib
	// regressed holds the domains with ≥1 downgrade.
	regressed map[string]bool
	// downgrades counts observed version downgrades per library.
	downgrades map[string]int
	// reopened counts, per advisory position in vulndb.Advisories(),
	// downgrades that moved the site back *into* an advisory's vulnerable
	// range it had previously left.
	reopened []int
	libs     libTable
}

// regLib is one (domain, library) state.
type regLib struct {
	// last is the most recent version, of the pair's library; a record of
	// the same version resolves to it without a table lookup.
	last *version
	// out has bit k set while the site has been seen outside advisory k's
	// vulnerable range since it was last inside it (post-disclosure); set
	// records which bits were ever written.
	out, set advMask
}

// NewRegressions builds the collector.
func NewRegressions(weeks int) *Regressions {
	return &Regressions{
		weeks:      weeks,
		domains:    map[string][]regLib{},
		regressed:  map[string]bool{},
		downgrades: map[string]int{},
		reopened:   make([]int, len(vulndb.Advisories())),
		libs:       libTable{},
	}
}

// Observe implements Collector. An observation at a week outside the study
// is dropped, as every week series drops it.
func (r *Regressions) Observe(obs store.Observation) {
	w := obs.Week
	if !obs.OK() || w < 0 || w >= r.weeks {
		return
	}
	var libs []regLib
	looked := false
	for i := range obs.Libs {
		rec := &obs.Libs[i]
		if rec.Version == "" {
			continue
		}
		if !looked {
			libs, looked = r.domains[obs.Domain], true
		}
		j := 0
		for j < len(libs) && libs[j].last.lib.slug != rec.Slug {
			j++
		}
		if j == len(libs) || libs[j].last.raw != rec.Version {
			lib := r.libs.get(rec.Slug)
			ver, ok := lib.parse(rec.Version)
			if !ok {
				continue
			}
			if j == len(libs) {
				libs = appendOne(libs, regLib{last: ver})
				r.domains[obs.Domain] = libs
			} else if ver.v.Less(libs[j].last.v) {
				r.downgrades[lib.slug]++
				r.regressed[obs.Domain] = true
			}
			libs[j].last = ver
		}
		st := &libs[j]
		// Vulnerability window re-opening: entering a range after having
		// been seen outside it (post-disclosure).
		advs := st.last.lib.advs()
		for k := range advs {
			a := &advs[k]
			if w < a.disclosed {
				continue
			}
			bit := advMask(1) << k
			switch {
			case st.last.tvv&bit == 0:
				st.out |= bit
				st.set |= bit
			case st.out&bit != 0:
				r.reopened[a.pos]++
				st.out &^= bit
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
	r.libs.merge(o.libs)
	mergeCounts(r.downgrades, o.downgrades)
	mergeSets(r.regressed, o.regressed)
	for pos, n := range o.reopened {
		r.reopened[pos] += n
	}
	for name, olibs := range o.domains {
		libs := r.domains[name]
		for _, os := range olibs {
			j := 0
			slug := os.last.lib.slug
			for j < len(libs) && libs[j].last.lib.slug != slug {
				j++
			}
			if j == len(libs) {
				libs = appendOne(libs, regLib{last: r.libs.get(slug).own(os.last)})
			}
			// Exit states the receiver never wrote come from o.
			st := &libs[j]
			take := os.set &^ st.set
			st.out |= os.out & take
			st.set |= take
		}
		r.domains[name] = libs
	}
}

// RegressedDomains returns the number of domains with ≥1 observed version
// downgrade.
func (r *Regressions) RegressedDomains() int { return len(r.regressed) }

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
	out := map[string]int{}
	for pos, a := range vulndb.Advisories() {
		if n := r.reopened[pos]; n > 0 {
			out[a.ID] = n
		}
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
