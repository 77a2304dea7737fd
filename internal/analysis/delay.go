package analysis

import (
	"clientres/internal/store"
	"clientres/internal/vulndb"
)

// UpdateDelay measures the window of vulnerability (Section 7): for every
// (site, advisory) pair where the site used an affected version after the
// patched version's release, how many days passed until the site was first
// observed on a non-affected version of the same library.
//
// Unlike the other collectors, UpdateDelay requires observations to arrive
// in non-decreasing week order per domain (the state machine tracks
// affected → updated transitions); every source in this module iterates
// weeks in ascending order, satisfying that.
type UpdateDelay struct {
	weeks int
	// domains holds each domain's libraries with advisories, in first-seen
	// order.
	domains map[string][]delayLib
	vers    advTables
}

// delayLib is one (domain, library) pair's windows.
type delayLib struct {
	// last is the version last seen, of the pair's library; a record of the
	// same version resolves to it without a table lookup.
	last *version
	// states holds two windows per advisory of the library (its CVE-range
	// window, then its TVV-range window); nil until one opens.
	states []delayState
}

// delayState is one (domain, advisory, ruleset) window. Weeks are stored
// one up, so that the zero value is a window that never opened.
type delayState struct {
	// from is the week of the first affected observation the patch was out
	// for, plus one: the window opens there.
	from int32
	// to is the week of the first non-affected observation after that,
	// plus one; zero while the window is open.
	to int32
}

// step folds one observation at week w into the window.
func (s *delayState) step(affected bool, w int) {
	switch {
	case affected:
		// The first affected observation opens the window; once it has
		// closed, a regression is not measured again.
		if s.from == 0 {
			s.from = int32(w) + 1
		}
	case s.from != 0 && s.to == 0:
		// First non-affected observation of the same library: updated.
		s.to = int32(w) + 1
	}
}

// days is the closed window's length, zero while it is open.
func (s delayState) days() int {
	if s.to == 0 {
		return 0
	}
	return 7 * int(s.to-s.from)
}

// NewUpdateDelay builds the collector.
func NewUpdateDelay(weeks int) *UpdateDelay {
	return &UpdateDelay{weeks: weeks, domains: map[string][]delayLib{}, vers: newAdvTables()}
}

// Observe implements Collector. An observation at a week outside the study
// is dropped, as every week series drops it.
func (u *UpdateDelay) Observe(obs store.Observation) {
	w := obs.Week
	if !obs.OK() || w < 0 || w >= u.weeks {
		return
	}
	var libs []delayLib
	looked := false
	for i := range obs.Libs {
		rec := &obs.Libs[i]
		adv := advLibs[rec.Slug]
		if adv == nil || rec.Version == "" {
			continue
		}
		if !looked {
			libs, looked = u.domains[obs.Domain], true
		}
		j := 0
		for j < len(libs) && libs[j].last.lib.adv != adv {
			j++
		}
		if j == len(libs) || libs[j].last.raw != rec.Version {
			ver, ok := u.vers[adv.idx].parse(rec.Version)
			if !ok {
				continue
			}
			if j == len(libs) {
				libs = appendOne(libs, delayLib{})
				u.domains[obs.Domain] = libs
			}
			libs[j].last = ver
		}
		st := &libs[j]
		ver := st.last
		// The advisories whose patch is out at w: the measurable windows.
		// An advisory without a patched version has none, and before its
		// patch is out nothing is measurable, so a window opens at the first
		// affected observation on or after the patch release (a site
		// adopting a vulnerable version late is measured from then).
		var live advMask
		for k := range adv.advs {
			if a := &adv.advs[k]; a.patched && w >= a.patchWeek {
				live |= 1 << k
			}
		}
		if st.states == nil {
			// Nothing opened yet: only an affected version changes that.
			if (ver.cve|ver.tvv)&live == 0 {
				continue
			}
			st.states = make([]delayState, 2*len(adv.advs))
		}
		for k := range adv.advs {
			if bit := advMask(1) << k; live&bit != 0 {
				st.states[2*k].step(ver.cve&bit != 0, w)
				st.states[2*k+1].step(ver.tvv&bit != 0, w)
			}
		}
	}
}

// Merge folds another UpdateDelay's state into u. Exact when the two
// collectors observed disjoint domain sets (the sharding contract, see
// Collector): each (domain, advisory) state machine then lives wholly in
// one of the two. Overlapping keys cannot be replayed and resolve by a
// deterministic, commutative rule: a closed window wins over an open one,
// then the earlier window start, then the shorter delay.
func (u *UpdateDelay) Merge(o *UpdateDelay) {
	u.vers.merge(o.vers)
	for name, olibs := range o.domains {
		libs := u.domains[name]
		for _, ol := range olibs {
			adv := ol.last.lib.adv
			j := 0
			for j < len(libs) && libs[j].last.lib.adv != adv {
				j++
			}
			if j == len(libs) {
				libs = appendOne(libs, delayLib{last: u.vers[adv.idx].own(ol.last)})
			}
			st := &libs[j]
			switch {
			case ol.states == nil:
			case st.states == nil:
				st.states = append([]delayState(nil), ol.states...)
			default:
				for i, os := range ol.states {
					mergeWindow(&st.states[i], os)
				}
			}
		}
		u.domains[name] = libs
	}
}

// mergeWindow resolves one window present in both sides of a merge.
func mergeWindow(st *delayState, os delayState) {
	switch {
	case os.from == 0:
	case st.from == 0, os.to != 0 && st.to == 0:
		*st = os
	case (os.to != 0) == (st.to != 0):
		if os.from < st.from || (os.from == st.from && os.days() < st.days()) {
			*st = os
		}
	}
}

// Result summarizes the window of vulnerability under one ruleset.
type DelayResult struct {
	// Updated is the number of (site, advisory) windows that closed.
	Updated int
	// Censored is the number still open at the end of the study.
	Censored int
	// MeanDays is the average closed-window length (the paper's 531.2 and
	// 701.2 day headline numbers).
	MeanDays float64
	// PerAdvisory maps advisory ID to its mean closed-window length.
	PerAdvisory map[string]float64
}

// Result computes the aggregate for the CVE ruleset (useTVV=false) or the
// TVV ruleset. understatedOnly restricts to advisories whose published TVV
// differs from the CVE range toward more versions — the population behind
// the paper's 701.2-day finding.
func (u *UpdateDelay) Result(useTVV, understatedOnly bool) DelayResult {
	include := map[string]bool{}
	for _, a := range vulndb.Advisories() {
		if understatedOnly {
			cat, _ := vulndb.CatalogFor(a.Lib)
			acc := a.ClassifyAccuracy(cat)
			if acc != vulndb.Understated && acc != vulndb.Mixed {
				continue
			}
		}
		include[a.ID] = true
	}
	res := DelayResult{PerAdvisory: map[string]float64{}}
	n := len(vulndb.Advisories())
	sums, counts := make([]int, n), make([]int, n)
	totalSum := 0
	ruleset := 0
	if useTVV {
		ruleset = 1
	}
	for _, libs := range u.domains {
		for _, l := range libs {
			if l.states == nil {
				continue
			}
			advs := l.last.lib.adv.advs
			for k := range advs {
				a := &advs[k]
				st := l.states[2*k+ruleset]
				if st.from == 0 || !include[a.id] {
					continue
				}
				if st.to == 0 {
					res.Censored++
					continue
				}
				res.Updated++
				totalSum += st.days()
				sums[a.pos] += st.days()
				counts[a.pos]++
			}
		}
	}
	if res.Updated > 0 {
		res.MeanDays = float64(totalSum) / float64(res.Updated)
	}
	for pos, a := range vulndb.Advisories() {
		if counts[pos] > 0 {
			res.PerAdvisory[a.ID] = float64(sums[pos]) / float64(counts[pos])
		}
	}
	return res
}
