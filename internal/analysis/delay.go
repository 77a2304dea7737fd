package analysis

import (
	"time"

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
	// ruleset per advisory id: both rulesets tracked in parallel.
	states map[delayKey]*delayState
	parsed versionTable
}

type delayKey struct {
	domain string
	advID  string
	tvv    bool
}

type delayState struct {
	// affectedSince is the date the measurable window opened: the later of
	// the patch release and the first affected observation.
	affectedSince time.Time
	affected      bool
	updated       bool
	delayDays     int
}

// NewUpdateDelay builds the collector.
func NewUpdateDelay(weeks int) *UpdateDelay {
	return &UpdateDelay{weeks: weeks, states: map[delayKey]*delayState{}, parsed: versionTable{}}
}

// Observe implements Collector.
func (u *UpdateDelay) Observe(obs store.Observation) {
	if !obs.OK() {
		return
	}
	date := WeekDate(obs.Week)
	for _, lib := range obs.Libs {
		advisories := vulndb.AdvisoriesFor(lib.Slug)
		if len(advisories) == 0 {
			continue
		}
		pv, ok := u.parsed.parse(lib.Version)
		if !ok {
			continue
		}
		ver := pv.v
		for _, adv := range advisories {
			if adv.Patched.IsZero() {
				continue // no patched version: no window to measure
			}
			if date.Before(adv.PatchDate) {
				// The patch is not out yet; nothing measurable.
				continue
			}
			u.step(obs.Domain, adv.ID, false, adv.CVERange.Contains(ver), adv.PatchDate, date)
			u.step(obs.Domain, adv.ID, true, adv.EffectiveTrueRange().Contains(ver), adv.PatchDate, date)
		}
	}
}

func (u *UpdateDelay) step(domain, advID string, tvv, affected bool, patchDate, date time.Time) {
	key := delayKey{domain: domain, advID: advID, tvv: tvv}
	st := u.states[key]
	switch {
	case affected:
		if st == nil {
			since := patchDate
			if date.After(since) {
				// First affected observation opens the window (a site
				// adopting a vulnerable version late is measured from
				// then, not from the patch date).
				since = date
			}
			u.states[key] = &delayState{affectedSince: since, affected: true}
			return
		}
		if st.updated {
			return // regression after update: window already measured
		}
		st.affected = true
	case st != nil && st.affected && !st.updated:
		// First non-affected observation of the same library: updated.
		st.updated = true
		st.delayDays = int(date.Sub(st.affectedSince).Hours() / 24)
	}
}

// Merge folds another UpdateDelay's state into u. Exact when the two
// collectors observed disjoint domain sets (the sharding contract, see
// Collector): each (domain, advisory) state machine then lives wholly in
// one of the two. Overlapping keys cannot be replayed and resolve by a
// deterministic, commutative rule: a closed window wins over an open one,
// then the earlier window start, then the shorter delay.
func (u *UpdateDelay) Merge(o *UpdateDelay) {
	u.parsed.merge(o.parsed)
	for key, os := range o.states {
		st := u.states[key]
		if st == nil {
			cp := *os
			u.states[key] = &cp
			continue
		}
		switch {
		case os.updated && !st.updated:
			*st = *os
		case os.updated == st.updated:
			if os.affectedSince.Before(st.affectedSince) ||
				(os.affectedSince.Equal(st.affectedSince) && os.delayDays < st.delayDays) {
				*st = *os
			}
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
	sums := map[string]int{}
	counts := map[string]int{}
	totalSum := 0
	for key, st := range u.states {
		if key.tvv != useTVV || !include[key.advID] {
			continue
		}
		if !st.updated {
			res.Censored++
			continue
		}
		res.Updated++
		totalSum += st.delayDays
		sums[key.advID] += st.delayDays
		counts[key.advID]++
	}
	if res.Updated > 0 {
		res.MeanDays = float64(totalSum) / float64(res.Updated)
	}
	for id, sum := range sums {
		res.PerAdvisory[id] = float64(sum) / float64(counts[id])
	}
	return res
}
