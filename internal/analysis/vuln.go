package analysis

import (
	"sort"
	"time"

	"clientres/internal/store"
	"clientres/internal/vulndb"
)

// VulnPrevalence measures vulnerable websites (Section 6.2) under both the
// CVE-disclosed ranges and the True Vulnerable Version ranges (Section 6.4's
// refinement), the per-advisory affected-site series (Figures 5 and 14),
// and the per-site vulnerability-count distribution (Figure 12).
//
// A site counts as vulnerable to an advisory only from the advisory's
// public disclosure date onward — before that nobody, site owner included,
// could have known.
type VulnPrevalence struct {
	weeks     int
	collected weekSeries
	vulnCVE   weekSeries // sites with ≥1 vulnerability, CVE ranges
	vulnTVV   weekSeries // same under TVV ranges
	// vulnUncond restricts to advisories the paper's Section 9 does NOT
	// flag as condition-dependent — a "readily exploitable" lower bound
	// (an extension beyond the paper's headline metric).
	vulnUncond weekSeries

	perAdvisoryCVE map[string]weekSeries
	perAdvisoryTVV map[string]weekSeries

	histCVE map[int]int // per-(site,week) vulnerability count histogram
	histTVV map[int]int

	// undisclosed tracks domains observed vulnerable under TVV ranges but
	// clean under CVE ranges (domain → best rank) — the population behind
	// the paper's microsoft.com / docusign.com examples.
	undisclosed map[string]int

	parsed versionTable
}

// NewVulnPrevalence builds the collector.
func NewVulnPrevalence(weeks int) *VulnPrevalence {
	v := &VulnPrevalence{
		weeks:          weeks,
		collected:      newWeekSeries(weeks),
		vulnCVE:        newWeekSeries(weeks),
		vulnTVV:        newWeekSeries(weeks),
		vulnUncond:     newWeekSeries(weeks),
		perAdvisoryCVE: map[string]weekSeries{},
		perAdvisoryTVV: map[string]weekSeries{},
		histCVE:        map[int]int{},
		histTVV:        map[int]int{},
		undisclosed:    map[string]int{},
		parsed:         versionTable{},
	}
	for _, a := range vulndb.Advisories() {
		v.perAdvisoryCVE[a.ID] = newWeekSeries(weeks)
		v.perAdvisoryTVV[a.ID] = newWeekSeries(weeks)
	}
	return v
}

// Observe implements Collector.
func (v *VulnPrevalence) Observe(obs store.Observation) {
	if !obs.OK() {
		return
	}
	v.collected.add(obs.Week, 1)
	date := WeekDate(obs.Week)
	nCVE, nTVV, nUncond := 0, 0, 0
	for _, lib := range obs.Libs {
		pv, ok := v.parsed.parse(lib.Version)
		if !ok {
			continue
		}
		ver := pv.v
		for _, adv := range vulndb.AdvisoriesFor(lib.Slug) {
			if adv.Disclosed.After(date) {
				continue
			}
			if adv.CVERange.Contains(ver) {
				nCVE++
				v.perAdvisoryCVE[adv.ID].add(obs.Week, 1)
			}
			if adv.EffectiveTrueRange().Contains(ver) {
				nTVV++
				v.perAdvisoryTVV[adv.ID].add(obs.Week, 1)
				if !adv.Conditional {
					nUncond++
				}
			}
		}
	}
	if nCVE > 0 {
		v.vulnCVE.add(obs.Week, 1)
	}
	if nTVV > 0 {
		v.vulnTVV.add(obs.Week, 1)
	}
	if nUncond > 0 {
		v.vulnUncond.add(obs.Week, 1)
	}
	if nTVV > 0 && nCVE == 0 {
		if r, ok := v.undisclosed[obs.Domain]; !ok || obs.Rank < r {
			v.undisclosed[obs.Domain] = obs.Rank
		}
	}
	v.histCVE[nCVE]++
	v.histTVV[nTVV]++
}

// Merge folds another VulnPrevalence's aggregates into v. The two
// collectors must have observed disjoint shards of the same study (see
// Collector).
func (v *VulnPrevalence) Merge(o *VulnPrevalence) {
	v.collected.merge(o.collected)
	v.vulnCVE.merge(o.vulnCVE)
	v.vulnTVV.merge(o.vulnTVV)
	v.vulnUncond.merge(o.vulnUncond)
	mergeSeriesMap(v.perAdvisoryCVE, o.perAdvisoryCVE, v.weeks)
	mergeSeriesMap(v.perAdvisoryTVV, o.perAdvisoryTVV, v.weeks)
	mergeHist(v.histCVE, o.histCVE)
	mergeHist(v.histTVV, o.histTVV)
	mergeMinRank(v.undisclosed, o.undisclosed)
	v.parsed.merge(o.parsed)
}

// MeanVulnerableShare returns the average weekly share of collected sites
// carrying ≥1 known vulnerability — the paper's 41.2 % (CVE ranges) and
// 43.2 % (TVV ranges).
func (v *VulnPrevalence) MeanVulnerableShare(useTVV bool) float64 {
	s := v.vulnCVE
	if useTVV {
		s = v.vulnTVV
	}
	return meanRatio(s, v.collected)
}

// VulnerableSeries returns the weekly vulnerable-site share series.
func (v *VulnPrevalence) VulnerableSeries(useTVV bool) []float64 {
	s := v.vulnCVE
	if useTVV {
		s = v.vulnTVV
	}
	num, den := s, v.collected
	out := make([]float64, v.weeks)
	for i := range out {
		if den[i] > 0 {
			out[i] = float64(num[i]) / float64(den[i])
		}
	}
	return out
}

// AdvisorySeries returns the weekly count of sites affected by one advisory
// under both rulesets (Figures 5 and 14).
func (v *VulnPrevalence) AdvisorySeries(id string) (cve, tvv []int) {
	c, ok := v.perAdvisoryCVE[id]
	if !ok {
		return make([]int, v.weeks), make([]int, v.weeks)
	}
	return c.Series(), v.perAdvisoryTVV[id].Series()
}

// MeanAffected returns the average weekly number of sites affected by one
// advisory (the Table 2 "# of Website" columns), under CVE or TVV ranges.
func (v *VulnPrevalence) MeanAffected(id string, useTVV bool) float64 {
	m := v.perAdvisoryCVE
	if useTVV {
		m = v.perAdvisoryTVV
	}
	s, ok := m[id]
	if !ok {
		return 0
	}
	// Average over the weeks after the advisory's disclosure.
	var adv vulndb.Advisory
	for _, a := range vulndb.Advisories() {
		if a.ID == id {
			adv = a
		}
	}
	from := weekOfDate(adv.Disclosed)
	if from < 0 {
		from = 0
	}
	if from >= v.weeks {
		return 0
	}
	sum, n := 0, 0
	for w := from; w < v.weeks; w++ {
		sum += s[w]
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

func weekOfDate(t time.Time) int {
	if t.IsZero() {
		return 0
	}
	return int(t.Sub(WeekDate(0)) / (7 * 24 * time.Hour))
}

// CDFPoint is one point of the Figure 12 CDF.
type CDFPoint struct {
	Count int     // number of vulnerabilities
	CDF   float64 // fraction of (site, week) pages with ≤ Count
}

// VulnCDF returns the per-page vulnerability-count CDF (Figure 12).
func (v *VulnPrevalence) VulnCDF(useTVV bool) []CDFPoint {
	hist := v.histCVE
	if useTVV {
		hist = v.histTVV
	}
	var counts []int
	total := 0
	for c, n := range hist {
		counts = append(counts, c)
		total += n
	}
	sort.Ints(counts)
	var out []CDFPoint
	cum := 0
	for _, c := range counts {
		cum += hist[c]
		out = append(out, CDFPoint{Count: c, CDF: float64(cum) / float64(total)})
	}
	return out
}

// MeanVulnsPerSite returns the mean vulnerability count per page — the
// paper's 0.79 (CVE) and 0.97 (TVV).
func (v *VulnPrevalence) MeanVulnsPerSite(useTVV bool) float64 {
	hist := v.histCVE
	if useTVV {
		hist = v.histTVV
	}
	sum, total := 0, 0
	for c, n := range hist {
		sum += c * n
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(sum) / float64(total)
}

// YearShare is one calendar year's mean vulnerable-site shares.
type YearShare struct {
	Year     int
	CVE, TVV float64
}

// YearlyShares breaks the prevalence down per calendar year — the paper's
// observation that the CVE/TVV gap grows from 0.1 points (2018) to
// 2.9 points (2022).
func (v *VulnPrevalence) YearlyShares() []YearShare {
	cve, tvv, den := v.vulnCVE, v.vulnTVV, v.collected
	type acc struct {
		c, t float64
		n    int
	}
	byYear := map[int]*acc{}
	for w := 0; w < v.weeks; w++ {
		if den[w] == 0 {
			continue
		}
		y := WeekDate(w).Year()
		a := byYear[y]
		if a == nil {
			a = &acc{}
			byYear[y] = a
		}
		a.c += float64(cve[w]) / float64(den[w])
		a.t += float64(tvv[w]) / float64(den[w])
		a.n++
	}
	var years []int
	for y := range byYear {
		years = append(years, y)
	}
	sort.Ints(years)
	out := make([]YearShare, len(years))
	for i, y := range years {
		a := byYear[y]
		out[i] = YearShare{Year: y, CVE: a.c / float64(a.n), TVV: a.t / float64(a.n)}
	}
	return out
}

// UndisclosedSite is a site vulnerable only under the corrected (TVV)
// ranges — invisible to anyone who trusts the CVE reports.
type UndisclosedSite struct {
	Domain string
	Rank   int
}

// TopUndisclosedSites returns the best-ranked such sites (the paper's
// high-profile examples: microsoft.com on jQuery 3.5.1, docusign.com on
// 2.2.3), rank ascending, at most n.
func (v *VulnPrevalence) TopUndisclosedSites(n int) []UndisclosedSite {
	out := make([]UndisclosedSite, 0, len(v.undisclosed))
	for domain, rank := range v.undisclosed {
		out = append(out, UndisclosedSite{Domain: domain, Rank: rank})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// MeanReadilyExploitableShare returns the vulnerable-site share counting
// only advisories without Section 9's exploitation preconditions — the
// exploitability-aware refinement the paper lists as future work.
func (v *VulnPrevalence) MeanReadilyExploitableShare() float64 {
	return meanRatio(v.vulnUncond, v.collected)
}
