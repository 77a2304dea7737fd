package analysis

import (
	"clientres/internal/store"
	"clientres/internal/vulndb"
	"clientres/internal/webgen"
)

// WordPress measures the platform's footprint (Figure 9) and its Table 4
// CVE exposure — the context for the auto-update finding of Section 7.
type WordPress struct {
	weeks     int
	collected weekSeries
	wpSites   weekSeries
	// affected counts sites per WP advisory per week (from disclosure on),
	// indexed by position in vulndb.WordPressAdvisories().
	affected []weekSeries
	// versions holds every WordPress version string seen, for the
	// 521-versions-found statistic.
	versions *library
}

// NewWordPress builds the collector.
func NewWordPress(weeks int) *WordPress {
	w := &WordPress{
		weeks:     weeks,
		collected: newWeekSeries(weeks),
		wpSites:   newWeekSeries(weeks),
		versions:  newLibrary(wordPress.slug, wordPress),
	}
	for range wordPress.advs {
		w.affected = append(w.affected, newWeekSeries(weeks))
	}
	return w
}

// Observe implements Collector.
func (w *WordPress) Observe(obs store.Observation) {
	if !obs.OK() {
		return
	}
	w.collected.add(obs.Week, 1)
	if obs.WordPress == "" {
		return
	}
	w.wpSites.add(obs.Week, 1)
	ver, ok := w.versions.parse(obs.WordPress)
	if !ok {
		return
	}
	for k := range wordPress.advs {
		if a := &wordPress.advs[k]; ver.cve&(1<<k) != 0 && obs.Week >= a.disclosed {
			w.affected[k].add(obs.Week, 1)
		}
	}
}

// Merge folds another WordPress collector's aggregates into w. The two
// collectors must have observed disjoint shards of the same study (see
// Collector).
func (w *WordPress) Merge(o *WordPress) {
	w.collected.merge(o.collected)
	w.wpSites.merge(o.wpSites)
	for k := range w.affected {
		w.affected[k].merge(o.affected[k])
	}
	w.versions.merge(o.versions)
}

// MeanShare returns the average share of collected sites built with
// WordPress (the paper's 26.9 %).
func (w *WordPress) MeanShare() float64 {
	return meanRatio(w.wpSites, w.collected)
}

// UsageSeries returns the Figure 9 weekly WordPress site counts.
func (w *WordPress) UsageSeries() (all, wp []int) {
	return w.collected.Series(), w.wpSites.Series()
}

// Table4Row is one row of Table 4 as measured on this dataset.
type Table4Row struct {
	Advisory vulndb.WPAdvisory
	// MeanAffected is the average weekly affected-site count after
	// disclosure (the table's #Websites column).
	MeanAffected float64
}

// Table4 computes the measured Table 4.
func (w *WordPress) Table4() []Table4Row {
	var rows []Table4Row
	for k, adv := range vulndb.WordPressAdvisories() {
		series := w.affected[k]
		from := webgen.WeekOf(adv.Disclosed)
		if from < 0 { // disclosed before the study, or a zero date
			from = 0
		}
		row := Table4Row{Advisory: adv}
		if from < w.weeks {
			row.MeanAffected = meanInt(series[from:])
		}
		rows = append(rows, row)
	}
	return rows
}

// DistinctVersions returns the number of distinct WordPress versions seen.
func (w *WordPress) DistinctVersions() int {
	canon := map[string]bool{}
	for _, v := range w.versions.vers {
		canon[v.v.Canonical()] = true
	}
	return len(canon)
}
