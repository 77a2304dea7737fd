package analysis

import (
	"clientres/internal/store"
	"clientres/internal/vulndb"
)

// WordPress measures the platform's footprint (Figure 9) and its Table 4
// CVE exposure — the context for the auto-update finding of Section 7.
type WordPress struct {
	weeks     int
	collected weekSeries
	wpSites   weekSeries
	// affected counts sites per WP advisory per week (from disclosure on).
	affected map[string]weekSeries
	// versions counts WP versions for the 521-versions-found statistic.
	versions map[string]int
	parsed   versionTable
}

// NewWordPress builds the collector.
func NewWordPress(weeks int) *WordPress {
	w := &WordPress{
		weeks:     weeks,
		collected: newWeekSeries(weeks),
		wpSites:   newWeekSeries(weeks),
		affected:  map[string]weekSeries{},
		versions:  map[string]int{},
		parsed:    versionTable{},
	}
	for _, a := range vulndb.WordPressAdvisories() {
		w.affected[a.ID] = newWeekSeries(weeks)
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
	pv, ok := w.parsed.parse(obs.WordPress)
	if !ok {
		return
	}
	ver := pv.v
	w.versions[pv.canon]++
	date := WeekDate(obs.Week)
	for _, adv := range vulndb.WordPressAdvisories() {
		if adv.Disclosed.After(date) {
			continue
		}
		if adv.Range.Contains(ver) {
			w.affected[adv.ID].add(obs.Week, 1)
		}
	}
}

// Merge folds another WordPress collector's aggregates into w. The two
// collectors must have observed disjoint shards of the same study (see
// Collector).
func (w *WordPress) Merge(o *WordPress) {
	w.collected.merge(o.collected)
	w.wpSites.merge(o.wpSites)
	mergeSeriesMap(w.affected, o.affected, w.weeks)
	w.parsed.merge(o.parsed)
	mergeCounts(w.versions, o.versions)
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
	for _, adv := range vulndb.WordPressAdvisories() {
		series := w.affected[adv.ID]
		from := weekOfDate(adv.Disclosed)
		if from < 0 {
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
func (w *WordPress) DistinctVersions() int { return len(w.versions) }
