package analysis

import "clientres/internal/store"

// Collection measures the dataset itself: how many domains answered with a
// usable landing page each week (Figure 2a) and which resource types those
// pages used (Figure 2b).
type Collection struct {
	weeks     int
	attempted weekSeries
	collected weekSeries

	js, css, favicon, imported, xml, svg, flash, axd weekSeries
}

// NewCollection builds the collector for a study of the given week count.
func NewCollection(weeks int) *Collection {
	return &Collection{
		weeks:     weeks,
		attempted: newWeekSeries(weeks), collected: newWeekSeries(weeks),
		js: newWeekSeries(weeks), css: newWeekSeries(weeks), favicon: newWeekSeries(weeks),
		imported: newWeekSeries(weeks), xml: newWeekSeries(weeks), svg: newWeekSeries(weeks),
		flash: newWeekSeries(weeks), axd: newWeekSeries(weeks),
	}
}

// Name implements Collector.
func (c *Collection) Name() string { return "collection" }

// Observe implements Collector.
func (c *Collection) Observe(obs store.Observation) {
	c.attempted.add(obs.Week, 1)
	if !obs.OK() {
		return
	}
	c.collected.add(obs.Week, 1)
	r := obs.Resources
	mark := func(s weekSeries, on bool) {
		if on {
			s.add(obs.Week, 1)
		}
	}
	mark(c.js, r.JavaScript)
	mark(c.css, r.CSS)
	mark(c.favicon, r.Favicon)
	mark(c.imported, r.ImportedHTML)
	mark(c.xml, r.XML)
	mark(c.svg, r.SVG)
	mark(c.flash, r.Flash)
	mark(c.axd, r.AXD)
}

// Merge folds another Collection's aggregates into c. The two collectors
// must have observed disjoint shards of the same study (see Collector).
func (c *Collection) Merge(o *Collection) {
	c.attempted.merge(o.attempted)
	c.collected.merge(o.collected)
	c.js.merge(o.js)
	c.css.merge(o.css)
	c.favicon.merge(o.favicon)
	c.imported.merge(o.imported)
	c.xml.merge(o.xml)
	c.svg.merge(o.svg)
	c.flash.merge(o.flash)
	c.axd.merge(o.axd)
}

// CollectedSeries returns the weekly count of usable pages (Figure 2a).
func (c *Collection) CollectedSeries() []int { return c.collected.Series() }

// AttemptedSeries returns the weekly count of attempted fetches.
func (c *Collection) AttemptedSeries() []int { return c.attempted.Series() }

// MeanCollected returns the average usable-page count per week (the paper's
// 782,300 of 1M).
func (c *Collection) MeanCollected() float64 { return meanInt(c.collected) }

// ResourceShare is one Figure 2b series: the weekly fraction of collected
// sites using a resource type.
type ResourceShare struct {
	Resource string
	Weekly   []float64
	Mean     float64
}

// ResourceShares returns the Figure 2b series in the paper's legend order.
func (c *Collection) ResourceShares() []ResourceShare {
	den := c.collected
	mk := func(name string, num weekSeries) ResourceShare {
		weekly := make([]float64, c.weeks)
		for i := range weekly {
			if den[i] > 0 {
				weekly[i] = float64(num[i]) / float64(den[i])
			}
		}
		return ResourceShare{Resource: name, Weekly: weekly, Mean: meanRatio(num, den)}
	}
	return []ResourceShare{
		mk("JavaScript", c.js),
		mk("CSS", c.css),
		mk("Favicon", c.favicon),
		mk("imported-HTML", c.imported),
		mk("XML", c.xml),
		mk("SVG", c.svg),
		mk("Flash", c.flash),
		mk("AXD", c.axd),
	}
}
