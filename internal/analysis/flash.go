package analysis

import (
	"sort"
	"time"

	"clientres/internal/store"
)

// Flash measures Adobe Flash usage (Section 8): the decline across rank
// bands (Figure 8), the AllowScriptAccess parameter and its insecure
// "always" option (Figure 11), and the country mix of sites that kept
// Flash past its end of life.
type Flash struct {
	weeks int
	// totalDomains scales the paper's rank bands (top 1K / 10K of 1M) to
	// the modeled population.
	totalDomains int

	all, top10k, top1k weekSeries
	scriptAccess       weekSeries
	always             weekSeries

	// Post-EOL holdouts by country (the Section 8 case study).
	postEOLCountry map[string]map[string]bool // country → domains
	// Top-band post-EOL holdouts with visibility (the 13-website case
	// study: 6 visible, 7 invisible leftovers).
	holdouts map[string]*holdout
}

type holdout struct {
	rank    int
	country string
	visible bool
}

// FlashEOLWeek is the snapshot week containing the Flash end of life
// (Jan 1, 2021).
var FlashEOLWeek = weekOfDate(time.Date(2021, time.January, 1, 0, 0, 0, 0, time.UTC))

// NewFlash builds the collector. totalDomains is the population size the
// ranks were drawn from.
func NewFlash(weeks, totalDomains int) *Flash {
	return &Flash{
		weeks: weeks, totalDomains: totalDomains,
		all: newWeekSeries(weeks), top10k: newWeekSeries(weeks), top1k: newWeekSeries(weeks),
		scriptAccess:   newWeekSeries(weeks),
		always:         newWeekSeries(weeks),
		postEOLCountry: map[string]map[string]bool{},
		holdouts:       map[string]*holdout{},
	}
}

// Observe implements Collector.
func (f *Flash) Observe(obs store.Observation) {
	if !obs.OK() || obs.Flash == nil {
		return
	}
	f.all.add(obs.Week, 1)
	// Scale the paper's absolute bands to the modeled population: the top
	// 1K of 1M is the top 0.1 %, the top 10K the top 1 %.
	if obs.Rank <= maxInt(1, f.totalDomains/1000) {
		f.top1k.add(obs.Week, 1)
	}
	if obs.Rank <= maxInt(1, f.totalDomains/100) {
		f.top10k.add(obs.Week, 1)
	}
	if obs.Flash.ScriptAccessParam {
		f.scriptAccess.add(obs.Week, 1)
		if obs.Flash.Always {
			f.always.add(obs.Week, 1)
		}
	}
	if obs.Week >= FlashEOLWeek {
		set := f.postEOLCountry[obs.Country]
		if set == nil {
			set = map[string]bool{}
			f.postEOLCountry[obs.Country] = set
		}
		set[obs.Domain] = true
		// The paper's case study looks at the top 10K of 1M; at scaled-down
		// populations the equivalent 1 % band holds less than one expected
		// Flash site, so the case-study band is the top 10 % (noted in
		// EXPERIMENTS.md).
		if obs.Rank <= maxInt(1, f.totalDomains/10) {
			f.holdouts[obs.Domain] = &holdout{
				rank: obs.Rank, country: obs.Country,
				visible: obs.Flash.Visible,
			}
		}
	}
}

// Merge folds another Flash's aggregates into f. The two collectors must
// have observed disjoint shards of the same study (see Collector): the
// per-domain holdout records carry last-observation state that only merges
// exactly when each domain's history lives in one shard.
func (f *Flash) Merge(o *Flash) {
	f.all.merge(o.all)
	f.top10k.merge(o.top10k)
	f.top1k.merge(o.top1k)
	f.scriptAccess.merge(o.scriptAccess)
	f.always.merge(o.always)
	for country, set := range o.postEOLCountry {
		dst := f.postEOLCountry[country]
		if dst == nil {
			dst = map[string]bool{}
			f.postEOLCountry[country] = dst
		}
		for d := range set {
			dst[d] = true
		}
	}
	for dom, h := range o.holdouts {
		// Rank and country are per-domain constants; on a (contract-
		// violating) overlap the receiver's visibility snapshot is kept.
		if _, ok := f.holdouts[dom]; !ok {
			cp := *h
			f.holdouts[dom] = &cp
		}
	}
}

// Holdout is one top-band website still embedding Flash after the end of
// life — the Section 8 case-study population.
type Holdout struct {
	Domain  string
	Rank    int
	Country string
	// Visible reports whether the Flash content actually renders; the
	// invisible cases are off-page leftovers end-users never see.
	Visible bool
}

// TopBandHoldouts returns the post-EOL Flash sites in the top-1 % rank band
// (the paper's top-10K), rank ascending.
func (f *Flash) TopBandHoldouts() []Holdout {
	var out []Holdout
	for domain, h := range f.holdouts {
		out = append(out, Holdout{Domain: domain, Rank: h.rank,
			Country: h.country, Visible: h.visible})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// HoldoutVisibility splits the top-band holdouts into visible and invisible
// counts (paper: 6 visible vs 7 invisible of 13).
func (f *Flash) HoldoutVisibility() (visible, invisible int) {
	for _, h := range f.holdouts {
		if h.visible {
			visible++
		} else {
			invisible++
		}
	}
	return visible, invisible
}

// UsageSeries returns the Figure 8 series: all domains, the top-1 % band
// (the paper's top 10K), and the top-0.1 % band (top 1K).
func (f *Flash) UsageSeries() (all, top10k, top1k []int) {
	return f.all.Series(), f.top10k.Series(), f.top1k.Series()
}

// MeanPostEOL returns the average weekly count of Flash sites after the end
// of life (the paper's 3,553 of 1M).
func (f *Flash) MeanPostEOL() float64 {
	if FlashEOLWeek >= f.weeks {
		return 0
	}
	return meanInt(f.all[FlashEOLWeek:])
}

// ScriptAccessSeries returns the Figure 11 series: Flash sites, sites using
// the AllowScriptAccess parameter, and sites with the insecure "always"
// option.
func (f *Flash) ScriptAccessSeries() (flash, param, always []int) {
	return f.all.Series(), f.scriptAccess.Series(), f.always.Series()
}

// MeanInsecureShare returns the average share of Flash sites whose
// AllowScriptAccess is "always" (the paper's 24.7 % rising ~21 %→30 %).
func (f *Flash) MeanInsecureShare() float64 {
	return meanRatio(f.always, f.all)
}

// InsecureShareAt returns the insecure share at one week.
func (f *Flash) InsecureShareAt(week int) float64 {
	a, t := f.always, f.all
	if week < 0 || week >= f.weeks || t[week] == 0 {
		return 0
	}
	return float64(a[week]) / float64(t[week])
}

// CountryCount is one row of the post-EOL holdout breakdown.
type CountryCount struct {
	Country string
	Domains int
}

// PostEOLCountries returns the countries of post-EOL Flash sites, largest
// first (the paper's finding: Chinese-operated sites dominate).
func (f *Flash) PostEOLCountries() []CountryCount {
	var out []CountryCount
	for country, set := range f.postEOLCountry {
		out = append(out, CountryCount{Country: country, Domains: len(set)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Domains != out[j].Domains {
			return out[i].Domains > out[j].Domains
		}
		return out[i].Country < out[j].Country
	})
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
