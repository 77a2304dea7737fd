package analysis

import (
	"sort"

	"clientres/internal/cdn"
	"clientres/internal/store"
)

// SRI measures Subresource Integrity and crossorigin hygiene (Section 6.5,
// Figure 10) and the untrustful version-control-hosted inclusions
// (Table 6).
type SRI struct {
	weeks int
	// Weekly counts of sites with ≥1 external library, split by whether at
	// least one external inclusion lacks integrity.
	sitesWithExternal weekSeries
	sitesMissingSRI   weekSeries

	// crossorigin value counts among integrity-bearing inclusions.
	crossorigin map[string]int

	// Version-control hosting.
	vcSites    weekSeries
	vcSitesSRI weekSeries
	vcHosts    map[string]int
	// vcTopSites records the top-ranked sites loading from VC hosts:
	// domain → (best rank, hosts seen).
	vcSiteRank  map[string]int
	vcSiteHosts map[string]map[string]bool
}

// NewSRI builds the collector.
func NewSRI(weeks int) *SRI {
	return &SRI{
		weeks:             weeks,
		sitesWithExternal: newWeekSeries(weeks),
		sitesMissingSRI:   newWeekSeries(weeks),
		crossorigin:       map[string]int{},
		vcSites:           newWeekSeries(weeks),
		vcSitesSRI:        newWeekSeries(weeks),
		vcHosts:           map[string]int{},
		vcSiteRank:        map[string]int{},
		vcSiteHosts:       map[string]map[string]bool{},
	}
}

// Observe implements Collector.
func (s *SRI) Observe(obs store.Observation) {
	if !obs.OK() {
		return
	}
	external, missing := 0, 0
	vc, vcWithSRI := 0, 0
	for _, lib := range obs.Libs {
		if !lib.External {
			continue
		}
		external++
		if !lib.SRI {
			missing++
		} else {
			s.crossorigin[lib.Crossorigin]++
		}
		if cdn.IsVersionControl(lib.Host) {
			vc++
			s.vcHosts[lib.Host]++
			if lib.SRI {
				vcWithSRI++
			}
		}
	}
	if external > 0 {
		s.sitesWithExternal.add(obs.Week, 1)
		if missing > 0 {
			s.sitesMissingSRI.add(obs.Week, 1)
		}
	}
	if vc > 0 {
		s.vcSites.add(obs.Week, 1)
		if vcWithSRI == vc {
			s.vcSitesSRI.add(obs.Week, 1)
		}
		if r, ok := s.vcSiteRank[obs.Domain]; !ok || obs.Rank < r {
			s.vcSiteRank[obs.Domain] = obs.Rank
		}
		hosts := s.vcSiteHosts[obs.Domain]
		if hosts == nil {
			hosts = map[string]bool{}
			s.vcSiteHosts[obs.Domain] = hosts
		}
		for _, lib := range obs.Libs {
			if lib.External && cdn.IsVersionControl(lib.Host) {
				hosts[lib.Host] = true
			}
		}
	}
}

// Merge folds another SRI's aggregates into s. The two collectors must
// have observed disjoint shards of the same study (see Collector).
func (s *SRI) Merge(o *SRI) {
	s.sitesWithExternal.merge(o.sitesWithExternal)
	s.sitesMissingSRI.merge(o.sitesMissingSRI)
	mergeCounts(s.crossorigin, o.crossorigin)
	s.vcSites.merge(o.vcSites)
	s.vcSitesSRI.merge(o.vcSitesSRI)
	mergeCounts(s.vcHosts, o.vcHosts)
	mergeMinRank(s.vcSiteRank, o.vcSiteRank)
	for dom, hosts := range o.vcSiteHosts {
		dst := s.vcSiteHosts[dom]
		if dst == nil {
			dst = map[string]bool{}
			s.vcSiteHosts[dom] = dst
		}
		for h := range hosts {
			dst[h] = true
		}
	}
}

// MissingSRIShare returns the average share of external-library sites that
// have at least one external inclusion without integrity (the paper's
// 99.7 %).
func (s *SRI) MissingSRIShare() float64 {
	return meanRatio(s.sitesMissingSRI, s.sitesWithExternal)
}

// SRISeries returns the Figure 10 weekly pair: sites with at least one
// integrity-less external library, and sites where every external library
// carries integrity.
func (s *SRI) SRISeries() (missing, fullyCovered []int) {
	withExt := s.sitesWithExternal
	miss := s.sitesMissingSRI.Series()
	covered := make([]int, s.weeks)
	for i := range covered {
		covered[i] = withExt[i] - miss[i]
	}
	return miss, covered
}

// CrossoriginShares returns the value distribution of the crossorigin
// attribute among integrity-bearing inclusions (the paper: 97.1 %
// anonymous, 1.9 % use-credentials).
func (s *SRI) CrossoriginShares() map[string]float64 {
	total := 0
	for _, n := range s.crossorigin {
		total += n
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for val, n := range s.crossorigin {
		key := val
		if key == "" {
			key = "(absent)"
		}
		out[key] = float64(n) / float64(total)
	}
	return out
}

// MeanVCSites returns the average weekly count of sites loading libraries
// from version-control hosts (the paper's ~1,670 of 782K).
func (s *SRI) MeanVCSites() float64 { return meanInt(s.vcSites) }

// VCWithSRIShare returns the share of those sites where every VC-hosted
// inclusion carries integrity (the paper's 0.6 %).
func (s *SRI) VCWithSRIShare() float64 {
	return meanRatio(s.vcSitesSRI, s.vcSites)
}

// VCHostCount is one Table 6 aggregate row.
type VCHostCount struct {
	Host  string
	Count int
}

// TopVCHosts returns the most-used version-control hosts.
func (s *SRI) TopVCHosts(n int) []VCHostCount {
	var all []VCHostCount
	for host, cnt := range s.vcHosts {
		all = append(all, VCHostCount{Host: host, Count: cnt})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Host < all[j].Host
	})
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

// VCSite is one Table 6 site row: a site loading libraries from
// version-control hosts.
type VCSite struct {
	Domain string
	Rank   int
	Hosts  []string
}

// TopVCSites returns the best-ranked sites using VC-hosted libraries,
// rank ascending (the paper's Table 6 looked at the top 10K).
func (s *SRI) TopVCSites(n int) []VCSite {
	var all []VCSite
	for domain, rank := range s.vcSiteRank {
		var hosts []string
		for h := range s.vcSiteHosts[domain] {
			hosts = append(hosts, h)
		}
		sort.Strings(hosts)
		all = append(all, VCSite{Domain: domain, Rank: rank, Hosts: hosts})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Rank < all[j].Rank })
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}
