package analysis

import (
	"sort"

	"clientres/internal/cdn"
	"clientres/internal/store"
	"clientres/internal/vulndb"
)

// LibraryStats measures the JavaScript-library landscape: Table 1 (usage,
// inclusion types, CDN share, versions, dominant version), Figure 3 (usage
// trends), Figures 6/7/15 (per-version trends, WordPress association), and
// Table 5 (top CDNs per library).
type LibraryStats struct {
	weeks     int
	collected weekSeries
	jsSites   weekSeries
	libSites  weekSeries // sites using ≥1 detected library (any slug)

	// sigDetections counts the library records a content signature
	// recovered (LibRecord.Sig), sigPages the usable pages holding one.
	sigDetections, sigPages int

	libs map[string]*libStats
}

type libStats struct {
	usage    weekSeries
	internal int
	external int
	cdnHits  int
	hosts    map[string]*hostCount

	// vers resolves each version string seen to the stats of its canonical
	// version, which two spellings ("3.5", "3.5.0") share; byCanon holds
	// those stats by canonical version.
	vers    map[string]*verStats
	byCanon map[string]*verStats

	// counted marks the library as counted in the usage series of the
	// observation being folded; it is false between observations.
	counted bool
}

// hostCount is one external host's inclusion count, with its CDN
// classification taken once.
type hostCount struct {
	n   int
	cdn bool
}

// verStats is one canonical version of a library.
type verStats struct {
	canon string
	// raw is the display spelling: of two spellings of one version, the
	// lexicographically smaller, the rule Merge applies too, so a sharded
	// run shows what a serial one does.
	raw string
	// n counts observations.
	n int
	// week counts sites per week; wp the same restricted to WordPress
	// sites, nil until one uses the version.
	week, wp weekSeries
}

func newLibStats(weeks int) *libStats {
	return &libStats{
		usage: newWeekSeries(weeks), hosts: map[string]*hostCount{},
		vers: map[string]*verStats{}, byCanon: map[string]*verStats{},
	}
}

// version returns the stats of raw's canonical version, nil when raw does
// not parse. Only strings that parse are kept.
func (ls *libStats) version(raw string, weeks int) *verStats {
	if raw == "" {
		return nil
	}
	if vs, ok := ls.vers[raw]; ok {
		return vs
	}
	v, ok := parseVersion(raw)
	if !ok {
		return nil
	}
	vs := ls.canonical(v.Canonical(), raw, weeks)
	ls.vers[raw] = vs
	return vs
}

// canonical returns the stats of a canonical version, creating them, and
// keeps raw as the display spelling when it sorts first.
func (ls *libStats) canonical(canon, raw string, weeks int) *verStats {
	vs := ls.byCanon[canon]
	switch {
	case vs == nil:
		vs = &verStats{canon: canon, raw: raw, week: newWeekSeries(weeks)}
		ls.byCanon[canon] = vs
	case raw < vs.raw:
		vs.raw = raw
	}
	return vs
}

// host returns an external host's count, creating it.
func (ls *libStats) host(host string) *hostCount {
	h := ls.hosts[host]
	if h == nil {
		h = &hostCount{cdn: cdn.IsCDN(host)}
		ls.hosts[host] = h
	}
	return h
}

// NewLibraryStats builds the collector.
func NewLibraryStats(weeks int) *LibraryStats {
	return &LibraryStats{
		weeks:     weeks,
		collected: newWeekSeries(weeks),
		jsSites:   newWeekSeries(weeks),
		libSites:  newWeekSeries(weeks),
		libs:      map[string]*libStats{},
	}
}

// Observe implements Collector.
func (l *LibraryStats) Observe(obs store.Observation) {
	if !obs.OK() {
		return
	}
	w := obs.Week
	l.collected.add(w, 1)
	if obs.HasJS {
		l.jsSites.add(w, 1)
	}
	if len(obs.Libs) > 0 {
		l.libSites.add(w, 1)
	}
	var buf [16]*libStats
	counted := buf[:0]
	isWP := obs.WordPress != ""
	sig := false
	for i := range obs.Libs {
		rec := &obs.Libs[i]
		if rec.Sig {
			l.sigDetections++
			sig = true
		}
		ls := l.libs[rec.Slug]
		if ls == nil {
			ls = newLibStats(l.weeks)
			l.libs[rec.Slug] = ls
		}
		if !ls.counted {
			ls.counted = true
			counted = append(counted, ls)
			ls.usage.add(w, 1)
		}
		if rec.External {
			ls.external++
			h := ls.host(rec.Host)
			h.n++
			if h.cdn {
				ls.cdnHits++
			}
		} else {
			ls.internal++
		}
		if vs := ls.version(rec.Version, l.weeks); vs != nil {
			vs.n++
			vs.week.add(w, 1)
			if isWP {
				if vs.wp == nil {
					vs.wp = newWeekSeries(l.weeks)
				}
				vs.wp.add(w, 1)
			}
		}
	}
	for _, ls := range counted {
		ls.counted = false
	}
	if sig {
		l.sigPages++
	}
}

// Merge folds another LibraryStats' aggregates into l. The two collectors
// must have observed disjoint shards of the same study (see Collector).
func (l *LibraryStats) Merge(o *LibraryStats) {
	l.collected.merge(o.collected)
	l.jsSites.merge(o.jsSites)
	l.libSites.merge(o.libSites)
	l.sigDetections += o.sigDetections
	l.sigPages += o.sigPages
	for slug, os := range o.libs {
		ls := l.libs[slug]
		if ls == nil {
			ls = newLibStats(l.weeks)
			l.libs[slug] = ls
		}
		ls.merge(os, l.weeks)
	}
}

func (ls *libStats) merge(o *libStats, weeks int) {
	ls.usage.merge(o.usage)
	ls.internal += o.internal
	ls.external += o.external
	ls.cdnHits += o.cdnHits
	for host, oh := range o.hosts {
		ls.host(host).n += oh.n
	}
	for canon, ovs := range o.byCanon {
		vs := ls.canonical(canon, ovs.raw, weeks)
		vs.n += ovs.n
		vs.week.merge(ovs.week)
		if ovs.wp != nil {
			if vs.wp == nil {
				vs.wp = newWeekSeries(weeks)
			}
			vs.wp.merge(ovs.wp)
		}
	}
	for raw, ovs := range o.vers {
		if _, ok := ls.vers[raw]; !ok {
			ls.vers[raw] = ls.byCanon[ovs.canon]
		}
	}
}

// SignatureReach is the measured reach of bundle-aware fingerprinting:
// usable pages and library detections, and how many of each a content
// signature recovered rather than a <script src> URL.
type SignatureReach struct {
	Pages, SigPages           int
	Detections, SigDetections int
}

// SignatureReach counts the study's usable pages and library detections
// and the signature-recovered ones among them.
func (l *LibraryStats) SignatureReach() SignatureReach {
	r := SignatureReach{SigPages: l.sigPages, SigDetections: l.sigDetections}
	for _, n := range l.collected {
		r.Pages += n
	}
	for _, ls := range l.libs {
		r.Detections += ls.internal + ls.external
	}
	return r
}

// UsageSeries returns the weekly share of collected sites using a library.
func (l *LibraryStats) UsageSeries(slug string) []float64 {
	den := l.collected
	out := make([]float64, l.weeks)
	ls := l.libs[slug]
	if ls == nil {
		return out
	}
	num := ls.usage
	for i := range out {
		if den[i] > 0 {
			out[i] = float64(num[i]) / float64(den[i])
		}
	}
	return out
}

// MeanUsage returns the average usage share of a library.
func (l *LibraryStats) MeanUsage(slug string) float64 {
	ls := l.libs[slug]
	if ls == nil {
		return 0
	}
	return meanRatio(ls.usage, l.collected)
}

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Slug, Name    string
	MeanUsage     float64 // share of collected sites
	InternalPct   float64 // of inclusions
	ExternalPct   float64
	CDNPct        float64 // of external inclusions
	VersionsFound int
	TotalVersions int // catalog size
	Dominant      string
	DominantPct   float64 // share among the library's version observations
	LatestSeen    string
	VulnCount     int
	Discontinued  bool
}

// Table1 computes Table 1 for the top-15 libraries in paper order.
func (l *LibraryStats) Table1() []Table1Row {
	var rows []Table1Row
	for _, lib := range vulndb.Libraries() {
		row := Table1Row{Slug: lib.Slug, Name: lib.Name, Discontinued: lib.Discontinued}
		if cat, ok := vulndb.CatalogFor(lib.Slug); ok {
			row.TotalVersions = len(cat.Releases)
		}
		row.VulnCount = len(vulndb.AdvisoriesFor(lib.Slug))
		ls := l.libs[lib.Slug]
		if ls != nil {
			row.MeanUsage = l.MeanUsage(lib.Slug)
			total := ls.internal + ls.external
			if total > 0 {
				row.InternalPct = float64(ls.internal) / float64(total)
				row.ExternalPct = float64(ls.external) / float64(total)
			}
			if ls.external > 0 {
				row.CDNPct = float64(ls.cdnHits) / float64(ls.external)
			}
			row.VersionsFound = len(ls.byCanon)
			row.Dominant, row.DominantPct = dominantVersion(ls)
			row.LatestSeen = latestVersion(ls)
		}
		rows = append(rows, row)
	}
	return rows
}

func dominantVersion(ls *libStats) (string, float64) {
	var best *verStats
	total := 0
	for _, vs := range ls.byCanon {
		total += vs.n
		if best == nil || vs.n > best.n || (vs.n == best.n && vs.canon < best.canon) {
			best = vs
		}
	}
	if total == 0 {
		return "", 0
	}
	return best.raw, float64(best.n) / float64(total)
}

func latestVersion(ls *libStats) string {
	var best *verStats
	for _, vs := range ls.byCanon {
		if best == nil || less(best.canon, vs.canon) {
			best = vs
		}
	}
	if best == nil {
		return ""
	}
	return best.raw
}

func less(a, b string) bool {
	va, oka := parseVersion(a)
	vb, okb := parseVersion(b)
	if !oka || !okb {
		return a < b
	}
	return va.Less(vb)
}

// TopVersions returns a library's n most-observed versions (display form),
// most popular first.
func (l *LibraryStats) TopVersions(slug string, n int) []string {
	ls := l.libs[slug]
	if ls == nil {
		return nil
	}
	var all []*verStats
	for _, vs := range ls.byCanon {
		all = append(all, vs)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].canon < all[j].canon
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].raw
	}
	return out
}

// VersionSeries returns weekly site counts for one (library, version).
func (l *LibraryStats) VersionSeries(slug, version string) []int {
	ls := l.libs[slug]
	if ls == nil {
		return make([]int, l.weeks)
	}
	v, ok := parseVersion(version)
	if !ok {
		return make([]int, l.weeks)
	}
	vs := ls.byCanon[v.Canonical()]
	if vs == nil {
		return make([]int, l.weeks)
	}
	return vs.week.Series()
}

// VersionSeriesWordPress returns the same series restricted to WordPress
// sites (Figure 7b).
func (l *LibraryStats) VersionSeriesWordPress(slug, version string) []int {
	ls := l.libs[slug]
	if ls == nil {
		return make([]int, l.weeks)
	}
	v, ok := parseVersion(version)
	if !ok {
		return make([]int, l.weeks)
	}
	vs := ls.byCanon[v.Canonical()]
	if vs == nil || vs.wp == nil {
		return make([]int, l.weeks)
	}
	return vs.wp.Series()
}

// HostCount is one Table 5 cell: an external host and its inclusion count.
type HostCount struct {
	Host  string
	Count int
	Share float64 // of the library's external inclusions
}

// TopHosts returns a library's n most-used external hosts (Table 5).
func (l *LibraryStats) TopHosts(slug string, n int) []HostCount {
	ls := l.libs[slug]
	if ls == nil || ls.external == 0 {
		return nil
	}
	var all []HostCount
	for host, h := range ls.hosts {
		all = append(all, HostCount{Host: host, Count: h.n,
			Share: float64(h.n) / float64(ls.external)})
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

// DistinctLibraries returns the number of distinct library slugs observed
// (the paper found 79).
func (l *LibraryStats) DistinctLibraries() int { return len(l.libs) }

// LibShareOfJSSites returns the share of JavaScript-using sites that use at
// least one identified library (the paper's 97.04 %).
func (l *LibraryStats) LibShareOfJSSites() float64 {
	return meanRatio(l.libSites, l.jsSites)
}
