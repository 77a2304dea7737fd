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

	libs     map[string]*libStats
	distinct map[string]bool
	parsed   versionTable
}

type libStats struct {
	usage    weekSeries
	internal int
	external int
	cdnHits  int
	hosts    map[string]int

	versions map[string]int        // canonical version → total observations
	verWeek  map[string]weekSeries // canonical version → weekly sites
	verWP    map[string]weekSeries // same, restricted to WordPress sites
	verRaw   map[string]string     // canonical → display string
}

func newLibStats(weeks int) *libStats {
	return &libStats{
		usage: newWeekSeries(weeks), hosts: map[string]int{},
		versions: map[string]int{}, verWeek: map[string]weekSeries{},
		verWP: map[string]weekSeries{}, verRaw: map[string]string{},
	}
}

// NewLibraryStats builds the collector.
func NewLibraryStats(weeks int) *LibraryStats {
	return &LibraryStats{
		weeks:     weeks,
		collected: newWeekSeries(weeks),
		jsSites:   newWeekSeries(weeks),
		libSites:  newWeekSeries(weeks),
		libs:      map[string]*libStats{},
		distinct:  map[string]bool{},
		parsed:    versionTable{},
	}
}

// Observe implements Collector.
func (l *LibraryStats) Observe(obs store.Observation) {
	if !obs.OK() {
		return
	}
	l.collected.add(obs.Week, 1)
	if obs.HasJS {
		l.jsSites.add(obs.Week, 1)
	}
	if len(obs.Libs) > 0 {
		l.libSites.add(obs.Week, 1)
	}
	seen := map[string]bool{}
	isWP := obs.WordPress != ""
	for _, lib := range obs.Libs {
		l.distinct[lib.Slug] = true
		ls := l.libs[lib.Slug]
		if ls == nil {
			ls = newLibStats(l.weeks)
			l.libs[lib.Slug] = ls
		}
		if !seen[lib.Slug] {
			seen[lib.Slug] = true
			ls.usage.add(obs.Week, 1)
		}
		if lib.External {
			ls.external++
			ls.hosts[lib.Host]++
			if cdn.IsCDN(lib.Host) {
				ls.cdnHits++
			}
		} else {
			ls.internal++
		}
		if pv, ok := l.parsed.parse(lib.Version); ok {
			key := pv.canon
			ls.versions[key]++
			// Two spellings of one version ("3.5", "3.5.0") display as the
			// lexicographically smaller, the rule Merge applies, so a
			// sharded run shows what a serial one does.
			if cur, ok := ls.verRaw[key]; !ok || lib.Version < cur {
				ls.verRaw[key] = lib.Version
			}
			ws := ls.verWeek[key]
			if ws == nil {
				ws = newWeekSeries(l.weeks)
				ls.verWeek[key] = ws
			}
			ws.add(obs.Week, 1)
			if isWP {
				wp := ls.verWP[key]
				if wp == nil {
					wp = newWeekSeries(l.weeks)
					ls.verWP[key] = wp
				}
				wp.add(obs.Week, 1)
			}
		}
	}
}

// Merge folds another LibraryStats' aggregates into l. The two collectors
// must have observed disjoint shards of the same study (see Collector).
func (l *LibraryStats) Merge(o *LibraryStats) {
	l.collected.merge(o.collected)
	l.jsSites.merge(o.jsSites)
	l.libSites.merge(o.libSites)
	mergeSets(l.distinct, o.distinct)
	l.parsed.merge(o.parsed)
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
	mergeCounts(ls.hosts, o.hosts)
	mergeCounts(ls.versions, o.versions)
	// Keep the lexicographically smaller spelling, as Observe does, so the
	// merge stays order-independent.
	for key, raw := range o.verRaw {
		if cur, ok := ls.verRaw[key]; !ok || raw < cur {
			ls.verRaw[key] = raw
		}
	}
	mergeSeriesMap(ls.verWeek, o.verWeek, weeks)
	mergeSeriesMap(ls.verWP, o.verWP, weeks)
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
			row.VersionsFound = len(ls.versions)
			row.Dominant, row.DominantPct = dominantVersion(ls)
			row.LatestSeen = latestVersion(ls)
		}
		rows = append(rows, row)
	}
	return rows
}

func dominantVersion(ls *libStats) (string, float64) {
	best, bestN, total := "", 0, 0
	for key, n := range ls.versions {
		total += n
		if n > bestN || (n == bestN && key < best) {
			best, bestN = key, n
		}
	}
	if total == 0 {
		return "", 0
	}
	return ls.verRaw[best], float64(bestN) / float64(total)
}

func latestVersion(ls *libStats) string {
	best := ""
	for key := range ls.versions {
		if best == "" || less(best, key) {
			best = key
		}
	}
	if best == "" {
		return ""
	}
	return ls.verRaw[best]
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
	type kv struct {
		key string
		n   int
	}
	var all []kv
	for key, cnt := range ls.versions {
		all = append(all, kv{key, cnt})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].key < all[j].key
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = ls.verRaw[all[i].key]
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
	ws := ls.verWeek[v.Canonical()]
	if ws == nil {
		return make([]int, l.weeks)
	}
	return ws.Series()
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
	ws := ls.verWP[v.Canonical()]
	if ws == nil {
		return make([]int, l.weeks)
	}
	return ws.Series()
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
	for host, cnt := range ls.hosts {
		all = append(all, HostCount{Host: host, Count: cnt,
			Share: float64(cnt) / float64(ls.external)})
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
func (l *LibraryStats) DistinctLibraries() int { return len(l.distinct) }

// LibShareOfJSSites returns the share of JavaScript-using sites that use at
// least one identified library (the paper's 97.04 %).
func (l *LibraryStats) LibShareOfJSSites() float64 {
	return meanRatio(l.libSites, l.jsSites)
}
