package analysis

import (
	"fmt"
	"time"

	"clientres/internal/semver"
	"clientres/internal/vulndb"
	"clientres/internal/webgen"
)

// The collectors' view of the advisory catalog. Every date an advisory
// carries becomes a study week once, here, and every version string a
// collector meets is tested against its library's advisories once, in the
// collector's own library tables, so the per-observation loops compare
// integers and test bits instead of calling RangeSet.Contains and comparing
// time.Time values.

// advisory is one vulndb advisory (or one WordPress advisory) as the
// collectors test it.
type advisory struct {
	id string
	// pos is the advisory's position in vulndb.Advisories() (for WordPress,
	// in vulndb.WordPressAdvisories()): the index of its per-advisory
	// series.
	pos      int
	cve, tvv semver.RangeSet
	// disclosed is the first week whose snapshot date is on or after the
	// public disclosure: a site counts as vulnerable from then on.
	disclosed int
	// patched reports that a patched version exists; patchWeek is then the
	// first week whose snapshot date is on or after its release.
	patched     bool
	patchWeek   int
	conditional bool
}

// advLib is one library's advisories in vulndb.AdvisoriesFor order; bit k
// of a version's masks stands for advs[k].
type advLib struct {
	slug string
	// idx is the library's position among the libraries with advisories,
	// in the order vulndb.Advisories() first names them: the index of a
	// collector's per-library tables.
	idx  int
	advs []advisory
}

var (
	// advLibs indexes the libraries that have advisories by slug.
	advLibs = indexAdvLibs()
	// wordPress holds vulndb.WordPressAdvisories() in order; a WordPress
	// advisory has one range, so cve and tvv are the same.
	wordPress = indexWPAdvisories()
)

func indexAdvLibs() map[string]*advLib {
	libs := map[string]*advLib{}
	for pos, a := range vulndb.Advisories() {
		l := libs[a.Lib]
		if l == nil {
			l = &advLib{slug: a.Lib, idx: len(libs)}
			libs[a.Lib] = l
		}
		adv := advisory{
			id: a.ID, pos: pos, cve: a.CVERange, tvv: a.EffectiveTrueRange(),
			disclosed: firstWeekFrom(a.Disclosed), conditional: a.Conditional,
		}
		if !a.Patched.IsZero() {
			adv.patched, adv.patchWeek = true, firstWeekFrom(a.PatchDate)
		}
		l.advs = append(l.advs, adv)
	}
	for _, l := range libs {
		if len(l.advs) > maskBits {
			panic(fmt.Sprintf("analysis: %s has %d advisories, more than an advMask holds", l.slug, len(l.advs)))
		}
	}
	return libs
}

func indexWPAdvisories() *advLib {
	wp := &advLib{slug: "wordpress"}
	for pos, a := range vulndb.WordPressAdvisories() {
		wp.advs = append(wp.advs, advisory{id: a.ID, pos: pos, cve: a.Range, tvv: a.Range,
			disclosed: firstWeekFrom(a.Disclosed)})
	}
	if len(wp.advs) > maskBits {
		panic(fmt.Sprintf("analysis: %d WordPress advisories, more than an advMask holds", len(wp.advs)))
	}
	return wp
}

// firstWeekFrom returns the first week whose snapshot date is not before t,
// so that w >= firstWeekFrom(t) exactly when !WeekDate(w).Before(t).
func firstWeekFrom(t time.Time) int {
	w := webgen.WeekOf(t)
	for WeekDate(w).Before(t) {
		w++
	}
	for !WeekDate(w - 1).Before(t) {
		w--
	}
	return w
}

// advMask is a set of one library's advisories: bit k stands for the
// library's advisory k.
type advMask uint32

// maskBits is the most advisories one library may have.
const maskBits = 32

// library is one library slug as a collector meets it: its advisories
// (nil for a library without any) and its versions.
type library struct {
	slug string
	adv  *advLib
	// vers memoizes the library's version strings: a stream repeats each of
	// them across many observations. Only strings that
	// parse are kept, so the table is bounded by the distinct valid
	// versions the collector observed. Each collector owns its libraries
	// (no sharing, no locks) and Merge takes the union; equal strings
	// resolve equally, so a merged collector holds exactly the tables a
	// serial one builds.
	vers map[string]*version
}

func newLibrary(slug string, adv *advLib) *library {
	return &library{slug: slug, adv: adv, vers: map[string]*version{}}
}

// advs returns the library's advisories.
func (l *library) advs() []advisory {
	if l.adv == nil {
		return nil
	}
	return l.adv.advs
}

// version is one version string of a library, parsed once, with its
// membership in the library's advisory ranges: bit k of cve (tvv) is set
// when the version lies in the CVE (TVV) range of the library's advisory k.
type version struct {
	lib      *library
	raw      string
	v        semver.Version
	cve, tvv advMask
}

// parse returns s resolved, from the table when s was seen before.
func (l *library) parse(s string) (*version, bool) {
	if s == "" {
		return nil, false
	}
	if p, ok := l.vers[s]; ok {
		return p, true
	}
	v, ok := parseVersion(s)
	if !ok {
		return nil, false
	}
	p := &version{lib: l, raw: s, v: v}
	advs := l.advs()
	for k := range advs {
		if advs[k].cve.Contains(v) {
			p.cve |= 1 << k
		}
		if advs[k].tvv.Contains(v) {
			p.tvv |= 1 << k
		}
	}
	l.vers[s] = p
	return p, true
}

// merge unions o's versions into l.
func (l *library) merge(o *library) {
	for s, p := range o.vers {
		if _, ok := l.vers[s]; !ok {
			cp := *p
			cp.lib = l
			l.vers[s] = &cp
		}
	}
}

// own returns l's entry for a version of o's, which l.merge(o) added.
func (l *library) own(v *version) *version { return l.vers[v.raw] }

// libTable interns the library slugs one collector meets.
type libTable map[string]*library

// get returns the slug's library, creating it on first sight.
func (t libTable) get(slug string) *library {
	l := t[slug]
	if l == nil {
		l = newLibrary(slug, advLibs[slug])
		t[slug] = l
	}
	return l
}

// merge unions o into t.
func (t libTable) merge(o libTable) {
	for slug, ol := range o {
		t.get(slug).merge(ol)
	}
}

// advTables holds one library per library with advisories, indexed by
// advLib.idx.
type advTables []*library

func newAdvTables() advTables {
	t := make(advTables, len(advLibs))
	for _, a := range advLibs {
		t[a.idx] = newLibrary(a.slug, a)
	}
	return t
}

// merge unions o into t.
func (t advTables) merge(o advTables) {
	for i := range t {
		t[i].merge(o[i])
	}
}

// appendOne returns s with x appended, in a backing array of exactly the
// new length: a domain's library list grows one library at a time and
// seldom, so doubling its capacity would mostly hold empty slots.
func appendOne[T any](s []T, x T) []T {
	out := make([]T, len(s)+1)
	copy(out, s)
	out[len(s)] = x
	return out
}
