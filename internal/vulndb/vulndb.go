// Package vulndb is the vulnerability and release-history database of the
// study: the client-side libraries of Table 1, their version release
// catalogs, the 28 advisories of Table 2 (with both the CVE-disclosed and
// the True Vulnerable Version ranges established by the paper's PoC
// experiments), the WordPress release line and its Table 4 CVEs, and the
// Table 3 browser/Flash support matrix.
//
// The paper collected this information manually from NVD, MITRE,
// cvedetails.com and Snyk; here it is encoded as Go data so the pipeline is
// reproducible offline. Release dates are the projects' published dates
// (approximated to the day where sources disagree).
package vulndb

import (
	"sort"
	"time"

	"clientres/internal/semver"
)

// Library identifies one client-side resource project.
type Library struct {
	// Slug is the canonical identifier used across the study ("jquery").
	Slug string
	// Name is the display name ("jQuery").
	Name string
	// Discontinued marks projects that are no longer maintained
	// (jQuery-Cookie, SWFObject — Section 6.3).
	Discontinued bool
	// Successor is the slug of the project users are asked to migrate to,
	// if any (jquery-cookie → js-cookie).
	Successor string
	// GlobalObject is the JavaScript global the library installs, used by
	// inline-code fingerprinting ("jQuery", "Modernizr", ...).
	GlobalObject string
}

// Release is one published version of a library.
type Release struct {
	Version semver.Version
	Date    time.Time
}

// Catalog is the ordered release history of a library.
type Catalog struct {
	Lib      Library
	Releases []Release // ascending by version
}

// d builds a date at UTC midnight.
func d(y int, m time.Month, day int) time.Time {
	return time.Date(y, m, day, 0, 0, 0, 0, time.UTC)
}

// r builds a Release from a version literal and date.
func r(v string, y int, m time.Month, day int) Release {
	return Release{Version: semver.MustParse(v), Date: d(y, m, day)}
}

// Versions returns the catalog's versions ascending.
func (c Catalog) Versions() []semver.Version {
	out := make([]semver.Version, len(c.Releases))
	for i, rel := range c.Releases {
		out[i] = rel.Version
	}
	return out
}

// Latest returns the newest release of the catalog.
func (c Catalog) Latest() Release {
	if len(c.Releases) == 0 {
		return Release{}
	}
	return c.Releases[len(c.Releases)-1]
}

// LatestAsOf returns the newest release published on or before t, or a zero
// Release if none was.
func (c Catalog) LatestAsOf(t time.Time) Release {
	var best Release
	for _, rel := range c.Releases {
		if !rel.Date.After(t) && (best.Version.IsZero() || best.Version.Less(rel.Version)) {
			best = rel
		}
	}
	return best
}

// Find returns the release for an exact version (by semantic equality).
func (c Catalog) Find(v semver.Version) (Release, bool) {
	for _, rel := range c.Releases {
		if rel.Version.Equal(v) {
			return rel, true
		}
	}
	return Release{}, false
}

// AttackType categorizes an advisory per the paper's Table 2 terminology.
type AttackType string

// Attack types observed across the Table 2 advisories.
const (
	AttackXSS                AttackType = "XSS"
	AttackPrototypePollution AttackType = "Prototype Pollution"
	AttackCodeInjection      AttackType = "Arbitrary Code Injection"
	AttackResourceExhaustion AttackType = "Resource Exhaustion"
	AttackReDoS              AttackType = "ReDOS"
	AttackMissingAuth        AttackType = "Missing Authorization"
)

// Severity maps an attack class onto a coarse CVSS-style tier, the field
// audit policies gate on ("fail if any HIGH CVE older than 90 days").
// Classes that hand an attacker script execution or authorization are
// "high"; availability-only classes are "medium".
func (a AttackType) Severity() string {
	switch a {
	case AttackXSS, AttackPrototypePollution, AttackCodeInjection, AttackMissingAuth:
		return "high"
	case AttackResourceExhaustion, AttackReDoS:
		return "medium"
	}
	return "medium"
}

// Advisory is one publicly-reported vulnerability of a client-side library.
type Advisory struct {
	// ID is the CVE identifier, or a synthetic identifier for the
	// jQuery-Migrate issue that never received a CVE.
	ID string
	// Lib is the affected library's slug.
	Lib string
	// CVERange is the affected-version range as stated by the CVE report.
	CVERange semver.RangeSet
	// TrueRange is the True Vulnerable Version range established by the
	// paper's PoC validation (Section 6.4). Zero when the paper found the
	// CVE range accurate (Table 2 "–") or had no PoC to test with.
	TrueRange semver.RangeSet
	// Patched is the version that fixes the vulnerability; zero when no
	// patched version exists (Prototype).
	Patched semver.Version
	// Disclosed is the public disclosure date of the advisory.
	Disclosed time.Time
	// PatchDate is the release date of the patched version; zero if none.
	PatchDate time.Time
	// Attack is the vulnerability class.
	Attack AttackType
	// HasPoC records whether a public PoC existed (Section 6.4 found and
	// used seven, reimplementing the broken ones).
	HasPoC bool
	// Conditional marks vulnerabilities the paper's Section 9 calls out as
	// exploitable only under specific conditions (e.g. the jQuery 2020
	// prefilter CVEs require the site to pass untrusted HTML into DOM
	// manipulation methods). The exploitability-aware prevalence analysis
	// (an extension) can exclude these.
	Conditional bool
}

// EffectiveTrueRange returns the TVV range, falling back to the CVE range
// when the paper validated the CVE as accurate or could not test it.
func (a Advisory) EffectiveTrueRange() semver.RangeSet {
	if a.TrueRange.IsZero() {
		return a.CVERange
	}
	return a.TrueRange
}

// Accuracy classifies how a CVE's stated range relates to the true range.
type Accuracy int

// Accuracy classes (Section 6.4).
const (
	// Accurate: the stated range matches the true range over the catalog.
	Accurate Accuracy = iota
	// Understated: some truly-vulnerable versions are missing from the
	// CVE range — developers on those versions are falsely reassured.
	Understated
	// Overstated: the CVE range includes versions that are not actually
	// vulnerable — causing ill-advised updates.
	Overstated
	// Mixed: both understated and overstated versions exist.
	Mixed
	// Unvalidated: no independent true range is available.
	Unvalidated
)

func (a Accuracy) String() string {
	switch a {
	case Accurate:
		return "accurate"
	case Understated:
		return "understated"
	case Overstated:
		return "overstated"
	case Mixed:
		return "mixed"
	case Unvalidated:
		return "unvalidated"
	}
	return "?"
}

// ClassifyAccuracy compares the advisory's CVE range against its true range
// over the concrete versions of the library's catalog.
func (a Advisory) ClassifyAccuracy(c Catalog) Accuracy {
	if a.TrueRange.IsZero() {
		return Unvalidated
	}
	under, over := false, false
	for _, v := range c.Versions() {
		inCVE := a.CVERange.Contains(v)
		inTrue := a.TrueRange.Contains(v)
		if inTrue && !inCVE {
			under = true
		}
		if inCVE && !inTrue {
			over = true
		}
	}
	switch {
	case under && over:
		return Mixed
	case under:
		return Understated
	case over:
		return Overstated
	default:
		return Accurate
	}
}

// LibraryBySlug returns the library metadata for a slug.
func LibraryBySlug(slug string) (Library, bool) {
	for _, l := range libraries {
		if l.Slug == slug {
			return l, true
		}
	}
	return Library{}, false
}

// Libraries returns the top-15 library metadata in the paper's Table 1
// order (by average usage).
func Libraries() []Library {
	out := make([]Library, len(libraries))
	copy(out, libraries)
	return out
}

// CatalogFor returns the release catalog for a library slug.
func CatalogFor(slug string) (Catalog, bool) {
	c, ok := catalogs[slug]
	return c, ok
}

// Advisories returns every advisory of Table 2 in the paper's row order.
func Advisories() []Advisory {
	out := make([]Advisory, len(advisories))
	copy(out, advisories)
	return out
}

// advisoriesByLib is the one per-library advisory index: every consumer
// that asks which advisories affect a library — the collectors, the audit
// service, the facade — reads it through AdvisoriesFor.
var advisoriesByLib = indexByLib(advisories)

// indexByLib groups advisories by library slug, each list in the paper's
// row order and capped at its length, so an append by one caller copies
// instead of writing into storage every caller shares.
func indexByLib(advs []Advisory) map[string][]Advisory {
	idx := map[string][]Advisory{}
	for _, a := range advs {
		idx[a.Lib] = append(idx[a.Lib], a)
	}
	for lib, s := range idx {
		idx[lib] = s[:len(s):len(s)]
	}
	return idx
}

// AdvisoriesFor returns the advisories affecting one library in the
// paper's row order (nil for a library without any). The slice is shared
// by every caller and must be treated as read-only; the lookup allocates
// nothing.
func AdvisoriesFor(slug string) []Advisory { return advisoriesByLib[slug] }

// AdvisoriesDisclosedBy returns advisories publicly disclosed on or before t,
// sorted by disclosure date. The prevalence analysis uses this to avoid
// counting a site as vulnerable to a CVE nobody knew about yet.
func AdvisoriesDisclosedBy(t time.Time) []Advisory {
	var out []Advisory
	for _, a := range advisories {
		if !a.Disclosed.After(t) {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Disclosed.Before(out[j].Disclosed) })
	return out
}
