package vulndb

import (
	"reflect"
	"testing"
	"time"

	"clientres/internal/semver"
)

func TestLibrariesTop15(t *testing.T) {
	libs := Libraries()
	if len(libs) != 15 {
		t.Fatalf("Libraries() = %d, want 15", len(libs))
	}
	if libs[0].Slug != "jquery" || libs[1].Slug != "bootstrap" {
		t.Errorf("order wrong: %s, %s", libs[0].Slug, libs[1].Slug)
	}
	seen := map[string]bool{}
	for _, l := range libs {
		if seen[l.Slug] {
			t.Errorf("duplicate slug %q", l.Slug)
		}
		seen[l.Slug] = true
		if l.Name == "" || l.GlobalObject == "" {
			t.Errorf("library %q missing metadata", l.Slug)
		}
	}
}

func TestDiscontinuedFlags(t *testing.T) {
	for _, slug := range []string{"jquery-cookie", "swfobject"} {
		l, ok := LibraryBySlug(slug)
		if !ok || !l.Discontinued {
			t.Errorf("%s should be discontinued", slug)
		}
	}
	if l, _ := LibraryBySlug("jquery-cookie"); l.Successor != "js-cookie" {
		t.Error("jquery-cookie successor should be js-cookie")
	}
	if l, _ := LibraryBySlug("jquery"); l.Discontinued {
		t.Error("jquery is not discontinued")
	}
}

func TestEveryLibraryHasCatalog(t *testing.T) {
	for _, l := range Libraries() {
		c, ok := CatalogFor(l.Slug)
		if !ok {
			t.Errorf("no catalog for %q", l.Slug)
			continue
		}
		if len(c.Releases) == 0 {
			t.Errorf("empty catalog for %q", l.Slug)
		}
		if c.Lib.Slug != l.Slug {
			t.Errorf("catalog %q has Lib %q", l.Slug, c.Lib.Slug)
		}
	}
}

func TestCatalogsAscendingWithinMajor(t *testing.T) {
	// Release lines interleave across majors and backports land late
	// (jQuery 1.x/2.x shipped in lock-step; jQuery-UI 1.7.3 shipped after
	// 1.8.0), but within one major.minor line versions must ascend with
	// dates.
	for slug, c := range catalogs {
		byMinor := map[[2]int][]Release{}
		for _, rel := range c.Releases {
			k := [2]int{rel.Version.Major(), 0}
			if len(rel.Version.Parts) > 1 {
				k[1] = rel.Version.Parts[1]
			}
			byMinor[k] = append(byMinor[k], rel)
		}
		for m, rels := range byMinor {
			for i := 1; i < len(rels); i++ {
				if rels[i].Version.Less(rels[i-1].Version) {
					t.Errorf("%s major %d: %s listed after %s", slug, m,
						rels[i].Version, rels[i-1].Version)
				}
				if rels[i].Date.Before(rels[i-1].Date) {
					t.Errorf("%s major %d: %s dated before %s", slug, m,
						rels[i].Version, rels[i-1].Version)
				}
			}
		}
	}
}

func TestJQueryCatalogShape(t *testing.T) {
	c, _ := CatalogFor("jquery")
	if n := len(c.Releases); n < 75 || n > 85 {
		t.Errorf("jQuery catalog has %d releases, want ~81", n)
	}
	if got := c.Latest().Version.String(); got != "3.6.0" {
		t.Errorf("latest jQuery = %s, want 3.6.0 (the paper's dataset latest)", got)
	}
	if rel, ok := c.Find(semver.MustParse("1.12.4")); !ok || rel.Date.Year() != 2016 {
		t.Error("jQuery 1.12.4 (May 2016) missing or misdated")
	}
}

func TestLatestAsOf(t *testing.T) {
	c, _ := CatalogFor("jquery")
	// Before 3.5.0's release (Apr 10 2020), the latest is 3.4.1.
	at := d(2020, time.April, 9)
	if got := c.LatestAsOf(at).Version.String(); got != "3.4.1" {
		t.Errorf("LatestAsOf(2020-04-09) = %s, want 3.4.1", got)
	}
	if got := c.LatestAsOf(d(2005, time.January, 1)); !got.Version.IsZero() {
		t.Errorf("LatestAsOf before first release should be zero, got %s", got.Version)
	}
}

func TestAdvisoryCount(t *testing.T) {
	// Table 2 lists 27 rows. (The paper's caption says "28 vulnerabilities"
	// while Section 6.2 says 27 CVE reports; the table itself has 27 rows
	// — 8 jQuery + 7 Bootstrap + 1 Migrate + 6 UI + 1 Underscore +
	// 2 Moment + 2 Prototype. We encode the rows.)
	if n := len(Advisories()); n != 27 {
		t.Fatalf("Advisories() = %d, want 27", n)
	}
	perLib := map[string]int{}
	for _, a := range Advisories() {
		perLib[a.Lib]++
	}
	want := map[string]int{
		"jquery": 8, "bootstrap": 7, "jquery-migrate": 1,
		"jquery-ui": 6, "underscore": 1, "moment": 2, "prototype": 2,
	}
	for lib, n := range want {
		if perLib[lib] != n {
			t.Errorf("%s advisories = %d, want %d", lib, perLib[lib], n)
		}
	}
	if len(perLib) != 7 {
		t.Errorf("advisories span %d libraries, want 7", len(perLib))
	}
}

func TestAdvisoryRangesMatchKnownVersions(t *testing.T) {
	cases := []struct {
		id, ver string
		inCVE   bool
		inTrue  bool
	}{
		{"CVE-2020-7656", "1.8.3", true, true},
		{"CVE-2020-7656", "1.10.1", false, true}, // the paper's headline understatement
		{"CVE-2020-7656", "3.5.1", false, true},  // microsoft.com's version
		{"CVE-2020-7656", "3.6.0", false, false},
		{"CVE-2020-11022", "1.2.6", true, false},
		{"CVE-2020-11022", "2.2.3", true, true}, // docusign.com's version
		{"CVE-2019-11358", "3.3.1", true, true}, // unvalidated: true falls back to CVE
		{"CVE-2014-6071", "2.2.3", false, true},
		{"CVE-2020-27511", "1.7.3", true, true},
		{"CVE-2016-4055", "2.5.0", true, false},
		{"CVE-2016-4055", "2.15.0", false, true},
	}
	byID := map[string]Advisory{}
	for _, a := range Advisories() {
		byID[a.ID] = a
	}
	for _, c := range cases {
		a, ok := byID[c.id]
		if !ok {
			t.Errorf("advisory %s missing", c.id)
			continue
		}
		v := semver.MustParse(c.ver)
		if got := a.CVERange.Contains(v); got != c.inCVE {
			t.Errorf("%s CVERange.Contains(%s) = %v, want %v", c.id, c.ver, got, c.inCVE)
		}
		if got := a.EffectiveTrueRange().Contains(v); got != c.inTrue {
			t.Errorf("%s TrueRange.Contains(%s) = %v, want %v", c.id, c.ver, got, c.inTrue)
		}
	}
}

func TestClassifyAccuracyMatchesPaper(t *testing.T) {
	// Table 2 marks understated (more versions vulnerable than disclosed)
	// and overstated CVEs. Verify our classifier reproduces the marks for
	// the clear-cut rows.
	wantUnder := []string{"CVE-2020-7656", "CVE-2014-6071", "SNYK-JQMIGRATE-2013"}
	wantOver := []string{"CVE-2020-11023", "CVE-2020-11022", "CVE-2012-6708",
		"CVE-2018-20676", "CVE-2018-20677", "CVE-2018-14042", "CVE-2018-14040",
		"CVE-2016-10735"}
	byID := map[string]Advisory{}
	for _, a := range Advisories() {
		byID[a.ID] = a
	}
	for _, id := range wantUnder {
		a := byID[id]
		cat, _ := CatalogFor(a.Lib)
		if got := a.ClassifyAccuracy(cat); got != Understated && got != Mixed {
			t.Errorf("%s accuracy = %v, want understated", id, got)
		}
	}
	for _, id := range wantOver {
		a := byID[id]
		cat, _ := CatalogFor(a.Lib)
		if got := a.ClassifyAccuracy(cat); got != Overstated {
			t.Errorf("%s accuracy = %v, want overstated", id, got)
		}
	}
	// Unvalidated rows (Table 2 "–") classify as such.
	a := byID["CVE-2019-11358"]
	cat, _ := CatalogFor(a.Lib)
	if got := a.ClassifyAccuracy(cat); got != Unvalidated {
		t.Errorf("CVE-2019-11358 accuracy = %v, want unvalidated", got)
	}
}

func TestIncorrectCVECount(t *testing.T) {
	// Section 6.4: "13 CVE reports (out of 27) incorrectly state vulnerable
	// versions". Count advisories whose classification is not Accurate or
	// Unvalidated.
	n := 0
	for _, a := range Advisories() {
		cat, _ := CatalogFor(a.Lib)
		switch a.ClassifyAccuracy(cat) {
		case Understated, Overstated, Mixed:
			n++
		}
	}
	// The paper's own counts disagree internally (caption: 12; text: 13).
	// Our Table-2-faithful encoding yields every row with a stated TVV.
	if n < 12 || n > 14 {
		t.Errorf("incorrect-CVE count = %d, want 12–14 (paper says 13)", n)
	}
}

func TestAdvisoriesDisclosedBy(t *testing.T) {
	early := AdvisoriesDisclosedBy(d(2018, time.March, 1))
	for _, a := range early {
		if a.Disclosed.After(d(2018, time.March, 1)) {
			t.Errorf("%s disclosed %v after cutoff", a.ID, a.Disclosed)
		}
	}
	// jQuery 2020 CVEs must not be present at the study start...
	for _, a := range early {
		if a.ID == "CVE-2020-11022" {
			t.Error("CVE-2020-11022 should not be disclosed by Mar 2018")
		}
	}
	// ...but must be present at the end.
	all := AdvisoriesDisclosedBy(d(2022, time.March, 1))
	if len(all) != len(Advisories()) {
		t.Errorf("by end of study %d advisories disclosed, want all %d", len(all), len(Advisories()))
	}
	// Sorted ascending.
	for i := 1; i < len(all); i++ {
		if all[i].Disclosed.Before(all[i-1].Disclosed) {
			t.Error("AdvisoriesDisclosedBy not sorted")
		}
	}
}

func TestPatchedVersionInsideCatalog(t *testing.T) {
	for _, a := range Advisories() {
		if a.Patched.IsZero() {
			continue
		}
		cat, ok := CatalogFor(a.Lib)
		if !ok {
			t.Fatalf("no catalog for %s", a.Lib)
		}
		if _, ok := cat.Find(a.Patched); !ok {
			t.Errorf("%s: patched version %s not in %s catalog", a.ID, a.Patched, a.Lib)
		}
		// The patched version must not be inside the CVE's own range.
		if a.CVERange.Contains(a.Patched) {
			t.Errorf("%s: patched version %s is inside the CVE range %s", a.ID, a.Patched, a.CVERange)
		}
	}
}

// advisoriesSink keeps the allocation probe's lookups from being elided.
var advisoriesSink []Advisory

// TestAdvisoriesForIndex: the per-library index answers exactly what a
// paper-order scan of Advisories() would — for every library, every
// advisory's library and an unknown slug — its slices leave no room for an
// append to write into shared state, and a lookup allocates nothing.
func TestAdvisoriesForIndex(t *testing.T) {
	slugs := []string{"no-such-library"}
	for _, l := range Libraries() {
		slugs = append(slugs, l.Slug)
	}
	for _, a := range Advisories() {
		slugs = append(slugs, a.Lib)
	}
	for _, slug := range slugs {
		var want []Advisory
		for _, a := range Advisories() {
			if a.Lib == slug {
				want = append(want, a)
			}
		}
		got := AdvisoriesFor(slug)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: AdvisoriesFor = %d advisories, the scan finds %d (or another order)", slug, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Errorf("%s: capacity %d beyond length %d", slug, cap(got), len(got))
		}
		if n := testing.AllocsPerRun(100, func() { advisoriesSink = AdvisoriesFor(slug) }); n != 0 {
			t.Errorf("%s: AdvisoriesFor allocates %.1f times per call", slug, n)
		}
	}
}

func TestPrototypeUnpatched(t *testing.T) {
	for _, a := range AdvisoriesFor("prototype") {
		if !a.Patched.IsZero() {
			t.Errorf("%s: Prototype advisories have no patched version, got %s", a.ID, a.Patched)
		}
	}
}

func TestWordPressReleases(t *testing.T) {
	rels := WordPressReleases()
	if len(rels) < 20 {
		t.Fatalf("WordPress releases = %d, want ≥20", len(rels))
	}
	// 5.5 must drop jQuery-Migrate; 5.6 must restore it with jQuery 3.5.1.
	v55, ok := WordPressFind(semver.MustParse("5.5"))
	if !ok || !v55.Migrate.IsZero() {
		t.Error("WP 5.5 should ship without jQuery-Migrate")
	}
	v56, ok := WordPressFind(semver.MustParse("5.6"))
	if !ok || v56.Migrate.IsZero() || v56.JQuery.String() != "3.5.1" {
		t.Errorf("WP 5.6 should bundle jQuery 3.5.1 + Migrate, got %+v", v56)
	}
	v58, _ := WordPressFind(semver.MustParse("5.8"))
	if v58.JQuery.String() != "3.6.0" {
		t.Errorf("WP 5.8 should bundle jQuery 3.6.0, got %s", v58.JQuery)
	}
}

func TestWordPressAdvisories(t *testing.T) {
	advs := WordPressAdvisories()
	if len(advs) != 10 {
		t.Fatalf("Table 4 rows = %d, want 10", len(advs))
	}
	// CVE-2021-44223 covers every pre-5.8 release.
	var a WPAdvisory
	for _, adv := range advs {
		if adv.ID == "CVE-2021-44223" {
			a = adv
		}
	}
	if !a.Range.Contains(semver.MustParse("5.7")) || a.Range.Contains(semver.MustParse("5.8")) {
		t.Error("CVE-2021-44223 range wrong")
	}
}

func TestBrowsersTable3(t *testing.T) {
	bs := Browsers()
	if len(bs) != 10 {
		t.Fatalf("Table 3 rows = %d, want 10", len(bs))
	}
	var flash []string
	var total float64
	for _, b := range bs {
		if b.SupportsFlash {
			flash = append(flash, b.Name)
		}
		total += b.MarketSharePC
	}
	if len(flash) != 1 || flash[0] != "360 Browser" {
		t.Errorf("only 360 Browser should support Flash, got %v", flash)
	}
	if total < 95 || total > 101 {
		t.Errorf("market shares sum to %.2f, want ~99", total)
	}
}
