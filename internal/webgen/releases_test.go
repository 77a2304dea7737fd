package webgen

import (
	"reflect"
	"testing"
	"time"

	"clientres/internal/semver"
	"clientres/internal/vulndb"
)

// The reference scans: version truth as it reads in words, a pass over the
// whole catalog per query. The release indexes must answer exactly as
// these do; nothing outside this file scans a catalog per query.

// scanTrajectory is the adopt-with-delay trajectory by catalog scan: the
// highest release out DelayDays before date (of Initial's major line when
// pinned), replaced only by a strictly higher one, so the first in catalog
// order among equal versions wins and Initial stays unless beaten.
func scanTrajectory(releases []vulndb.Release, use LibUse, date time.Time) semver.Version {
	cutoff := date.AddDate(0, 0, -use.DelayDays)
	best := use.Initial
	for _, rel := range releases {
		if rel.Date.After(cutoff) {
			continue
		}
		if use.MajorPinned && rel.Version.Major() != use.Initial.Major() {
			continue
		}
		if best.Less(rel.Version) {
			best = rel.Version
		}
	}
	return best
}

// scanFirstUpdate is the use's first in-study update by catalog scan: the
// earliest adoption instant (release date + delay) after the study start
// that raises the shown version above what the site had the day before;
// zero when there is none.
func scanFirstUpdate(releases []vulndb.Release, use LibUse) time.Time {
	var firstUpdate time.Time
	for _, rel := range releases {
		if use.MajorPinned && rel.Version.Major() != use.Initial.Major() {
			continue
		}
		adoption := rel.Date.AddDate(0, 0, use.DelayDays)
		if !adoption.After(studyStart) {
			continue
		}
		before := scanTrajectory(releases, use, adoption.AddDate(0, 0, -1))
		if !before.Less(rel.Version) {
			continue
		}
		if firstUpdate.IsZero() || adoption.Before(firstUpdate) {
			firstUpdate = adoption
		}
	}
	return firstUpdate
}

// scanRegressionState is regressionState over a first update scanFirstUpdate
// found: the roll-back window opens regressionOnset days after it and lasts
// regressionSpan days, reverting to the version of the day before it.
func scanRegressionState(releases []vulndb.Release, use LibUse, firstUpdate, date time.Time) (bool, semver.Version) {
	if firstUpdate.IsZero() {
		return false, semver.Version{}
	}
	from := firstUpdate.AddDate(0, 0, regressionOnset)
	to := from.AddDate(0, 0, regressionSpan)
	if date.Before(from) || !date.Before(to) {
		return false, semver.Version{}
	}
	return true, scanTrajectory(releases, use, firstUpdate.AddDate(0, 0, -1))
}

// scanWPRelease is wpReleaseAt by scans of the WordPress release table.
func scanWPRelease(s *Site, date time.Time) vulndb.WPRelease {
	initRel, _ := vulndb.WordPressFind(s.WPInitial)
	if s.WPPolicy == PolicyFrozen {
		return initRel
	}
	cutoff := date.AddDate(0, 0, -s.WPDelayDays)
	best := initRel
	for _, rel := range vulndb.WordPressReleases() {
		if rel.Date.After(cutoff) {
			continue
		}
		if best.Version.Less(rel.Version) {
			best = rel
		}
	}
	return best
}

// releaseQueryDates returns every study week's date, eight weeks before
// and after the study, and each release date with the days either side.
func releaseQueryDates(releases []time.Time) []time.Time {
	var out []time.Time
	for w := -8; w < StudyWeeks+8; w++ {
		out = append(out, WeekDate(w))
	}
	for _, d := range releases {
		out = append(out, d.AddDate(0, 0, -1), d, d.AddDate(0, 0, 1))
	}
	return append(out, time.Date(1990, time.January, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2100, time.January, 1, 0, 0, 0, 0, time.UTC))
}

// releaseTestDelays are the adoption lags the equivalence test covers.
var releaseTestDelays = []int{0, 7, 30, 400}

func sameVersion(a, b semver.Version) bool { return a.String() == b.String() && a.Equal(b) }

// TestReleaseIndexMatchesScan: over every catalog, every release as the
// initial version (also spelled with an extra ".0", equal but printed
// otherwise, and versions outside the catalog), pinned and unpinned, each
// delay, and dates across, before and after the study, the indexed
// trajectory, roll-back window and migration target equal the scans, by
// String as well as by Equal — so the tie rules hold too — and so do the
// release lists an initial version is drawn from.
func TestReleaseIndexMatchesScan(t *testing.T) {
	for _, slug := range vulndb.CatalogSlugs() {
		cat, _ := vulndb.CatalogFor(slug)
		checkIndexMatchesScan(t, slug, catalogIndexes[slug], cat.Releases)
	}
}

// TestReleaseIndexMatchesScanOnTies holds the index to the scans on a
// catalog built to exercise what the real ones may not: equal versions
// spelled differently (on one date and on two), releases out of version
// order by date, a pre-release, and maintenance releases right after the
// study start that do not raise the version, so a roll-back window must
// open at a later release.
func TestReleaseIndexMatchesScanOnTies(t *testing.T) {
	day := func(y int, m time.Month, d int) time.Time { return time.Date(y, m, d, 0, 0, 0, 0, time.UTC) }
	rel := func(v string, date time.Time) vulndb.Release {
		return vulndb.Release{Version: semver.MustParse(v), Date: date}
	}
	releases := []vulndb.Release{
		rel("1.0", day(2017, time.January, 1)), rel("1.0.0", day(2017, time.January, 1)),
		rel("1.1", day(2017, time.June, 1)), rel("1.1.0", day(2018, time.January, 1)),
		rel("1.2", day(2018, time.March, 10)), rel("1.3", day(2018, time.April, 1)),
		rel("2.0", day(2017, time.December, 1)), rel("2.1", day(2018, time.May, 1)),
		rel("2.1.0", day(2018, time.May, 1)), rel("2.2", day(2018, time.August, 1)),
		rel("3.0-rc1", day(2018, time.June, 1)), rel("3.0", day(2018, time.July, 1)),
		rel("3", day(2018, time.July, 2)),
	}
	versions := make([]semver.Version, len(releases))
	dates := make([]time.Time, len(releases))
	for i, r := range releases {
		versions[i], dates[i] = r.Version, r.Date
	}
	checkIndexMatchesScan(t, "synthetic", newReleaseIndex(versions, dates), releases)
}

// checkIndexMatchesScan compares every query x answers about the catalog
// of the given releases with the scans over them.
func checkIndexMatchesScan(t *testing.T, slug string, x *releaseIndex, releases []vulndb.Release) {
	t.Helper()
	var dates []time.Time
	initials := []semver.Version{{}, semver.MustParse("0.0.1"), semver.MustParse("999")}
	for _, rel := range releases {
		dates = append(dates, rel.Date)
		initials = append(initials, rel.Version, semver.MustParse(rel.Version.String()+".0"))
	}
	queries := releaseQueryDates(dates)
	cat := vulndb.Catalog{Releases: releases}
	for _, d := range queries {
		got, want := semver.Version{}, cat.LatestAsOf(d).Version
		if i := x.all.at(d.Unix()); i >= 0 {
			got = x.versions[i]
		}
		if !sameVersion(got, want) {
			t.Fatalf("%s latest as of %s: index %q, scan %q", slug, d.Format("2006-01-02"), got, want)
		}
	}
	// The draws of an initial version: the releases out by a late
	// adoption, in catalog order, and those out before the study.
	var preStudy []int32
	for i, rel := range releases {
		if rel.Date.Before(studyStart) {
			preStudy = append(preStudy, int32(i))
		}
	}
	if !reflect.DeepEqual(x.preStudy, preStudy) {
		t.Fatalf("%s pre-study releases: index %v, scan %v", slug, x.preStudy, preStudy)
	}
	for _, d := range queries {
		var out []int32
		for i, rel := range releases {
			if !rel.Date.After(d) {
				out = append(out, int32(i))
			}
		}
		n := x.all.count(d.Unix())
		if n != len(out) {
			t.Fatalf("%s releases out by %s: index %d, scan %d", slug, d.Format("2006-01-02"), n, len(out))
		}
		for k := 0; k < min(n, lateChoices); k++ {
			if got, want := x.latest[n-1][k], out[len(out)-1-k]; got != want {
				t.Fatalf("%s release %d from the last out by %s: index %d, scan %d", slug, k, d.Format("2006-01-02"), got, want)
			}
		}
	}
	for _, initial := range initials {
		for _, pinned := range []bool{false, true} {
			for _, delay := range releaseTestDelays {
				use := LibUse{Slug: slug, Initial: initial, Policy: PolicyManual,
					DelayDays: delay, MajorPinned: pinned, Regress: true}
				first := scanFirstUpdate(releases, use)
				for _, d := range queries {
					if got, want := x.trajectoryVersion(&use, d), scanTrajectory(releases, use, d); !sameVersion(got, want) {
						t.Fatalf("%+v at %s: index %q, scan %q", use, d.Format("2006-01-02"), got, want)
					}
					gotIn, gotPrev := x.regressionState(&use, d)
					wantIn, wantPrev := scanRegressionState(releases, use, first, d)
					if gotIn != wantIn || !sameVersion(gotPrev, wantPrev) {
						t.Fatalf("%+v regression at %s: index %t %q, scan %t %q",
							use, d.Format("2006-01-02"), gotIn, gotPrev, wantIn, wantPrev)
					}
				}
			}
		}
	}
}

// TestWordPressIndexMatchesScan: the indexed WordPress release equals the
// scan for every release as the initial one (and spellings and versions
// the table lacks), every policy and delay, across and around the study.
func TestWordPressIndexMatchesScan(t *testing.T) {
	var dates []time.Time
	initials := []semver.Version{{}, semver.MustParse("1.0"), semver.MustParse("5.5.1")}
	for _, rel := range vulndb.WordPressReleases() {
		dates = append(dates, rel.Date)
		initials = append(initials, rel.Version, semver.MustParse(rel.Version.String()+".0"))
	}
	queries := releaseQueryDates(dates)
	for _, initial := range initials {
		for _, policy := range []UpdatePolicy{PolicyFrozen, PolicyManual, PolicyAuto} {
			for _, delay := range releaseTestDelays {
				s := &Site{WordPress: true, WPInitial: initial, WPPolicy: policy, WPDelayDays: delay}
				for _, d := range queries {
					var got vulndb.WPRelease
					if rel := s.wpReleaseAt(d); rel != nil {
						got = *rel
					}
					want := scanWPRelease(s, d)
					if !sameVersion(got.Version, want.Version) || !got.Date.Equal(want.Date) ||
						!sameVersion(got.JQuery, want.JQuery) || !sameVersion(got.Migrate, want.Migrate) {
						t.Fatalf("WP %q policy %d delay %d at %s: index %+v, scan %+v",
							initial, policy, delay, d.Format("2006-01-02"), got, want)
					}
				}
			}
		}
	}
}

var truthSink PageTruth

// BenchmarkSiteTruth resolves the ground truth of every site of a
// 2,000-domain ecosystem at one week per iteration, weeks cycling through
// the study: the per-observation cost gendata and direct writes pay.
func BenchmarkSiteTruth(b *testing.B) {
	e := New(Config{Domains: 2000, Seed: 1, Bundling: DefaultBundling(0.3)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := i % StudyWeeks
		for j := range e.Sites {
			truthSink = e.Truth(j, w)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(e.Sites)), "ns/obs")
}
