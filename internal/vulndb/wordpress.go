package vulndb

import (
	"time"

	"clientres/internal/semver"
)

// WPRelease is one WordPress core release, together with the jQuery and
// jQuery-Migrate versions it bundles. The bundling history drives the
// paper's two headline update events: WP 5.5 disabling jQuery-Migrate
// (Aug 2020, the Figure 3a usage drop) and WP 5.6 re-enabling it while
// auto-updating bundled jQuery to 3.5.1 (Dec 2020, the Figure 7 jump).
type WPRelease struct {
	Version semver.Version
	Date    time.Time
	// JQuery is the bundled jQuery version.
	JQuery semver.Version
	// Migrate is the bundled jQuery-Migrate version; zero when the release
	// ships without it (5.5.x).
	Migrate semver.Version
}

func wp(ver string, y int, m time.Month, day int, jq, mig string) WPRelease {
	rel := WPRelease{
		Version: semver.MustParse(ver),
		Date:    d(y, m, day),
		JQuery:  semver.MustParse(jq),
	}
	if mig != "" {
		rel.Migrate = semver.MustParse(mig)
	}
	return rel
}

// wordpressReleases is the core release line relevant to the study window,
// plus the older majors needed by the Table 4 CVE ranges.
var wordpressReleases = []WPRelease{
	wp("2.8.3", 2009, time.August, 3, "1.3.2", ""),
	wp("3.1.3", 2011, time.May, 25, "1.5.1", ""),
	wp("3.3.2", 2012, time.April, 20, "1.7.1", ""),
	wp("3.5.2", 2013, time.June, 21, "1.8.3", ""),
	wp("3.7", 2013, time.October, 24, "1.10.2", "1.2.1"),
	wp("4.0", 2014, time.September, 4, "1.11.1", "1.2.1"),
	wp("4.5", 2016, time.April, 12, "1.12.3", "1.4.0"),
	wp("4.6", 2016, time.August, 16, "1.12.4", "1.4.1"),
	wp("4.7", 2016, time.December, 6, "1.12.4", "1.4.1"),
	wp("4.8", 2017, time.June, 8, "1.12.4", "1.4.1"),
	wp("4.9", 2017, time.November, 16, "1.12.4", "1.4.1"),
	wp("5.0", 2018, time.December, 6, "1.12.4", "1.4.1"),
	wp("5.1", 2019, time.February, 21, "1.12.4", "1.4.1"),
	wp("5.2", 2019, time.May, 7, "1.12.4", "1.4.1"),
	wp("5.3", 2019, time.November, 12, "1.12.4", "1.4.1"),
	wp("5.4", 2020, time.March, 31, "1.12.4", "1.4.1"),
	// 5.5 updates bundled jQuery to 1.12.4-wp and DISABLES jQuery-Migrate.
	wp("5.5", 2020, time.August, 11, "1.12.4", ""),
	wp("5.5.3", 2020, time.October, 30, "1.12.4", ""),
	// 5.6 ships jQuery 3.5.1 and re-includes jQuery-Migrate (3.3.2).
	wp("5.6", 2020, time.December, 8, "3.5.1", "3.3.2"),
	wp("5.7", 2021, time.March, 9, "3.5.1", "3.3.2"),
	// 5.8 moves bundled jQuery to 3.6.0 (the Aug 2021 shift in Figure 7).
	wp("5.8", 2021, time.July, 20, "3.6.0", "3.3.2"),
	wp("5.8.3", 2022, time.January, 6, "3.6.0", "3.3.2"),
	wp("5.9", 2022, time.January, 25, "3.6.0", "3.3.2"),
}

// WordPressReleases returns the encoded WordPress release line ascending by
// date.
func WordPressReleases() []WPRelease {
	out := make([]WPRelease, len(wordpressReleases))
	copy(out, wordpressReleases)
	return out
}

// WordPressFind returns the release record for an exact version.
func WordPressFind(v semver.Version) (WPRelease, bool) {
	for _, rel := range wordpressReleases {
		if rel.Version.Equal(v) {
			return rel, true
		}
	}
	return WPRelease{}, false
}

// WPAdvisory is one WordPress-core CVE of Table 4.
type WPAdvisory struct {
	ID        string
	Range     semver.RangeSet
	Patched   semver.Version
	Disclosed time.Time
	PatchDate time.Time
}

// wordpressAdvisories encodes Table 4: the five most recent and the five
// most severe WordPress CVEs the paper examined.
var wordpressAdvisories = []WPAdvisory{
	{ID: "CVE-2022-21664", Range: rs("4.1.34 ~ 5.8.3"), Patched: semver.MustParse("5.8.3"),
		Disclosed: d(2022, time.January, 6), PatchDate: d(2022, time.January, 6)},
	{ID: "CVE-2022-21663", Range: rs("3.7.37 ~ 5.8.3"), Patched: semver.MustParse("5.8.3"),
		Disclosed: d(2022, time.January, 6), PatchDate: d(2022, time.January, 6)},
	{ID: "CVE-2022-21662", Range: rs("3.7.37 ~ 5.8.3"), Patched: semver.MustParse("5.8.3"),
		Disclosed: d(2022, time.January, 6), PatchDate: d(2022, time.January, 6)},
	{ID: "CVE-2022-21661", Range: rs("3.7.37 ~ 5.8.3"), Patched: semver.MustParse("5.8.3"),
		Disclosed: d(2022, time.January, 6), PatchDate: d(2022, time.January, 6)},
	{ID: "CVE-2021-44223", Range: rs("< 5.8"), Patched: semver.MustParse("5.8"),
		Disclosed: d(2021, time.November, 25), PatchDate: d(2021, time.July, 20)},
	{ID: "CVE-2012-2400", Range: rs("< 3.3.2"), Patched: semver.MustParse("3.3.2"),
		Disclosed: d(2012, time.April, 21), PatchDate: d(2012, time.April, 20)},
	{ID: "CVE-2012-2399", Range: rs("< 3.5.2"), Patched: semver.MustParse("3.5.2"),
		Disclosed: d(2012, time.April, 21), PatchDate: d(2013, time.June, 21)},
	{ID: "CVE-2011-3125", Range: rs("< 3.1.3"), Patched: semver.MustParse("3.1.3"),
		Disclosed: d(2011, time.August, 10), PatchDate: d(2011, time.May, 25)},
	{ID: "CVE-2011-3122", Range: rs("< 3.1.3"), Patched: semver.MustParse("3.1.3"),
		Disclosed: d(2011, time.August, 10), PatchDate: d(2011, time.May, 25)},
	{ID: "CVE-2009-2853", Range: rs("< 2.8.3"), Patched: semver.MustParse("2.8.3"),
		Disclosed: d(2009, time.August, 18), PatchDate: d(2009, time.August, 3)},
}

// WordPressAdvisories returns Table 4's rows in the paper's order (five most
// recent, then five most severe).
func WordPressAdvisories() []WPAdvisory {
	out := make([]WPAdvisory, len(wordpressAdvisories))
	copy(out, wordpressAdvisories)
	return out
}
