package webgen

import (
	"time"

	"clientres/internal/semver"
	"clientres/internal/vulndb"
)

// LibObservation is the ground-truth fact "this page included this library
// at this version" for one snapshot week.
type LibObservation struct {
	Slug        string
	Version     semver.Version
	External    bool
	Host        string
	SRI         bool
	Crossorigin string
}

// FlashObservation is the ground-truth Flash embedding state of a page.
type FlashObservation struct {
	ScriptAccessParam bool
	Always            bool
	ViaSWFObject      bool
	// Visible marks Flash that actually renders; invisible embeds are
	// positioned off-page (7 of the paper's 13 top-10K cases).
	Visible bool
}

// PageTruth is everything the generator knows about a (site, week) page.
type PageTruth struct {
	Week       int
	Accessible bool
	// Status is the HTTP status the site answers with; 0 means the domain
	// does not resolve at all (dead).
	Status int
	// EmptyPage marks anti-bot "Not allowed" responses (HTTP 200 but under
	// the paper's 400-byte threshold).
	EmptyPage bool
	// WordPress is the platform version (zero when the site is not WP).
	WordPress semver.Version
	// Bundled marks pages whose top-15 libraries ship concatenated in one
	// bundle.<contenthash>.js instead of individual script tags; their
	// Libs are internalized (the bundle vendors every dependency, so
	// External/Host/SRI no longer apply). Tail libraries and app scripts
	// keep their own tags even on bundled pages.
	Bundled bool
	Libs    []LibObservation
	Tail    []TailLib
	Flash   *FlashObservation
	HasJS   bool
	UsesCSS, UsesFavicon, UsesImportedHTML,
	UsesXML, UsesSVG, UsesAXD bool
}

// Lib returns the observation for a library slug, if present.
func (p PageTruth) Lib(slug string) (LibObservation, bool) {
	for _, l := range p.Libs {
		if l.Slug == slug {
			return l, true
		}
	}
	return LibObservation{}, false
}

// Truth resolves the ground-truth page state of site index i at week w.
func (e *Ecosystem) Truth(i, week int) PageTruth {
	return e.Sites[i].truth(week)
}

// Dead reports whether the domain of site index i is gone at week w: the
// weeks PageHTML answers with status 0, decided without resolving the rest
// of the page.
func (e *Ecosystem) Dead(i, week int) bool {
	return e.Sites[i].deadAt(week)
}

func (s *Site) deadAt(week int) bool {
	return s.DeadFromWeek >= 0 && week >= s.DeadFromWeek
}

func (s *Site) truth(week int) PageTruth {
	t := PageTruth{Week: week}
	date := WeekDate(week)

	// Accessibility.
	if s.deadAt(week) {
		return t // Status 0: gone
	}
	if failRoll(s.seed, week) < s.TransientFailP {
		t.Status = transientStatus(s.seed, week)
		return t
	}
	t.Status = 200
	if s.AntiBot {
		t.EmptyPage = true
		return t
	}
	t.Accessible = true

	t.UsesCSS, t.UsesFavicon = s.UsesCSS, s.UsesFavicon
	t.UsesImportedHTML, t.UsesXML = s.UsesImportedHTML, s.UsesXML
	t.UsesSVG, t.UsesAXD = s.UsesSVG, s.UsesAXD

	if s.Static {
		return t
	}

	var wpRel vulndb.WPRelease
	if s.WordPress {
		wpRel = s.wpReleaseAt(date)
		t.WordPress = wpRel.Version
	}

	for _, use := range s.Libs {
		obs, ok := s.libObservationAt(use, week, date, wpRel)
		if !ok {
			continue
		}
		t.Libs = append(t.Libs, obs)
	}
	if s.Bundle.Enabled && len(t.Libs) > 0 {
		t.Bundled = true
		for i := range t.Libs {
			t.Libs[i].External = false
			t.Libs[i].Host = ""
			t.Libs[i].SRI = false
			t.Libs[i].Crossorigin = ""
		}
	}
	t.Tail = s.Tail
	// Imported-HTML loaders are script tags, so they count as JavaScript
	// presence just as they did to Wappalyzer.
	t.HasJS = s.CustomJS || len(t.Libs) > 0 || len(t.Tail) > 0 || s.UsesImportedHTML

	if s.Flash != nil && (s.Flash.DropWeek < 0 || week < s.Flash.DropWeek) {
		t.Flash = &FlashObservation{
			ScriptAccessParam: s.Flash.ScriptAccessParam,
			Always:            s.Flash.Always,
			ViaSWFObject:      s.Flash.ViaSWFObject,
			Visible:           s.Flash.Visible,
		}
	}
	return t
}

// libObservationAt resolves one library use at a week; ok is false when the
// library is not on the page that week.
func (s *Site) libObservationAt(use LibUse, week int, date time.Time, wpRel vulndb.WPRelease) (LibObservation, bool) {
	if week < use.AdoptWeek {
		return LibObservation{}, false
	}
	if use.DropWeek >= 0 && week >= use.DropWeek {
		// Migration: a dropped library may be replaced by its successor,
		// adopted at the then-latest version and frozen there.
		if use.SwitchTo == "" {
			return LibObservation{}, false
		}
		cat, ok := vulndb.CatalogFor(use.SwitchTo)
		if !ok {
			return LibObservation{}, false
		}
		rel := cat.LatestAsOf(WeekDate(use.DropWeek))
		if rel.Version.IsZero() {
			return LibObservation{}, false
		}
		return LibObservation{
			Slug: use.SwitchTo, Version: rel.Version,
			External: use.External, Host: use.Host,
			SRI: use.SRI, Crossorigin: use.Crossorigin,
		}, true
	}

	obs := LibObservation{
		Slug: use.Slug, External: use.External, Host: use.Host,
		SRI: use.SRI, Crossorigin: use.Crossorigin,
	}

	if use.ManagedByWP {
		// WordPress-bundled jQuery / jQuery-Migrate: version (and, for
		// Migrate, presence) follow the site's current WordPress release.
		if wpRel.Version.IsZero() {
			return LibObservation{}, false
		}
		switch use.Slug {
		case "jquery":
			obs.Version = wpRel.JQuery
		case "jquery-migrate":
			if wpRel.Migrate.IsZero() || !s.WPHasMigrate {
				return LibObservation{}, false
			}
			obs.Version = wpRel.Migrate
		default:
			obs.Version = use.Initial
		}
		return obs, true
	}

	obs.Version = libVersionAt(use, date)
	return obs, true
}

// Regression window shape: a regressing site reverts its first in-study
// update regressionOnset days after adopting it and stays on the previous
// version for regressionSpan days before re-updating for good.
const (
	regressionOnset = 14
	regressionSpan  = 56
)

// libVersionAt resolves the version a (non-WP-managed) library use shows at
// a date: frozen uses stay at Initial; manual/auto uses adopt each release
// DelayDays after it ships, optionally pinned to their initial major line,
// and never downgrade — except regressing sites, which roll their first
// in-study update back for a spell (Section 9's future-work behaviour).
func libVersionAt(use LibUse, date time.Time) semver.Version {
	if use.Policy == PolicyFrozen {
		return use.Initial
	}
	if use.Regress {
		if inWindow, prev := regressionState(use, date); inWindow {
			return prev
		}
	}
	return trajectoryVersion(use, date)
}

// trajectoryVersion is the monotone adopt-with-delay trajectory.
func trajectoryVersion(use LibUse, date time.Time) semver.Version {
	cat, ok := vulndb.CatalogFor(use.Slug)
	if !ok {
		return use.Initial
	}
	cutoff := date.AddDate(0, 0, -use.DelayDays)
	best := use.Initial
	for _, rel := range cat.Releases {
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

// regressionState reports whether date falls inside the use's roll-back
// window, and the version the site reverts to.
func regressionState(use LibUse, date time.Time) (bool, semver.Version) {
	cat, ok := vulndb.CatalogFor(use.Slug)
	if !ok {
		return false, semver.Version{}
	}
	// The first in-study update is the earliest adoption instant
	// (release date + delay) after the study start that actually raises
	// the shown version above what the site had the instant before.
	var firstUpdate time.Time
	for _, rel := range cat.Releases {
		if use.MajorPinned && rel.Version.Major() != use.Initial.Major() {
			continue
		}
		adoption := rel.Date.AddDate(0, 0, use.DelayDays)
		if !adoption.After(studyStart) {
			continue
		}
		before := trajectoryVersion(use, adoption.AddDate(0, 0, -1))
		if !before.Less(rel.Version) {
			continue
		}
		if firstUpdate.IsZero() || adoption.Before(firstUpdate) {
			firstUpdate = adoption
		}
	}
	if firstUpdate.IsZero() {
		return false, semver.Version{}
	}
	from := firstUpdate.AddDate(0, 0, regressionOnset)
	to := from.AddDate(0, 0, regressionSpan)
	if date.Before(from) || !date.Before(to) {
		return false, semver.Version{}
	}
	return true, trajectoryVersion(use, firstUpdate.AddDate(0, 0, -1))
}

// wpReleaseAt resolves the site's WordPress release at a date.
func (s *Site) wpReleaseAt(date time.Time) vulndb.WPRelease {
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

// failRoll returns a deterministic uniform [0,1) for (site, week).
func failRoll(seed int64, week int) float64 {
	return firstFloat64(mix(seed, int64(week), 0x7fa11))
}

// transientStatus picks the failure mode of a flaky week.
func transientStatus(seed int64, week int) int {
	switch firstIntn4(mix(seed, int64(week), 0x57a7)) {
	case 0:
		return 403
	case 1:
		return 404
	case 2:
		return 500
	default:
		return 503
	}
}
