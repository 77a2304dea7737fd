package webgen

import (
	"math/rand"
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

func (s *Site) truth(week int) PageTruth {
	t := PageTruth{Week: week}
	date := WeekDate(week)

	// Accessibility.
	if s.DeadFromWeek >= 0 && week >= s.DeadFromWeek {
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

// The per-(site, week) draws are the first draw of a math/rand v1 source
// seeded for that (site, week), computed without building the source.
//
// rand.NewSource(s) fills its 607-word register from the Lehmer LCG
// x ← 48271·x mod (2³¹−1), started at the normalised seed x₀: word i is
// x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ rngCooked[i], with xₖ = x₀·48271ᵏ mod
// (2³¹−1), and its first Int63 is (word[333] + word[606]) & (2⁶³−1). The
// Go 1 compatibility promise freezes that stream (math/rand keeps its
// seeded sequence stable across releases), so six powers and two cooked
// words are all it takes; TestFirstDrawMatchesMathRand and FuzzFirstDraw
// hold them to the real source.
const (
	lcgModulus = 1<<31 - 1
	// 48271ᵏ mod (2³¹−1) for k = 1020, 1021, 1022 (word 333) and
	// k = 1839, 1840, 1841 (word 606).
	pow1020, pow1021, pow1022 = 2082024995, 1341337692, 1079773482
	pow1839, pow1840, pow1841 = 933195560, 665897288, 2140244399
	// rngCooked[333] and rngCooked[606] of GOROOT/src/math/rand/rng.go.
	cooked333 = -4633371852008891965
	cooked606 = 4152330101494654406
)

// firstInt63 returns rand.NewSource(seed).Int63() in O(1).
func firstInt63(seed int64) int64 {
	x := seed % lcgModulus
	if x < 0 {
		x += lcgModulus
	}
	if x == 0 {
		x = 89482311
	}
	w333 := seededWord(uint64(x), pow1020, pow1021, pow1022, cooked333)
	w606 := seededWord(uint64(x), pow1839, pow1840, pow1841, cooked606)
	return (w333 + w606) & (1<<63 - 1)
}

// seededWord is one register word of a freshly seeded source: x₀ jumped
// ahead by the three powers, shifted together and XORed with its cooked
// word. x₀ and the powers are below 2³¹, so each product fits in 64 bits.
func seededWord(x0, p0, p1, p2 uint64, cooked int64) int64 {
	a, b, c := int64(x0*p0%lcgModulus), int64(x0*p1%lcgModulus), int64(x0*p2%lcgModulus)
	return a<<40 ^ b<<20 ^ c ^ cooked
}

// firstFloat64 returns rand.New(rand.NewSource(seed)).Float64().
func firstFloat64(seed int64) float64 {
	if f := float64(firstInt63(seed)) / (1 << 63); f < 1 {
		return f
	}
	// The quotient rounded up to 1, where Float64 draws again. A seed
	// normalises to one of 2³¹−1 LCG states, and an exhaustive pass over
	// them found none whose first Int63 comes within 4·10⁹ of 2⁶³, so this
	// only guards the equivalence.
	return rand.New(rand.NewSource(seed)).Float64()
}

// firstIntn4 returns rand.New(rand.NewSource(seed)).Intn(4). For a power of
// two, Intn masks the low bits of Int31, the top 31 bits of the first Int63.
func firstIntn4(seed int64) int {
	return int(int32(firstInt63(seed)>>32) & 3)
}
