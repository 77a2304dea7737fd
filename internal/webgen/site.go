package webgen

import (
	"math"
	"math/rand"

	"clientres/internal/alexa"
	"clientres/internal/cdn"
	"clientres/internal/semver"
)

// UpdatePolicy describes how a site (or one of its libraries) reacts to new
// releases. The mixture of these policies is what produces the paper's
// update-delay findings.
type UpdatePolicy int

// Update policies.
const (
	// PolicyFrozen never updates: the version observed at adoption stays
	// for the whole study (the dominant-old-version mass of Section 6.3).
	PolicyFrozen UpdatePolicy = iota
	// PolicyManual adopts each new release a site-specific delay (roughly
	// log-normal, mean ≈ 1.5 years) after it ships.
	PolicyManual
	// PolicyAuto tracks releases within weeks (WordPress auto-update).
	PolicyAuto
)

func (p UpdatePolicy) String() string {
	switch p {
	case PolicyFrozen:
		return "frozen"
	case PolicyManual:
		return "manual"
	case PolicyAuto:
		return "auto"
	}
	return "?"
}

// LibUse is one library included by a site.
type LibUse struct {
	// Slug identifies the library ("jquery").
	Slug string
	// Initial is the version in use at adoption time.
	Initial semver.Version
	// Policy governs version movement.
	Policy UpdatePolicy
	// DelayDays is the manual-policy adoption lag behind each release.
	DelayDays int
	// MajorPinned restricts updates to the initial version's major line
	// (the backward-compatibility freeze of Section 6.3).
	MajorPinned bool
	// Regress marks manual updaters that roll back their first in-study
	// update after a couple of weeks (compatibility fallout) and stay on
	// the old version for a spell before re-updating — the regression
	// behaviour the paper names as future work (Section 9).
	Regress bool
	// ManagedByWP makes the version follow the WordPress bundled version
	// (jquery / jquery-migrate on WordPress sites).
	ManagedByWP bool
	// AdoptWeek is the snapshot week the site starts including the library
	// (0 = from the study start). DropWeek is the week it stops (-1 =
	// never). SwitchTo names the library adopted at DropWeek, if any
	// (jquery-cookie → js-cookie migration).
	AdoptWeek, DropWeek int
	SwitchTo            string
	// External marks remote inclusion; Host is the serving host then.
	External bool
	Host     string
	// SRI marks an integrity attribute; Crossorigin holds the crossorigin
	// attribute value ("" = absent).
	SRI         bool
	Crossorigin string
}

// FlashUse describes a site's Adobe Flash embedding.
type FlashUse struct {
	// DropWeek is the week the site removes Flash (-1 = keeps it past the
	// end of the study).
	DropWeek int
	// ScriptAccessParam marks an explicit AllowScriptAccess parameter;
	// Always marks the insecure "always" option.
	ScriptAccessParam bool
	Always            bool
	// Visible marks Flash content that actually renders (vs. leftovers
	// positioned off-page — the Section 8 invisible cases).
	Visible bool
	// ViaSWFObject marks embedding through the SWFObject library.
	ViaSWFObject bool
}

// Site is one generated website profile.
type Site struct {
	Domain alexa.Domain
	seed   int64

	// Static (no JavaScript at all) sites exist so that aggregate JS usage
	// matches Figure 2b.
	Static bool

	// WordPress platform state.
	WordPress    bool
	WPInitial    semver.Version
	WPPolicy     UpdatePolicy
	WPDelayDays  int
	WPHasMigrate bool // theme renders the bundled jQuery-Migrate

	// DeadFromWeek is the week the domain disappears (-1 = alive).
	DeadFromWeek int
	// TransientFailP is the per-week probability of a transient 4xx/5xx.
	TransientFailP float64
	// AntiBot sites answer HTTP 200 with a short "Not allowed" page.
	AntiBot bool

	// Resource-type flags (Figure 2b).
	UsesCSS, UsesFavicon, UsesImportedHTML, UsesXML, UsesSVG, UsesAXD bool
	// CustomJS marks a site-specific inline/app script.
	CustomJS bool

	Libs  []LibUse
	Tail  []TailLib
	Flash *FlashUse

	// Bundle is the site's bundler behaviour (zero = plain script tags).
	Bundle BundleProfile
}

// TailLib is a long-tail library beyond the top 15 (no CVE analysis, but
// they exercise generic detection and make the "79 distinct libraries"
// landscape of Section 5).
type TailLib struct {
	Name    string
	Version string
}

// libCalib carries the per-library calibration derived from Table 1.
type libCalib struct {
	slug string
	// usage is the fraction of ALL sites including the library on average.
	usage float64
	// external is the fraction of inclusions that are remote.
	external float64
	// cdnShare is the CDN fraction among remote inclusions.
	cdnShare float64
	// adoptDuring / dropDuring are the fractions of using sites that adopt
	// after the study starts or drop before it ends (usage trends, Fig 3).
	adoptDuring, dropDuring float64
	// frozen/manual/auto are the policy mixture weights.
	frozen, manual, auto float64
	// majorPin is the probability a manual updater pins its major line.
	majorPin float64
	// initial is the adoption-version weight table at the study start;
	// spreadWeight is distributed uniformly over all other pre-study
	// versions.
	initial      []versionWeight
	spreadWeight int
}

type versionWeight struct {
	v string
	w int
}

// calib is the Table 1 / Table 5 calibration. Ordering matters only for
// readability.
var calib = []libCalib{
	{
		// external is the non-WordPress-managed share; combined with the
		// WP-managed inclusions (mostly internal, partly wp.com-served)
		// the overall external share lands at the paper's 40.8 %.
		slug: "jquery", usage: 0.640, external: 0.50, cdnShare: 0.961,
		adoptDuring: 0.03, dropDuring: 0.07,
		frozen: 0.52, manual: 0.38, auto: 0.10, majorPin: 0.65,
		initial: []versionWeight{
			{"1.12.4", 20}, {"3.3.1", 12}, {"3.2.1", 7}, {"3.1.1", 5},
			{"3.0.0", 3}, {"2.2.4", 4}, {"2.1.4", 2}, {"1.11.3", 4},
			{"1.11.1", 3}, {"1.10.2", 3}, {"1.9.1", 3}, {"1.8.3", 3},
			{"1.7.2", 2}, {"1.7.1", 2}, {"1.6.2", 1}, {"1.4.2", 1},
			{"1.12.0", 2},
		},
		spreadWeight: 12,
	},
	{
		// A large share of Bootstrap sites adopted during the study on the
		// then-current 4.x line — that is how the paper's Table 2 can show
		// only ~28 % of Bootstrap sites on < 4.1.2 while 3.3.7 is still
		// the single dominant version.
		slug: "bootstrap", usage: 0.215, external: 0.284, cdnShare: 0.707,
		adoptDuring: 0.16, dropDuring: 0.06,
		frozen: 0.55, manual: 0.33, auto: 0.12, majorPin: 0.60,
		initial: []versionWeight{
			{"3.3.7", 24}, {"3.3.6", 4}, {"3.3.5", 3}, {"4.0.0", 10},
			{"3.1.1", 2}, {"3.2.0", 2}, {"3.0.3", 2}, {"2.3.2", 2},
		},
		spreadWeight: 10,
	},
	{
		// jQuery-Migrate outside WordPress; the WordPress-bundled copies
		// are generated separately per WP site.
		slug: "jquery-migrate", usage: 0.020, external: 0.116, cdnShare: 0.426,
		adoptDuring: 0.02, dropDuring: 0.05,
		frozen: 0.70, manual: 0.25, auto: 0.05, majorPin: 0.50,
		initial: []versionWeight{
			{"1.4.1", 55}, {"1.2.1", 10}, {"3.0.0", 6}, {"3.0.1", 4}, {"1.0.0", 4},
		},
		spreadWeight: 6,
	},
	{
		slug: "jquery-ui", usage: 0.122, external: 0.503, cdnShare: 0.919,
		adoptDuring: 0.02, dropDuring: 0.08,
		frozen: 0.62, manual: 0.30, auto: 0.08, majorPin: 0.20,
		initial: []versionWeight{
			{"1.12.1", 15}, {"1.11.4", 10}, {"1.10.4", 6}, {"1.10.3", 5},
			{"1.9.2", 4}, {"1.8.24", 3}, {"1.12.0", 3},
		},
		spreadWeight: 10,
	},
	{
		slug: "modernizr", usage: 0.095, external: 0.219, cdnShare: 0.682,
		adoptDuring: 0.02, dropDuring: 0.10,
		frozen: 0.70, manual: 0.25, auto: 0.05, majorPin: 0.40,
		initial: []versionWeight{
			{"2.6.2", 16}, {"2.8.3", 10}, {"2.7.1", 4}, {"3.5.0", 5},
			{"3.6.0", 5}, {"2.8.1", 2},
		},
		spreadWeight: 8,
	},
	{
		slug: "js-cookie", usage: 0.033, external: 0.195, cdnShare: 0.865,
		adoptDuring: 0.35, dropDuring: 0.02,
		frozen: 0.75, manual: 0.20, auto: 0.05, majorPin: 0.30,
		initial: []versionWeight{
			{"2.1.4", 80}, {"2.2.0", 8}, {"2.1.3", 4}, {"2.0.4", 2},
		},
		spreadWeight: 4,
	},
	{
		slug: "underscore", usage: 0.025, external: 0.168, cdnShare: 0.497,
		adoptDuring: 0.30, dropDuring: 0.03,
		frozen: 0.55, manual: 0.35, auto: 0.10, majorPin: 0.10,
		initial: []versionWeight{
			{"1.8.3", 12}, {"1.8.2", 4}, {"1.7.0", 4}, {"1.6.0", 3},
			{"1.5.2", 3}, {"1.4.4", 3},
		},
		spreadWeight: 25,
	},
	{
		slug: "isotope", usage: 0.018, external: 0.092, cdnShare: 0.246,
		adoptDuring: 0.06, dropDuring: 0.05,
		frozen: 0.65, manual: 0.28, auto: 0.07, majorPin: 0.30,
		initial: []versionWeight{
			{"3.0.4", 17}, {"3.0.5", 8}, {"2.2.2", 6}, {"3.0.2", 4}, {"2.0.0", 3},
		},
		spreadWeight: 10,
	},
	{
		slug: "popper", usage: 0.017, external: 0.531, cdnShare: 0.920,
		adoptDuring: 0.50, dropDuring: 0.03,
		frozen: 0.60, manual: 0.30, auto: 0.10, majorPin: 0.60,
		initial: []versionWeight{
			{"1.14.0", 12}, {"1.13.0", 8}, {"1.12.0", 6},
		},
		spreadWeight: 8,
	},
	{
		slug: "moment", usage: 0.016, external: 0.296, cdnShare: 0.716,
		adoptDuring: 0.06, dropDuring: 0.08,
		frozen: 0.60, manual: 0.32, auto: 0.08, majorPin: 0.20,
		initial: []versionWeight{
			{"2.18.1", 9}, {"2.10.6", 4}, {"2.17.0", 4}, {"2.19.3", 4},
			{"2.9.0", 3}, {"2.19.1", 2},
		},
		spreadWeight: 16,
	},
	{
		slug: "requirejs", usage: 0.016, external: 0.352, cdnShare: 0.281,
		adoptDuring: 0.04, dropDuring: 0.06,
		frozen: 0.35, manual: 0.45, auto: 0.20, majorPin: 0.20,
		initial: []versionWeight{
			{"2.3.5", 16}, {"2.3.2", 6}, {"2.1.22", 5}, {"2.2.0", 4},
		},
		spreadWeight: 8,
	},
	{
		slug: "swfobject", usage: 0.013, external: 0.258, cdnShare: 0.633,
		adoptDuring: 0.01, dropDuring: 0.25,
		frozen: 0.95, manual: 0.05, auto: 0.0, majorPin: 0.50,
		initial: []versionWeight{
			{"2.2", 60}, {"2.1", 25}, {"1.5", 10},
		},
		spreadWeight: 0,
	},
	{
		slug: "prototype", usage: 0.010, external: 0.188, cdnShare: 0.579,
		adoptDuring: 0.01, dropDuring: 0.10,
		frozen: 0.80, manual: 0.18, auto: 0.02, majorPin: 0.40,
		initial: []versionWeight{
			{"1.7.1", 43}, {"1.6.1", 15}, {"1.7.3", 10}, {"1.7.0", 8},
			{"1.6.0.3", 6},
		},
		spreadWeight: 8,
	},
	{
		slug: "jquery-cookie", usage: 0.010, external: 0.367, cdnShare: 0.865,
		adoptDuring: 0.01, dropDuring: 0.22,
		frozen: 0.90, manual: 0.10, auto: 0.0, majorPin: 0.50,
		initial: []versionWeight{
			{"1.4.1", 64}, {"1.3.1", 12}, {"1.4.0", 8},
		},
		spreadWeight: 8,
	},
	{
		slug: "polyfill", usage: 0.009, external: 0.855, cdnShare: 0.378,
		adoptDuring: 0.50, dropDuring: 0.02,
		frozen: 0.60, manual: 0.30, auto: 0.10, majorPin: 0.0,
		initial: []versionWeight{
			{"3", 65}, {"2", 25}, {"1", 10},
		},
		spreadWeight: 0,
	},
}

// wpInitial is the WordPress core version mix at the study start.
var wpInitial = []versionWeight{
	{"4.9", 50}, {"4.8", 12}, {"4.7", 10}, {"4.6", 5}, {"4.5", 4},
	{"4.0", 4}, {"3.7", 3},
}

// tailLibNames is the long-tail library pool (with the top 15 this makes 79
// distinct libraries, the count of Section 5).
var tailLibNames = []string{
	"lodash", "react", "vue", "angularjs", "backbone", "ember", "knockout",
	"d3", "three", "chart", "highcharts", "axios", "slick-carousel",
	"owl-carousel", "lazysizes", "fancybox", "waypoints", "gsap", "velocity",
	"hammer", "masonry", "flickity", "select2", "datatables", "dropzone",
	"clipboard", "sweetalert", "toastr", "typed", "particles", "aos", "wow",
	"scrollreveal", "swiper", "lightbox", "magnific-popup", "colorbox",
	"bxslider", "flexslider", "nivo-slider", "superfish", "fitvids",
	"matchheight", "imagesloaded", "infinite-scroll", "headroom", "sticky",
	"countup", "countdown", "parallax", "skrollr", "enquire", "respond",
	"html5shiv", "es5-shim", "promise-polyfill", "fetch-polyfill",
	"intersection-observer", "web-animations", "dayjs", "date-fns", "numeral",
	"accounting", "validator",
}

// pctStatic is the fraction of sites with no JavaScript at all; with the
// remaining sites' library draws this lands overall JS usage at the
// paper's 94.7 %.
const pctStatic = 0.053

// pctWordPress matches Figure 9 (26.9 % of sites are WordPress).
const pctWordPress = 0.269

// pctWPManagedJQuery is the share of WordPress sites whose jQuery (and
// jQuery-Migrate) come from WordPress core bundling rather than a theme's
// own pinned copy.
const pctWPManagedJQuery = 0.55

// pctWPMigrateTheme is the share of WordPress sites whose theme output
// includes the bundled jQuery-Migrate when core ships it.
const pctWPMigrateTheme = 0.72

// newSite draws a complete site profile. All randomness is derived from
// (cfg.Seed, rank) so profiles are independent of generation order.
func newSite(cfg Config, dom alexa.Domain) *Site {
	seed := mix(cfg.Seed, int64(dom.Rank))
	rng := newStream(seed)
	s := &Site{Domain: dom, seed: seed, DeadFromWeek: -1}

	s.genAccessibility(cfg, rng)
	s.Static = rng.Float64() < pctStatic

	// Resource-type flags (Figure 2b targets).
	s.UsesCSS = rng.Float64() < 0.884
	s.UsesFavicon = rng.Float64() < 0.550
	// PHP-generated client-side resources imply a dynamic site, so
	// imported-HTML never appears on static (no-JS) sites.
	s.UsesImportedHTML = !s.Static && rng.Float64() < 0.318/(1-pctStatic)
	s.UsesXML = rng.Float64() < 0.256
	s.UsesSVG = rng.Float64() < 0.020
	s.UsesAXD = rng.Float64() < 0.008

	if s.Static {
		return s
	}
	s.CustomJS = rng.Float64() < 0.92

	s.genWordPress(cfg, rng)
	s.genLibraries(cfg, rng)
	s.genTail(rng)
	s.genFlash(cfg, rng)
	// Last and from its own RNG stream: the bundle profile must not shift
	// any draw above, or plain ecosystems would change shape.
	s.genBundle(cfg)
	return s
}

func (s *Site) genAccessibility(cfg Config, rng *rand.Rand) {
	// Death: ~22 % of domains disappear at a uniformly random week; lower
	// ranks are slightly more fragile.
	rankFrac := float64(s.Domain.Rank) / float64(cfg.Domains)
	pDead := 0.16 + 0.12*rankFrac
	if rng.Float64() < pDead {
		s.DeadFromWeek = rng.Intn(cfg.Weeks)
	}
	// Transient instability: a quarter of sites are flaky.
	if rng.Float64() < 0.25 {
		s.TransientFailP = 0.10 + 0.35*rng.Float64()
	} else {
		s.TransientFailP = 0.02 * rng.Float64()
	}
	s.AntiBot = rng.Float64() < 0.03
}

func (s *Site) genWordPress(cfg Config, rng *rand.Rand) {
	if rng.Float64() >= pctWordPress {
		return
	}
	s.WordPress = true
	s.WPInitial = semver.MustParse(pickWeighted(rng, wpInitial))
	switch x := rng.Float64(); {
	case x < 0.50:
		s.WPPolicy = PolicyAuto
		s.WPDelayDays = 7 + rng.Intn(49)
	case x < 0.80:
		s.WPPolicy = PolicyManual
		s.WPDelayDays = lognormalDays(rng, 380, 0.6)
	default:
		s.WPPolicy = PolicyFrozen
	}
	s.WPHasMigrate = rng.Float64() < pctWPMigrateTheme
}

func (s *Site) genLibraries(cfg Config, rng *rand.Rand) {
	wpManagedJQ := s.WordPress && rng.Float64() < pctWPManagedJQuery
	for _, c := range calib {
		use, ok := s.drawLibUse(cfg, rng, c, wpManagedJQ)
		if !ok {
			continue
		}
		s.Libs = append(s.Libs, use)
	}
}

// adjUsage compensates the ever-used probability for mid-study adoption and
// drops so the *time-averaged* usage lands on the Table 1 target.
func adjUsage(c libCalib) float64 {
	adj := c.usage / (1 - (c.adoptDuring+c.dropDuring)/2)
	if adj > 1 {
		adj = 1
	}
	return adj
}

// drawLibUse decides whether the site uses library c and builds the use.
func (s *Site) drawLibUse(cfg Config, rng *rand.Rand, c libCalib, wpManagedJQ bool) (LibUse, bool) {
	nonStatic := 1 - pctStatic
	usage := adjUsage(c)
	switch c.slug {
	case "jquery":
		if s.WordPress {
			return s.buildLibUse(cfg, rng, c, wpManagedJQ), true
		}
		// Solve total usage: WP share contributes pctWordPress of all
		// sites; the rest comes from non-WP sites.
		p := (usage - pctWordPress) / (nonStatic - pctWordPress)
		if rng.Float64() >= p {
			return LibUse{}, false
		}
		return s.buildLibUse(cfg, rng, c, false), true
	case "jquery-migrate":
		// WordPress core ships jQuery-Migrate independent of whether the
		// theme pins its own jQuery, so bundled Migrate is drawn for any
		// WP site whose theme renders it.
		if s.WordPress && s.WPHasMigrate {
			use := s.buildLibUse(cfg, rng, c, true)
			return use, true
		}
		if !s.hasLib("jquery") {
			return LibUse{}, false
		}
		if rng.Float64() >= usage/nonStatic {
			return LibUse{}, false
		}
		return s.buildLibUse(cfg, rng, c, false), true
	case "jquery-ui", "jquery-cookie":
		// jQuery plugins require jQuery.
		if !s.hasLib("jquery") {
			return LibUse{}, false
		}
		if rng.Float64() >= usage/(nonStatic*0.64) {
			return LibUse{}, false
		}
		return s.buildLibUse(cfg, rng, c, false), true
	default:
		if rng.Float64() >= usage/nonStatic {
			return LibUse{}, false
		}
		return s.buildLibUse(cfg, rng, c, false), true
	}
}

func (s *Site) hasLib(slug string) bool {
	for _, l := range s.Libs {
		if l.Slug == slug {
			return true
		}
	}
	return false
}

func (s *Site) buildLibUse(cfg Config, rng *rand.Rand, c libCalib, managedByWP bool) LibUse {
	use := LibUse{Slug: c.slug, DropWeek: -1, ManagedByWP: managedByWP}

	// Usage trend: late adoption / mid-study drop (Figure 3 shapes).
	if rng.Float64() < c.adoptDuring {
		use.AdoptWeek = 1 + rng.Intn(cfg.Weeks-1)
	}
	if rng.Float64() < c.dropDuring {
		lo := use.AdoptWeek + 1
		if lo < cfg.Weeks {
			use.DropWeek = lo + rng.Intn(cfg.Weeks-lo)
		}
	}
	// jQuery-Cookie → JS-Cookie migration (Section 6.3: 39 % migrated).
	if c.slug == "jquery-cookie" && use.DropWeek >= 0 && rng.Float64() < 0.39 {
		use.SwitchTo = "js-cookie"
	}

	// Policy.
	switch x := rng.Float64(); {
	case x < c.frozen:
		use.Policy = PolicyFrozen
	case x < c.frozen+c.manual:
		use.Policy = PolicyManual
		// The delay scale lands the measured mean window of vulnerability
		// near the paper's 531.2 days (Section 7).
		use.DelayDays = lognormalDays(rng, 640, 0.6)
		use.MajorPinned = rng.Float64() < c.majorPin
		use.Regress = rng.Float64() < 0.06
	default:
		use.Policy = PolicyAuto
		use.DelayDays = 7 + rng.Intn(53)
	}

	// Initial version.
	use.Initial = s.pickInitialVersion(rng, c, use.AdoptWeek)

	// Inclusion type and host. WordPress-managed copies are mostly served
	// from the site itself, but wp.com-connected sites (Jetpack) load them
	// from the c0.wp.com platform CDN — the reason wp.com tops Table 5 for
	// jQuery-Migrate.
	switch {
	case managedByWP:
		if rng.Float64() < 0.12 {
			use.External = true
			use.Host = "c0.wp.com"
		}
	case rng.Float64() < c.external:
		use.External = true
		use.Host = pickHost(rng, c)
	}
	// SRI and crossorigin hygiene (Section 6.5): integrity is rare enough
	// that 99.7 % of sites keep at least one uncovered external library.
	if use.External && use.Host != "c0.wp.com" {
		if use.SRI = rng.Float64() < 0.012; use.SRI {
			switch x := rng.Float64(); {
			case x < 0.971:
				use.Crossorigin = "anonymous"
			case x < 0.990:
				use.Crossorigin = "use-credentials"
			}
		}
	}
	return use
}

// pickInitialVersion draws the version in use at adoption. Sites adopting
// mid-study start near the then-latest release; sites present from the
// start draw from the calibrated popularity table.
func (s *Site) pickInitialVersion(rng *rand.Rand, c libCalib, adoptWeek int) semver.Version {
	x := catalogIndexes[c.slug]
	if x == nil || len(x.versions) == 0 {
		return semver.Version{}
	}
	if adoptWeek > 0 {
		// Late adopter: latest or one of the few preceding releases.
		out := x.all.count(WeekDate(adoptWeek).Unix())
		if out == 0 {
			return x.versions[0]
		}
		if rng.Intn(3) == 0 {
			// The newest release out by the adoption date.
			return x.versions[x.all.best[out-1]]
		}
		// Pick one of the last releases out, in catalog order, instead.
		return x.versions[x.latest[out-1][rng.Intn(minInt(out, lateChoices))]]
	}
	// From-start site: weighted table plus uniform spread.
	total := c.spreadWeight
	for _, vw := range c.initial {
		total += vw.w
	}
	r := rng.Intn(total)
	for _, vw := range c.initial {
		if r < vw.w {
			return semver.MustParse(vw.v)
		}
		r -= vw.w
	}
	// Spread: uniform over pre-study releases.
	if len(x.preStudy) == 0 {
		return x.versions[0]
	}
	return x.versions[x.preStudy[rng.Intn(len(x.preStudy))]]
}

func pickHost(rng *rand.Rand, c libCalib) string {
	if rng.Float64() < c.cdnShare {
		hws := cdn.HostsForLibrary[c.slug]
		if len(hws) > 0 {
			total := 0
			for _, hw := range hws {
				total += hw.Weight
			}
			x := rng.Intn(total)
			for _, hw := range hws {
				if x < hw.Weight {
					return hw.Host
				}
				x -= hw.Weight
			}
		}
		return "cdnjs.cloudflare.com"
	}
	// Non-CDN external: mostly arbitrary third-party hosts, a sliver of
	// version-control pages hosting (Section 6.5: ~0.2 % of sites).
	if rng.Float64() < 0.05 {
		repo := cdn.GitHubRepos[rng.Intn(len(cdn.GitHubRepos))]
		return repo + ".github.io"
	}
	return "static.thirdparty-host.net"
}

func (s *Site) genTail(rng *rand.Rand) {
	for i, name := range tailLibNames {
		p := 0.12 * math.Pow(0.93, float64(i))
		if rng.Float64() >= p {
			continue
		}
		ver := pickTailVersion(rng)
		s.Tail = append(s.Tail, TailLib{Name: name, Version: ver})
	}
}

func pickTailVersion(rng *rand.Rand) string {
	major := 1 + rng.Intn(4)
	minor := rng.Intn(12)
	patch := rng.Intn(9)
	return itoa(major) + "." + itoa(minor) + "." + itoa(patch)
}

func (s *Site) genFlash(cfg Config, rng *rand.Rand) {
	// Base rate ≈ 1 % of the 1M (Figure 8: 9,880 sites at the start), with
	// top-ranked sites using less Flash and Chinese-operated sites more
	// (the Section 8 case study).
	p := 0.0099
	if s.Domain.Rank <= cfg.Domains/100 {
		p *= 0.45 // top 1 % band
	}
	if s.Domain.Country == "CN" {
		p *= 3.0
	}
	if rng.Float64() >= p {
		return
	}
	f := &FlashUse{DropWeek: -1, Visible: rng.Float64() < 0.5}
	// Decline: ~57 % drop before the EOL (Dec 2020, ~week 143), another
	// ~11 % between EOL and the end; Chinese sites hold on longer. Studies
	// shorter than the EOL week compress the windows proportionally.
	eolWeek := 143
	if eolWeek > cfg.Weeks {
		eolWeek = cfg.Weeks
	}
	keepBias := 1.0
	if s.Domain.Country == "CN" {
		keepBias = 2.2
	}
	switch x := rng.Float64() * keepBias; {
	case x < 0.57:
		f.DropWeek = rng.Intn(eolWeek)
	case x < 0.68 && cfg.Weeks > eolWeek:
		f.DropWeek = eolWeek + rng.Intn(cfg.Weeks-eolWeek)
	}
	// AllowScriptAccess: about half the embeds set the parameter; the
	// "always" misconfiguration concentrates among sites that never clean
	// up their Flash (Figure 11's rising insecure share).
	f.ScriptAccessParam = rng.Float64() < 0.55
	if f.ScriptAccessParam {
		pAlways := 0.52
		if f.DropWeek >= 0 {
			pAlways = 0.40
		}
		f.Always = rng.Float64() < pAlways
	}
	f.ViaSWFObject = s.hasLib("swfobject") || rng.Float64() < 0.20
	if f.ViaSWFObject {
		// Script-driven embeds render into a live slot; the invisible
		// leftovers of Section 8 are static markup.
		f.Visible = true
	}
	s.Flash = f
}

// pickWeighted draws from a weight table.
func pickWeighted(rng *rand.Rand, table []versionWeight) string {
	total := 0
	for _, vw := range table {
		total += vw.w
	}
	x := rng.Intn(total)
	for _, vw := range table {
		if x < vw.w {
			return vw.v
		}
		x -= vw.w
	}
	return table[0].v
}

// lognormalDays draws a log-normal day count with the given mean and sigma
// (of the underlying normal).
func lognormalDays(rng *rand.Rand, mean float64, sigma float64) int {
	// mean of lognormal = exp(mu + sigma^2/2)  =>  mu = ln(mean) - s^2/2.
	mu := math.Log(mean) - sigma*sigma/2
	v := math.Exp(mu + sigma*rng.NormFloat64())
	if v < 1 {
		v = 1
	}
	return int(v)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
