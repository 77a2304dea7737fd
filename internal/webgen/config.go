// Package webgen generates the synthetic web ecosystem the study crawls.
//
// The paper measured the live Alexa Top-1M weekly for four years; that
// history cannot be re-crawled, so webgen substitutes a deterministic,
// calibrated model: every site gets a profile (platform, update policy,
// library portfolio, Flash usage, SRI hygiene, accessibility), and the
// weekly state of each site resolves to a concrete set of resources whose
// versions move through time exactly the way the paper observed aggregate
// behaviour move — dominant frozen versions, slow manual updaters, and the
// WordPress auto-update fleet that produces the Figure 7 jumps.
//
// Two independent outputs exist for every (site, week): rendered HTML (what
// the crawler fetches and the fingerprint engine parses) and ground truth
// (what the generator knows it put there). The pipeline is validated by
// checking that detection over the former recovers the latter.
package webgen

import (
	"time"

	"clientres/internal/alexa"
)

// StudyWeeks is the number of weekly snapshots of the paper's dataset
// (207 collected minus 6 pruned).
const StudyWeeks = 201

// studyStart is the first crawl Monday (the paper started Mar 2018).
var studyStart = time.Date(2018, time.March, 5, 0, 0, 0, 0, time.UTC)

// WeekDate returns the date of snapshot week w (0-based).
func WeekDate(w int) time.Time { return studyStart.AddDate(0, 0, 7*w) }

// WeekOf returns the snapshot week index containing t, which may be negative
// (before the study) or beyond the last week.
func WeekOf(t time.Time) int {
	return int(t.Sub(studyStart) / (7 * 24 * time.Hour))
}

// Config parameterizes ecosystem generation.
type Config struct {
	// Domains is the number of ranked domains to model. The paper used 1M;
	// analyses here default to a scaled-down population.
	Domains int
	// Weeks is the number of weekly snapshots (default StudyWeeks).
	Weeks int
	// Seed drives all randomness; equal seeds give identical ecosystems.
	Seed int64
	// Bundling parameterizes the seed-driven bundler mode (see bundle.go).
	// The zero value disables it, and a disabled bundler perturbs nothing:
	// bundle profiles draw from their own derived RNG stream, so plain
	// ecosystems render byte-identical with or without this field compiled
	// in (pinned by the golden-hash regression test).
	Bundling Bundling
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Domains == 0 {
		c.Domains = 10000
	}
	if c.Weeks == 0 {
		c.Weeks = StudyWeeks
	}
	return c
}

// Ecosystem is a fully-generated population of sites.
type Ecosystem struct {
	Cfg   Config
	List  alexa.List
	Sites []*Site
}

// New generates the ecosystem for cfg. Generation cost is O(Domains); the
// weekly states are resolved lazily per (site, week).
func New(cfg Config) *Ecosystem {
	cfg = cfg.withDefaults()
	list := alexa.Generate(cfg.Domains, cfg.Seed)
	e := &Ecosystem{Cfg: cfg, List: list, Sites: make([]*Site, cfg.Domains)}
	for i := range e.Sites {
		e.Sites[i] = newSite(cfg, list.Domains[i])
	}
	return e
}

// mix folds integers into a well-spread 64-bit seed (splitmix64 finalizer).
func mix(vals ...int64) int64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, v := range vals {
		h ^= uint64(v)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h)
}
