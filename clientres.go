// Package clientres reproduces the measurement system of "A Longitudinal
// Study of Vulnerable Client-side Resources and Web Developers' Updating
// Behaviors" (IMC 2023): a weekly landing-page crawler, a Wappalyzer-style
// resource/version fingerprinter, a CVE/TVV vulnerability database, the PoC
// version-validation experiment, and every analysis of the paper's
// evaluation — backed by a calibrated synthetic web ecosystem standing in
// for the unobtainable four-year Alexa-1M crawl (see DESIGN.md).
//
// Three entry points cover the common uses:
//
//   - Run executes the full study (generate → collect → analyze → validate)
//     and returns Results whose WriteReport regenerates every table and
//     figure of the paper.
//   - AuditPage fingerprints a single HTML document and reports the
//     vulnerable libraries on it (the Retire.js-style use).
//   - Serve runs the same audit as a long-running HTTP API (cmd/serve's
//     engine): cached, rate-limited, backpressured, gracefully draining.
//   - ValidateCVEs runs the PoC version-validation experiment alone and
//     reports which CVEs understate or overstate their affected versions.
package clientres

import (
	"context"
	"io"
	"time"

	"clientres/internal/analysis"
	"clientres/internal/core"
	"clientres/internal/crawler"
	"clientres/internal/distcrawl"
	"clientres/internal/poclab"
	"clientres/internal/policy"
	"clientres/internal/service"
	"clientres/internal/vulndb"
	"clientres/internal/webgen"
)

// Config parameterizes a study run.
type Config struct {
	// Domains is the size of the modeled ranked population (default 2000;
	// the paper used 1M).
	Domains int
	// Weeks is the number of weekly snapshots (default 201, the paper's
	// pruned four-year collection).
	Weeks int
	// Seed makes the run deterministic.
	Seed int64
	// Crawl switches from direct ground-truth collection to the real
	// pipeline: a loopback HTTP server, the concurrent crawler, and the
	// fingerprint engine.
	Crawl bool
	// Workers bounds crawl concurrency.
	Workers int
	// PoliteCrawl enables the crawl path's per-host resilience layer —
	// politeness limiter, circuit breaker, weekly retry budget — with
	// default settings. Reports are byte-identical with it on or off; the
	// layer changes how failures cost, not what gets observed.
	PoliteCrawl bool
	// BundleFraction is the fraction of eligible generated sites that ship
	// their libraries as one bundled script with minified identifiers
	// (0 disables, preserving the historical population byte-for-byte).
	// Bundles hide library URLs from the fingerprinter — the blind spot
	// BundleScan measures and closes.
	BundleFraction float64
	// BundleScan makes the crawl path fetch each page's same-site scripts
	// and scan their content for library signatures, recovering bundled
	// libraries. Plain pages detect identically with it on or off.
	BundleScan bool
	// Shards parallelizes the analysis pipeline across domain-hash
	// partitions (default 1 = serial). Sharded runs produce byte-identical
	// reports to serial runs of the same configuration.
	Shards int
	// StorePath, when set, persists observations to a store directory at
	// that path: delta-encoded, checksummed gzip segment files plus a
	// manifest that only a run that ended cleanly writes — a failed or
	// cancelled run leaves a directory readers refuse and `fsck -repair`
	// salvages.
	StorePath string
	// StoreSegments is the number of segment files (0 or 1: one); their
	// writes and replays parallelize. Every count replays to
	// byte-identical reports; segment partition matches the Shards
	// partition, so a replay with shards == segments decodes every segment
	// concurrently straight into its shard's collectors.
	StoreSegments int
	// RecordBundle, when set (with Crawl), archives every fetched response
	// — landing pages and same-site scripts, raw bytes plus headers,
	// status, and timing — into a web-execution bundle at this directory.
	// Reports are byte-identical with recording on or off.
	RecordBundle string
	// ReplayBundle, when set (with Crawl), re-runs the crawl from a
	// recorded bundle with zero network and zero waiting: no listener is
	// opened, the crawler's transport serves only archived responses, read
	// forward a week at a time, retries sleep no backoff, and PoliteCrawl is
	// ignored — the bundle already holds what the resilience layer decided
	// live. The study is the recorded one: Domains, Weeks, Seed and
	// BundleScan left zero take the bundle's values, and one set to another
	// value is refused. A replayed run's report is byte-identical to the
	// live run that recorded the bundle.
	ReplayBundle string
	// Progress receives one line per collected week, when set.
	Progress func(format string, args ...any)
}

// Results exposes everything a run produced. The embedded collectors carry
// the full per-week aggregates; WriteReport renders the paper's tables and
// figures; Headline summarizes the flagship numbers.
type Results struct {
	inner *core.Results
}

// Run executes the study described by cfg.
func Run(ctx context.Context, cfg Config) (*Results, error) {
	mode := core.ModeDirect
	if cfg.Crawl {
		mode = core.ModeCrawl
	}
	inner, err := core.Run(ctx, core.Config{
		Domains: cfg.Domains, Weeks: cfg.Weeks, Seed: cfg.Seed,
		Bundling:   webgen.DefaultBundling(cfg.BundleFraction),
		BundleScan: cfg.BundleScan,
		Mode:       mode, Workers: cfg.Workers, Shards: cfg.Shards,
		Resilience: crawler.Resilience{Enabled: cfg.PoliteCrawl},
		StorePath:  cfg.StorePath, StoreSegments: cfg.StoreSegments,
		RecordBundle: cfg.RecordBundle,
		ReplayBundle: cfg.ReplayBundle,
		Progress:     cfg.Progress,
	})
	if err != nil {
		return nil, err
	}
	return &Results{inner: inner}, nil
}

// WriteReport renders every table and figure of the paper's evaluation.
func (r *Results) WriteReport(w io.Writer) { r.inner.WriteReport(w) }

// Summary carries the paper's headline findings as measured on this run.
type Summary struct {
	// MeanCollected is the average number of usable pages per week.
	MeanCollected float64
	// VulnerableShareCVE / VulnerableShareTVV are the average shares of
	// sites carrying ≥1 known vulnerability under the CVE-disclosed and
	// true vulnerable-version ranges (paper: 41.2 % / 43.2 %).
	VulnerableShareCVE, VulnerableShareTVV float64
	// MeanVulnsPerPageCVE / TVV mirror Figure 12 (paper: 0.79 / 0.97).
	MeanVulnsPerPageCVE, MeanVulnsPerPageTVV float64
	// UpdateDelayDays is the mean window of vulnerability under CVE ranges
	// (paper: 531.2); UpdateDelayDaysTVV restricts to understated CVEs
	// under TVV ranges (paper: 701.2).
	UpdateDelayDays, UpdateDelayDaysTVV float64
	// UpdatedSites is the number of closed update windows (paper: 25,337).
	UpdatedSites int
	// MissingSRIShare is the share of external-library sites with ≥1
	// uncovered inclusion (paper: 99.7 %).
	MissingSRIShare float64
	// FlashPostEOL is the mean weekly count of Flash sites after Jan 2021
	// (paper: 3,553 of 1M).
	FlashPostEOL float64
	// InsecureFlashShare is the AllowScriptAccess="always" share among
	// Flash sites (paper: 24.7 %).
	InsecureFlashShare float64
	// WordPressShare mirrors Figure 9 (paper: 26.9 %).
	WordPressShare float64
	// IncorrectCVEs counts advisories whose PoC-validated range disagrees
	// with the disclosed range (paper: 13 of 27).
	IncorrectCVEs, TotalCVEs int
}

// Headline computes the summary.
func (r *Results) Headline() Summary {
	in := r.inner
	cve := in.Delay.Result(false, false)
	tvv := in.Delay.Result(true, true)
	s := Summary{
		MeanCollected:       in.Coll.MeanCollected(),
		VulnerableShareCVE:  in.Vuln.MeanVulnerableShare(false),
		VulnerableShareTVV:  in.Vuln.MeanVulnerableShare(true),
		MeanVulnsPerPageCVE: in.Vuln.MeanVulnsPerSite(false),
		MeanVulnsPerPageTVV: in.Vuln.MeanVulnsPerSite(true),
		UpdateDelayDays:     cve.MeanDays,
		UpdateDelayDaysTVV:  tvv.MeanDays,
		UpdatedSites:        cve.Updated,
		MissingSRIShare:     in.SRI.MissingSRIShare(),
		FlashPostEOL:        in.Flash.MeanPostEOL(),
		InsecureFlashShare:  in.Flash.MeanInsecureShare(),
		WordPressShare:      in.WordPress.MeanShare(),
		TotalCVEs:           len(in.Findings),
	}
	for _, f := range in.Findings {
		if f.Accuracy != vulndb.Accurate {
			s.IncorrectCVEs++
		}
	}
	return s
}

// Collectors exposes the underlying analysis collectors for advanced use
// within this module.
func (r *Results) Collectors() *core.Results { return r.inner }

// AuditFinding is one vulnerable library found on an audited page.
type AuditFinding struct {
	Library    string // canonical slug
	Version    string // detected version ("" when the URL carries none)
	Advisory   string // CVE or advisory ID
	Attack     string
	FixedIn    string // patched version ("" when unpatched)
	Disclosed  string // YYYY-MM-DD
	PerCVEOnly bool   // true when only the (possibly inaccurate) CVE range matches, not the validated TVV
}

// AuditReport is the result of auditing one page.
type AuditReport struct {
	// Libraries lists every detected library inclusion (slug@version).
	Libraries []string
	// Findings lists the matched vulnerabilities under the validated
	// (TVV) ranges, plus CVE-range-only matches flagged PerCVEOnly.
	Findings []AuditFinding
	// MissingSRI counts external inclusions without an integrity
	// attribute; UsesFlash flags Flash embeds; InsecureFlash flags
	// AllowScriptAccess="always".
	MissingSRI    int
	UsesFlash     bool
	InsecureFlash bool
}

// AuditPage fingerprints one HTML document fetched from pageHost and
// reports vulnerable libraries and hygiene problems — the single-page
// scanner the paper's methodology implies. It is the service's audit
// (service.Audit) with its fields projected onto AuditReport.
func AuditPage(html, pageHost string) AuditReport {
	resp := service.Audit(html, pageHost, time.Time{})
	rep := AuditReport{MissingSRI: resp.MissingSRI, UsesFlash: resp.UsesFlash, InsecureFlash: resp.InsecureFlash}
	for _, l := range resp.Libraries {
		label := l.Slug
		if l.Version != "" {
			label += "@" + l.Version
		}
		rep.Libraries = append(rep.Libraries, label)
	}
	for _, f := range resp.Findings {
		rep.Findings = append(rep.Findings, AuditFinding{
			Library: f.Library, Version: f.Version,
			Advisory: f.Advisory, Attack: f.Attack,
			FixedIn: f.FixedIn, Disclosed: f.Disclosed,
			PerCVEOnly: f.PerCVEOnly,
		})
	}
	return rep
}

// Policy is a compiled audit policy: a list of declarative rules
// ("fail if any high-severity CVE has been public for over 90 days")
// evaluated against audit results. See DESIGN.md §14 for the language.
type Policy = policy.Policy

// PolicyVerdict is the result of evaluating a Policy against one page:
// per-rule outcomes plus the worst overall ("pass" | "warn" | "fail").
type PolicyVerdict = policy.Verdict

// PolicyRuleVerdict is one rule's outcome within a PolicyVerdict.
type PolicyRuleVerdict = policy.RuleVerdict

// CompilePolicy compiles YAML or JSON policy source. Compilation
// type-checks every rule expression; evaluation cannot fail at runtime.
func CompilePolicy(src []byte) (*Policy, error) { return policy.Compile(src) }

// EvalPolicy audits html served from pageHost and evaluates pol against
// the result as of now (zero now means the current time). This is the
// in-process form of the service's policy gate: for the same page, host,
// policy, and clock it produces exactly the verdict POST /v1/audit or
// the batch endpoint would return.
func EvalPolicy(pol *Policy, html, pageHost string, now time.Time) PolicyVerdict {
	if now.IsZero() {
		now = time.Now()
	}
	resp := service.Audit(html, pageHost, now)
	return pol.Eval(resp.PolicyDoc(now))
}

// ServeConfig parameterizes the online audit service.
type ServeConfig struct {
	// Addr is the listen address (":8080"; ":0" picks an ephemeral port).
	Addr string
	// Workers bounds concurrent audits; QueueDepth bounds waiting ones —
	// beyond it the service sheds with 503 + Retry-After.
	Workers, QueueDepth int
	// CacheEntries bounds the content-hash response cache (negative
	// disables); RatePerSec/Burst shape the per-client token bucket
	// (RatePerSec 0 disables).
	CacheEntries int
	RatePerSec   float64
	Burst        int
}

// Serve runs the online vulnerability-audit API — POST /v1/audit,
// GET /v1/libraries, GET /v1/vulns/{lib}, /healthz, /metrics — until ctx
// is cancelled, then drains in-flight audits and returns. It is the
// library form of cmd/serve (which adds flags, logging, and URL-mode
// fetching through the resilient crawler).
func Serve(ctx context.Context, cfg ServeConfig) error {
	srv := service.New(service.Config{
		Workers: cfg.Workers, QueueDepth: cfg.QueueDepth,
		CacheEntries: cfg.CacheEntries,
		RatePerSec:   cfg.RatePerSec, Burst: cfg.Burst,
	})
	return srv.ListenAndServe(ctx, cfg.Addr, nil)
}

// DistSpec parameterizes a distributed crawl run — the coordinator/worker
// plane that shards the study's domains across processes by the same
// FNV-1a hash as Shards, recovers dead workers via lease expiry and
// reassignment, and merges the workers' generation stores into Results
// byte-identical to a serial Run of the same configuration. See
// internal/distcrawl and DESIGN.md §16.
type DistSpec = distcrawl.RunSpec

// DistCoordinator is the distributed plane's control point: it owns the
// frontier, leases partitions, fences zombies by epoch, and persists
// assignment state atomically so a restart rehydrates the run.
type DistCoordinator = distcrawl.Coordinator

// DistWorker crawls leased partitions against a coordinator, writing one
// checkpointed generation store per lease epoch.
type DistWorker = distcrawl.Worker

// NewDistCoordinator creates (or rehydrates, when spec.Dir holds a prior
// run's state) a distributed-crawl coordinator.
func NewDistCoordinator(spec DistSpec) (*DistCoordinator, error) {
	return distcrawl.NewCoordinator(spec)
}

// MergeDistRun merges a distributed run's accepted spans into Results —
// sealing any generation its worker never closed — exactly as the
// coordinator's own post-run merge does.
func MergeDistRun(spec DistSpec, spans []distcrawl.Span) (*Results, error) {
	inner, err := distcrawl.Merge(spec, spans, distcrawl.MergeOptions{})
	if err != nil {
		return nil, err
	}
	return &Results{inner: inner}, nil
}

// CVEFinding is one row of the version-validation experiment.
type CVEFinding struct {
	Advisory  string
	Library   string
	CVERange  string
	TrueRange string
	Accuracy  string // accurate | understated | overstated | mixed
}

// ValidateCVEs runs the PoC version-validation experiment (Section 6.4)
// and reports each advisory's accuracy classification.
func ValidateCVEs() ([]CVEFinding, error) {
	findings, err := poclab.RunAll()
	if err != nil {
		return nil, err
	}
	out := make([]CVEFinding, len(findings))
	for i, f := range findings {
		out[i] = CVEFinding{
			Advisory:  f.Advisory.ID,
			Library:   f.Advisory.Lib,
			CVERange:  f.Advisory.CVERange.String(),
			TrueRange: f.TVV.String(),
			Accuracy:  f.Accuracy.String(),
		}
	}
	return out, nil
}

// StudyWeeks is the paper's snapshot count (201 weekly snapshots,
// Mar 2018 – Feb 2022).
const StudyWeeks = webgen.StudyWeeks

// WeekDate returns the calendar date of snapshot week w.
var WeekDate = analysis.WeekDate
