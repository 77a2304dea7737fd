// Package clientres reproduces the measurement system of "A Longitudinal
// Study of Vulnerable Client-side Resources and Web Developers' Updating
// Behaviors" (IMC 2023): a weekly landing-page crawler, a Wappalyzer-style
// resource/version fingerprinter, a CVE/TVV vulnerability database, the PoC
// version-validation experiment, and every analysis of the paper's
// evaluation — backed by a calibrated synthetic web ecosystem standing in
// for the unobtainable four-year Alexa-1M crawl (see DESIGN.md).
//
// The entry points cover the common uses:
//
//   - Run executes the full study (generate → collect → analyze) and
//     returns Results whose WriteReport regenerates every table and figure
//     of the paper.
//   - AuditPage fingerprints a single HTML document and reports the
//     vulnerable libraries on it (the Retire.js-style use); EvalPolicy
//     gates that audit with a compiled Policy.
//   - Serve runs the same audit as a long-running HTTP API (cmd/serve's
//     engine): cached, rate-limited, backpressured, gracefully draining.
//   - ValidateCVEs runs the PoC version-validation experiment alone and
//     reports which CVEs understate or overstate their affected versions.
//
// Writing and replaying stores, and the distributed crawl plane, are the
// commands' jobs (cmd/gendata, cmd/crawl, cmd/analyze, cmd/coordinator,
// cmd/worker), not the facade's.
package clientres

import (
	"context"
	"io"
	"runtime"
	"time"

	"clientres/internal/core"
	"clientres/internal/poclab"
	"clientres/internal/policy"
	"clientres/internal/report"
	"clientres/internal/service"
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
	// RecordBundle, when set (with Crawl), archives every fetched response
	// — landing pages and same-site scripts, raw bytes plus headers,
	// status, and timing — into a web-execution bundle at this directory,
	// which `crawl -replay` re-runs offline. Reports are byte-identical
	// with recording on or off.
	RecordBundle string
	// Progress receives one line per collected week, when set.
	Progress func(format string, args ...any)
}

// Results exposes everything a run produced. The embedded collectors carry
// the full per-week aggregates; WriteReport renders the paper's tables and
// figures; Headline summarizes the flagship numbers.
type Results struct {
	inner *core.Results
}

// Run executes the study described by cfg, its analyses sharded across
// GOMAXPROCS domain-hash partitions (every shard count reports the same
// bytes).
func Run(ctx context.Context, cfg Config) (*Results, error) {
	mode := core.ModeDirect
	if cfg.Crawl {
		mode = core.ModeCrawl
	}
	inner, err := core.Run(ctx, core.Config{
		Domains: cfg.Domains, Weeks: cfg.Weeks, Seed: cfg.Seed,
		Bundling:   webgen.DefaultBundling(cfg.BundleFraction),
		BundleScan: cfg.BundleScan,
		Mode:       mode, Workers: cfg.Workers, Shards: runtime.GOMAXPROCS(0),
		RecordBundle: cfg.RecordBundle,
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
type Summary = report.Summary

// Headline computes the summary.
func (r *Results) Headline() Summary { return report.Summarize(r.inner.Study()) }

// Collectors exposes the underlying analysis collectors for advanced use
// within this module.
func (r *Results) Collectors() *core.Results { return r.inner }

// AuditReport is the result of auditing one page: the detected library
// inclusions, the advisories matching their versions under the validated
// (TVV) ranges plus CVE-range-only matches flagged PerCVEOnly, and the SRI
// and Flash hygiene problems. It is the audit service's response, the
// JSON body of POST /v1/audit.
type AuditReport = service.AuditResponse

// AuditLibrary is one detected library inclusion on an audited page.
type AuditLibrary = service.AuditLibrary

// AuditFinding is one vulnerable library found on an audited page.
type AuditFinding = service.AuditFinding

// AuditPage fingerprints one HTML document fetched from pageHost and
// reports vulnerable libraries and hygiene problems — the single-page
// scanner the paper's methodology implies. It is the service's audit with
// no clock, so no finding carries PatchAvailableDays.
func AuditPage(html, pageHost string) AuditReport {
	return service.Audit(html, pageHost, time.Time{})
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
var WeekDate = webgen.WeekDate

// WeekOf returns the snapshot week containing t, the inverse of WeekDate;
// it is negative before the study and past its last week after it.
var WeekOf = webgen.WeekOf
