// Package core orchestrates the full study pipeline: generate (or accept)
// a web population, collect weekly snapshots — either by actually crawling
// the synthetic web over HTTP and fingerprinting the pages, or directly
// from generator ground truth at scale — run every analysis of the paper,
// and run the PoC version-validation experiment.
package core

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"time"

	"clientres/internal/alexa"
	"clientres/internal/analysis"
	"clientres/internal/crawler"
	"clientres/internal/fingerprint"
	"clientres/internal/poclab"
	"clientres/internal/report"
	"clientres/internal/store"
	"clientres/internal/webgen"
	"clientres/internal/webserver"
	"clientres/internal/wexbundle"
)

// Mode selects how snapshots are collected.
type Mode int

// Collection modes.
const (
	// ModeDirect converts generator ground truth straight into
	// observations — the scale path (validated against ModeCrawl by the
	// pipeline-equivalence tests).
	ModeDirect Mode = iota
	// ModeCrawl serves the synthetic web over a local HTTP listener,
	// crawls every domain every week, and fingerprints the fetched pages —
	// the paper's real pipeline.
	ModeCrawl
)

// Config parameterizes a study run.
type Config struct {
	// Domains, Weeks, Seed parameterize the synthetic population.
	Domains, Weeks int
	Seed           int64
	// Bundling parameterizes the generated population's bundler adoption
	// (webgen.Bundling; the zero value generates no bundles, preserving
	// the historical population byte-for-byte).
	Bundling webgen.Bundling
	// BundleScan turns on bundle-aware fingerprinting (ModeCrawl): the
	// crawler additionally fetches each page's same-site scripts and the
	// fingerprint engine scans their bodies for content signatures,
	// recovering libraries whose <script> URLs carry no identity (bundles).
	// On pages whose URLs already tell the whole story the detection is
	// identical with the scan on or off.
	BundleScan bool
	// Mode selects crawl vs direct collection.
	Mode Mode
	// Workers bounds crawl concurrency (ModeCrawl; 0 = the crawler's
	// default, 64).
	Workers int
	// FetchTimeout bounds one whole page fetch — every attempt, backoff
	// sleep, and same-site script fetch of one (domain, week) — with a
	// context deadline (ModeCrawl; 0 disables). An expired fetch records
	// the usual Status-0 observation, so a hung host costs one deadline,
	// never a stalled crawl slot.
	FetchTimeout time.Duration
	// Resilience parameterizes the crawl path's per-host politeness
	// limiter, circuit breaker, and weekly retry budget (ModeCrawl; the
	// zero value disables the layer). On a fault-free ecosystem the layer
	// changes no observation: reports are byte-identical with it on or off
	// (proven by the resilience equivalence test). A replay (ReplayBundle)
	// ignores it: the bundle holds the outcome of every decision the layer
	// took live, and re-taking them at replay speed diverged from it.
	Resilience crawler.Resilience
	// ChaosRate, when positive, makes the loopback web server inject
	// deterministic faults — stalls, mid-body resets, truncated bodies,
	// slow-loris drips — into that fraction of (domain, week) responses
	// (ModeCrawl; a fault drill for the resilience layer).
	ChaosRate float64
	// ChaosSeed selects the fault schedule.
	ChaosSeed int64
	// Shards parallelizes the analysis pipeline (default 1 = serial).
	// Observations are partitioned across shards by domain hash; each
	// shard folds its partition into a private collector set, merged
	// after collection. A sharded run produces byte-identical report
	// output to a serial run of the same configuration (proven by the
	// shard equivalence tests).
	Shards int
	// StorePath, when set, persists every observation to a store
	// directory at that path: delta-encoded, checksummed segment files
	// plus a manifest that is written only when the run ends cleanly — a
	// failed or cancelled run leaves a directory every reader refuses and
	// `fsck -repair` salvages.
	StorePath string
	// StoreSegments is the number of segment files (0 or 1: one). Segments
	// partition by the same FNV-1a domain hash as Shards, so both writing
	// and replaying parallelize. Every count replays to byte-identical
	// reports.
	StoreSegments int
	// Checkpoint enables week-granular crash safety for the store: after
	// every completed week each segment is flushed, its gzip member
	// finished, and fsynced, and a checkpoint journal is committed
	// atomically, so a crash loses at most the week in flight and the run
	// can Resume. Requires StorePath. Checkpointing changes no observation:
	// a checkpointed run's report is byte-identical to an unjournaled one
	// (proven by the resume equivalence tests).
	Checkpoint bool
	// Resume restarts a crashed checkpointed run from its journal instead
	// of starting over (implies Checkpoint): the store's committed weeks
	// are verified against the checkpoint and replayed into the collectors,
	// any torn tail past the last commit is amputated, and collection
	// continues at the first incomplete week. The resumed run's report is
	// byte-identical to an uninterrupted run of the same configuration.
	Resume bool
	// RecordBundle, when set (ModeCrawl), archives every fetch — landing
	// page and same-site scripts, raw bytes, headers, status, timing —
	// into a web-execution bundle at this directory, sharing the store's
	// segment count, checkpoint cadence, and resume machinery: a killed
	// recording resumes without re-fetching committed weeks. Recording
	// changes no observation — a recorded run's report is byte-identical
	// to an unrecorded one.
	RecordBundle string
	// ReplayBundle, when set (ModeCrawl), replays the crawl from a
	// recorded bundle with zero network: no listener, no web server — the
	// crawler's transport is the bundle, read forward one week at a time,
	// and a fetch the bundle does not hold is an error, never a live
	// request. It also takes nothing from the clock: retries sleep no
	// backoff and Resilience is not mounted. The study is the recorded
	// one: Domains, Weeks, Seed and BundleScan left zero take the values of
	// the bundle's wexbundle.Meta, and one set to another value is refused
	// before anything is generated or created. A replayed run's report is
	// byte-identical to the live run that recorded it.
	ReplayBundle string
	// Progress, when set, receives one line per collected week.
	Progress func(format string, args ...any)
	// SkipPoC leaves Results.Findings empty, so the report carries no
	// version-validation findings. Otherwise they come from
	// poclab.Findings, the PoC lab's committed answer: no PoC runs either
	// way.
	SkipPoC bool
}

// RunID is the study cfg describes, as its store journals and seals it: a
// resume refuses a journal written under a different study, and analyze
// reads the shape back from the manifest. A population in which no site
// bundles is one study whatever the other bundler knobs say, so they are
// recorded only when Bundling.Fraction is positive.
func (cfg Config) RunID() store.RunID {
	id := store.RunID{Seed: cfg.Seed, Domains: cfg.Domains, Weeks: cfg.Weeks, Mode: int(cfg.Mode), BundleScan: cfg.BundleScan}
	if b := cfg.Bundling; b.Fraction > 0 {
		id.BundleFraction, id.BundleMinifyP, id.BundleBannerP, id.BundleSourceMapP = b.Fraction, b.MinifyP, b.BannerP, b.SourceMapP
	}
	return id
}

// Results bundles every collector plus the PoC findings after a run.
type Results struct {
	Eco       *webgen.Ecosystem
	Weeks     int
	Coll      *analysis.Collection
	Libs      *analysis.LibraryStats
	Vuln      *analysis.VulnPrevalence
	Delay     *analysis.UpdateDelay
	SRI       *analysis.SRI
	Flash     *analysis.Flash
	WordPress *analysis.WordPress
	Disc      *analysis.Discontinued
	// Regress measures update roll-backs (the Section 9 future-work
	// extension).
	Regress  *analysis.Regressions
	Findings []poclab.Finding
	// Crawl carries the crawler's resilience counters — attempts, retries,
	// connection failures, breaker trips/sheds, bytes, fetch latency
	// quantiles — after a ModeCrawl run, live or replayed; nil on the direct
	// and store-replay paths. It is diagnostic output, not report input: WriteReport never
	// reads it, which is what keeps crawl reports byte-comparable across
	// resilience configurations.
	Crawl *crawler.MetricsSnapshot
}

// newResults builds an empty collector set for a study shape.
func newResults(weeks, domains int) *Results {
	return &Results{
		Weeks:     weeks,
		Coll:      analysis.NewCollection(weeks),
		Libs:      analysis.NewLibraryStats(weeks),
		Vuln:      analysis.NewVulnPrevalence(weeks),
		Delay:     analysis.NewUpdateDelay(weeks),
		SRI:       analysis.NewSRI(weeks),
		Flash:     analysis.NewFlash(weeks, domains),
		WordPress: analysis.NewWordPress(weeks),
		Disc:      analysis.NewDiscontinued(weeks),
		Regress:   analysis.NewRegressions(weeks),
	}
}

// runner returns a Runner fanning observations to every collector of r.
func (r *Results) runner() *analysis.Runner {
	return analysis.NewRunner(r.Coll, r.Libs, r.Vuln, r.Delay,
		r.SRI, r.Flash, r.WordPress, r.Disc, r.Regress)
}

// Merge folds another result set's collector aggregates into r. The two
// sets must come from domain-disjoint shards of the same study shape (see
// analysis.Collector); Eco, Weeks, and Findings are left untouched.
func (r *Results) Merge(o *Results) {
	r.Coll.Merge(o.Coll)
	r.Libs.Merge(o.Libs)
	r.Vuln.Merge(o.Vuln)
	r.Delay.Merge(o.Delay)
	r.SRI.Merge(o.SRI)
	r.Flash.Merge(o.Flash)
	r.WordPress.Merge(o.WordPress)
	r.Disc.Merge(o.Disc)
	r.Regress.Merge(o.Regress)
}

// Run executes the pipeline. A zero Domains or Weeks takes its default; a
// negative one is an error.
func Run(ctx context.Context, cfg Config) (*Results, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	shards := newShards(cfg.Weeks, cfg.Domains, cfg.Shards)
	eco, crawl, err := study(ctx, cfg, shards)
	if err != nil {
		return nil, err
	}
	res := mergeShards(shards)
	res.Eco, res.Crawl = eco, crawl
	if !cfg.SkipPoC {
		res.Findings, err = poclab.Findings()
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// WriteStore is Run's collection into cfg.StorePath — the same engine,
// store bytes, checkpoints, resume and record/replay — without collectors
// or findings; RunFromStore analyses what it writes. It returns the
// crawler's metrics after a ModeCrawl run, nil after a direct one.
func WriteStore(ctx context.Context, cfg Config) (*crawler.MetricsSnapshot, error) {
	if cfg.StorePath == "" {
		return nil, fmt.Errorf("core: WriteStore requires StorePath")
	}
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	_, crawl, err := study(ctx, cfg, bareShards(cfg.Shards))
	if err != nil {
		return nil, err
	}
	return crawl, nil
}

// normalized returns cfg with its defaults taken, or why it cannot run.
// A replay's study comes from its bundle first (see recorded).
func (cfg Config) normalized() (Config, error) {
	if cfg.Domains < 0 || cfg.Weeks < 0 {
		return cfg, fmt.Errorf("core: negative study shape: %d domains x %d weeks", cfg.Domains, cfg.Weeks)
	}
	if cfg.ReplayBundle != "" {
		if err := cfg.recorded(); err != nil {
			return cfg, err
		}
	}
	if cfg.Domains == 0 {
		cfg.Domains = 2000
	}
	if cfg.Weeks == 0 {
		cfg.Weeks = webgen.StudyWeeks
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Progress == nil {
		cfg.Progress = func(string, ...any) {}
	}
	if cfg.Resume {
		cfg.Checkpoint = true
	}
	if cfg.Checkpoint && cfg.StorePath == "" {
		return cfg, fmt.Errorf("core: Checkpoint requires StorePath")
	}
	if (cfg.RecordBundle != "" || cfg.ReplayBundle != "") && cfg.Mode != ModeCrawl {
		return cfg, fmt.Errorf("core: bundle record/replay requires ModeCrawl")
	}
	if cfg.RecordBundle != "" && cfg.ReplayBundle != "" {
		return cfg, fmt.Errorf("core: RecordBundle and ReplayBundle are mutually exclusive")
	}
	return cfg, nil
}

// recorded takes a replay's study — Domains, Weeks, Seed, BundleScan — from
// the bundle.json of the run that recorded it, by store.Recorded with a
// non-zero field counted as set: a replay of another study fetches what the
// archive never held. The replay keeps the Bundling it asks for.
func (cfg *Config) recorded() error {
	m, err := wexbundle.ReadMeta(cfg.ReplayBundle)
	if err != nil {
		return err
	}
	if m.Domains < 1 || m.Weeks < 1 {
		return fmt.Errorf("core: replay %s: %s records no study shape", cfg.ReplayBundle, wexbundle.MetaName)
	}
	ask := store.RunID{Domains: cfg.Domains, Weeks: cfg.Weeks, Seed: cfg.Seed, BundleScan: cfg.BundleScan}
	rec := store.RunID{Domains: m.Domains, Weeks: m.Weeks, Seed: m.Seed, BundleScan: m.BundleScan}
	nonZero := func(f store.Field) bool { return !reflect.ValueOf(f.Value).IsZero() }
	if rec, err = store.Recorded(ask, rec, nonZero, "the bundle"); err != nil {
		return fmt.Errorf("core: replay %s: %w", cfg.ReplayBundle, err)
	}
	cfg.Domains, cfg.Weeks, cfg.Seed, cfg.BundleScan = rec.Domains, rec.Weeks, rec.Seed, rec.BundleScan
	return nil
}

// study generates a normalized configuration's population and collects it
// into shards and, when cfg has one, its store. It returns the population
// and, after a crawl, the crawler's metrics.
func study(ctx context.Context, cfg Config, shards []*shard) (*webgen.Ecosystem, *crawler.MetricsSnapshot, error) {
	eco := webgen.New(webgen.Config{Domains: cfg.Domains, Weeks: cfg.Weeks, Seed: cfg.Seed, Bundling: cfg.Bundling})

	// resumed is the journal of the crashed run being resumed; its zero
	// value — no weeks committed — is every other run's starting point.
	var resumed store.Checkpoint
	var writer sink
	if cfg.StorePath != "" {
		opt := store.SegmentedOptions{Checkpoint: cfg.Checkpoint, Run: cfg.RunID()}
		var err error
		if cfg.Resume {
			writer, resumed, err = store.ResumeSegmented(cfg.StorePath, opt)
		} else {
			writer, err = store.CreateSegmentedWith(cfg.StorePath, cfg.StoreSegments, opt)
		}
		if err != nil {
			return nil, nil, err
		}
	}

	var crawl *crawler.MetricsSnapshot
	err := func() error {
		if cfg.Resume {
			if err := resumePrefix(cfg, resumed, shards); err != nil {
				return err
			}
		}
		if cfg.Mode == ModeCrawl {
			var err error
			crawl, err = collectByCrawl(ctx, cfg, eco, shards, resumed.CommittedWeeks, writer)
			return err
		}
		return collect(ctx, cfg, shards, resumed.CommittedWeeks, truthSource(eco, cfg.Shards), writer, runCommit(cfg, nil, writer))
	}()
	if writer != nil {
		err = seal(writer, err)
	}
	return eco, crawl, err
}

// runCommit is Run's week commit, nil without Checkpoint: a recording's
// bundle, if any, then the store. The bundle commits first because it must
// always be able to replay the store's committed prefix: across a crash it
// may be ahead of the store (harmless — the resumed run re-records the week
// and the duplicates supersede in the replay index) but never behind it.
func runCommit(cfg Config, bundle *wexbundle.Writer, writer sink) func(week int) error {
	if !cfg.Checkpoint {
		return nil
	}
	return func(week int) error {
		if bundle != nil {
			if err := bundle.CommitWeek(week); err != nil {
				return err
			}
		}
		return writer.CommitWeek(week)
	}
}

// seal ends a writer's run. A successful run closes it, and a failed close
// is the run's error: it loses the gzip footer or the manifest, and with
// it data the readers can never recover. A failed run must never write a
// manifest — the directory keeps reading as incomplete, and the last
// checkpoint (if any) stays authoritative for salvage and resume — so it
// aborts instead: the deliberate crash, closing without a flush and losing
// only uncommitted state.
func seal(w interface {
	Close() error
	Abort() error
}, runErr error) error {
	if runErr == nil {
		return w.Close()
	}
	_ = w.Abort()
	return runErr
}

// resumePrefix rebuilds collector state from the committed prefix of a
// resumed store, exactly as live collection routed it, and verifies the
// journal: no segment may hold a week past the committed ones, and each
// must replay exactly the record count the checkpoint committed.
// Collection then continues at the first incomplete week as if the crash
// never happened.
func resumePrefix(cfg Config, ck store.Checkpoint, shards []*shard) error {
	lanes := make([][]replayUnit, ck.Segments)
	for s := range lanes {
		lanes[s] = []replayUnit{{path: store.SegmentPath(cfg.StorePath, s), to: ck.CommittedWeeks}}
	}
	counts, err := replay(shards, lanes, func(seg int, obs store.Observation) error {
		return fmt.Errorf("core: resume: segment %d holds week %d past the %d committed",
			seg, obs.Week, ck.CommittedWeeks)
	})
	if err != nil {
		return err
	}
	for s, n := range counts {
		if n != ck.Counts[s] {
			return fmt.Errorf("core: resume: segment %d replays %d records, checkpoint committed %d",
				s, n, ck.Counts[s])
		}
	}
	cfg.Progress("resumed: %d/%d weeks committed, %d records verified and replayed",
		ck.CommittedWeeks, cfg.Weeks, ck.Total)
	return nil
}

// truthSource converts generator ground truth straight into observations.
// Its item is the week: each shard walks its own sites, partitioned once.
func truthSource(eco *webgen.Ecosystem, shards int) source[int] {
	sites := make([][]int, shards)
	for i := range eco.Sites {
		s := store.ShardOf(eco.Sites[i].Domain.Name, shards)
		sites[s] = append(sites[s], i)
	}
	return source[int]{
		did: "collected (direct)",
		feed: func(_ context.Context, week int, emit func(int, int)) error {
			for s := range sites {
				emit(s, week)
			}
			return nil
		},
		observe: func(s, week int, yield func(store.Observation)) {
			for _, i := range sites[s] {
				yield(analysis.ObservationFromTruth(eco.Sites[i].Domain, eco.Truth(i, week)))
			}
		},
	}
}

// observationFromPage reduces one crawled page to an Observation, running
// the fingerprint engine on usable bodies. memo short-circuits unchanged
// page and script bodies to their cached results; it must be private to
// the calling goroutine (one memo per shard).
func observationFromPage(byName map[string]alexa.Domain, memo *fingerprint.Memo, p crawler.Page) store.Observation {
	dom := byName[p.Domain]
	var det fingerprint.Detection
	status := p.Status
	if p.Err != nil {
		status = 0
	} else if status == 200 {
		scripts := make([]fingerprint.ScriptBody, len(p.Scripts))
		for i, s := range p.Scripts {
			scripts[i] = fingerprint.ScriptBody{URL: s.URL, Body: s.Body}
		}
		det = memo.PageWithScripts(p.Body, p.Domain, scripts)
	}
	return analysis.ObservationFromCrawl(dom, p.Week, status, p.Body, det)
}

// collectByCrawl crawls every week and fingerprints the fetched pages on
// the shard workers. It is all set-up — transport, bundle writer, crawler
// — around the one collect call; how the pages are fetched is the
// transport's business, not the week loop's.
//
// A live crawl serves the ecosystem on a loopback listener. With
// ReplayBundle no listener or web server exists at all: the crawler's
// transport is the bundle's reader, advanced a week at a time at the
// engine's barrier, and the base URL's host resolves nowhere — nothing in
// a replayed run can touch the network. With RecordBundle the transport is
// wrapped to archive every exchange.
func collectByCrawl(ctx context.Context, cfg Config, eco *webgen.Ecosystem, shards []*shard, start int, writer sink) (_ *crawler.MetricsSnapshot, retErr error) {
	// The branches below set what differs between crawls.
	ccfg := crawlerConfig(cfg)
	advance := func(int) error { return nil }
	if cfg.ReplayBundle != "" {
		b, err := wexbundle.Open(cfg.ReplayBundle)
		if err != nil {
			return nil, err
		}
		defer b.Close()
		advance = b.Advance
		ccfg.WrapTransport = func(http.RoundTripper) http.RoundTripper { return b.Transport() }
		ccfg.BaseURL = "http://wexbundle.invalid"
		// A replay takes nothing from the clock. Its retries wait for nothing:
		// the archive's answer cannot change (ctx.Err(), so that a cancelled
		// replay still stops retrying). And it mounts no resilience layer: the
		// archive holds every decision the breaker, the gate and the budget
		// took live — a fetch they refused has no record and replays as the
		// same status-0 page — and taking them again against a wall clock that
		// now runs at another speed can only disagree with the recording.
		ccfg.Sleep = func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
		ccfg.Resilience = crawler.Resilience{}
	} else {
		ws := webserver.New(eco)
		if cfg.ChaosRate > 0 {
			ws.Chaos = &webserver.Chaos{Seed: cfg.ChaosSeed, Rate: cfg.ChaosRate}
		}
		url, stop, err := ws.Start()
		if err != nil {
			return nil, err
		}
		defer stop()
		ccfg.BaseURL = url
	}

	var bw *wexbundle.Writer
	if cfg.RecordBundle != "" {
		opt := wexbundle.Options{
			Segments:   cfg.StoreSegments,
			Checkpoint: cfg.Checkpoint,
			Run:        cfg.RunID(),
			Meta:       wexbundle.Meta{Domains: cfg.Domains, Weeks: cfg.Weeks, Seed: cfg.Seed, BundleScan: cfg.BundleScan},
		}
		var err error
		if cfg.Resume {
			var ck store.Checkpoint
			bw, ck, err = wexbundle.Resume(cfg.RecordBundle, opt)
			if err == nil && ck.CommittedWeeks < start {
				_ = bw.Abort()
				err = fmt.Errorf("core: bundle %s committed %d weeks, store committed %d — the bundle cannot replay the store's committed prefix",
					cfg.RecordBundle, ck.CommittedWeeks, start)
			}
		} else {
			bw, err = wexbundle.Create(cfg.RecordBundle, opt)
		}
		if err != nil {
			return nil, err
		}
		defer func() { retErr = seal(bw, retErr) }()
		ccfg.WrapTransport = func(inner http.RoundTripper) http.RoundTripper {
			return &wexbundle.RecordingTransport{Inner: inner, W: bw}
		}
	}

	src, cr := crawlSource(ccfg, eco, 0, 1, len(shards), advance)
	err := collect(ctx, cfg, shards, start, src, writer, runCommit(cfg, bw, writer))
	snap := cr.Metrics()
	return &snap, err
}

// CrawlPartition is a distributed worker's assignment: partition part of
// parts (the domains store.ShardOf puts there, in ecosystem order) crawled
// over weeks [start, cfg.Weeks) from the web at baseURL into w — exactly
// segment part of an in-process crawl stored in parts segments. It runs one
// shard and no collectors (the merge replays the stores), ends every week
// with commit, given the crawler's cumulative metrics, and owns w: Close
// after the last week, Abort on any failure. See DESIGN.md §17.
func CrawlPartition(ctx context.Context, cfg Config, eco *webgen.Ecosystem, part, parts, start int, baseURL string,
	w *store.SegmentedWriter, commit func(week int, crawl crawler.MetricsSnapshot) error) error {
	if cfg.Progress == nil {
		cfg.Progress = func(string, ...any) {}
	}
	ccfg := crawlerConfig(cfg)
	ccfg.BaseURL = baseURL
	src, cr := crawlSource(ccfg, eco, part, parts, 1, func(int) error { return nil })
	err := collect(ctx, cfg, bareShards(1), start, src, w, func(week int) error {
		return commit(week, cr.Metrics())
	})
	return seal(w, err)
}

// crawlerConfig is a study's crawler, before anything says where it fetches.
func crawlerConfig(cfg Config) crawler.Config {
	return crawler.Config{
		Workers:      cfg.Workers,
		FetchTimeout: cfg.FetchTimeout,
		Backoff:      crawler.Backoff{Seed: cfg.Seed},
		Resilience:   cfg.Resilience,
		FetchScripts: cfg.BundleScan,
	}
}

// crawlSource fetches partition part of parts (a whole study is 0 of 1)
// every week through a crawler built from ccfg, returned for its metrics,
// and fingerprints the pages on the owning shard's worker with the shard's
// private memo. advance readies the transport for a week before its first
// fetch.
func crawlSource(ccfg crawler.Config, eco *webgen.Ecosystem, part, parts, shards int, advance func(int) error) (source[crawler.Page], *crawler.Crawler) {
	cr := crawler.New(ccfg)
	byName := eco.List.ByName()
	var domains []string
	for _, s := range eco.Sites {
		if store.ShardOf(s.Domain.Name, parts) == part {
			domains = append(domains, s.Domain.Name)
		}
	}
	memos := make([]*fingerprint.Memo, shards)
	for s := range memos {
		memos[s] = fingerprint.NewMemo(0)
	}
	return source[crawler.Page]{
		did: "crawled",
		feed: func(ctx context.Context, week int, emit func(int, crawler.Page)) error {
			// No fetch is in flight here, so a replay reads its archive forward
			// here: a bad record is the run's error at this week, not a
			// transport error the crawler would turn into a status-0 page.
			if err := advance(week); err != nil {
				return err
			}
			// CrawlWeek calls back from a single goroutine and returns only
			// after every page of the week has been delivered — the two
			// properties feed promises (asserted by the crawler's contract
			// tests).
			return cr.CrawlWeek(ctx, week, domains, func(p crawler.Page) {
				emit(store.ShardOf(p.Domain, shards), p)
			})
		},
		observe: func(s int, p crawler.Page, yield func(store.Observation)) {
			yield(observationFromPage(byName, memos[s], p))
		},
	}, cr
}

// RunFromStore replays a stored observation dataset through the analyses.
// Findings come from poclab.Findings, the PoC lab's committed answer, which
// does not depend on the dataset: no PoC runs here.
// The path must be a sealed store directory: a directory without a
// manifest, a lone segment file and an archive of an earlier release are
// refused before anything is decoded. Segments decode concurrently, and
// with shards > 1 the observations go by domain hash to per-shard
// collector sets, merged afterwards — the stored per-domain week ordering
// is preserved inside each shard, so the result is identical to a serial
// replay whatever the segment and shard counts are.
//
// weeks and domains must be the stored study's: a record at a week past
// weeks is refused, and so is a store whose manifest does not hold
// weeks × domains observations (a salvaged partial store among them),
// before anything is decoded, or whose segments replay to another count.
func RunFromStore(path string, weeks, domains, shards int) (*Results, error) {
	res, err := replayStore(path, weeks, domains, shards)
	if err != nil {
		return nil, err
	}
	res.Findings, err = poclab.Findings()
	return res, err
}

// replayStore is RunFromStore without the findings.
func replayStore(path string, weeks, domains, shards int) (*Results, error) {
	wrongStudy := func(n int) error {
		return fmt.Errorf("core: %s holds %d observations, not the %d of a %d-domain × %d-week study",
			path, n, weeks*domains, domains, weeks)
	}
	man, err := store.ReadManifest(path)
	if err != nil {
		return nil, err
	}
	if man.Total != weeks*domains {
		return nil, wrongStudy(man.Total)
	}
	lanes := make([][]replayUnit, man.Segments)
	for s := range lanes {
		lanes[s] = []replayUnit{{path: store.SegmentPath(path, s), to: weeks}}
	}
	sh := newShards(weeks, domains, max(shards, 1))
	counts, err := replay(sh, lanes, func(_ int, obs store.Observation) error {
		return fmt.Errorf("core: %s holds week %d, past the %d weeks of the study", path, obs.Week, weeks)
	})
	if err != nil {
		return nil, err
	}
	// A manifest can declare counts its segments do not hold.
	n := 0
	for _, c := range counts {
		n += c
	}
	if n != weeks*domains {
		return nil, wrongStudy(n)
	}
	return mergeShards(sh), nil
}

// Study is the report's view of r: its collectors and findings.
func (r *Results) Study() report.Study {
	return report.Study{Weeks: r.Weeks, Coll: r.Coll, Libs: r.Libs, Vuln: r.Vuln, Delay: r.Delay,
		SRI: r.SRI, Flash: r.Flash, WordPress: r.WordPress, Disc: r.Disc, Regress: r.Regress,
		Findings: r.Findings}
}

// WriteReport renders every table and figure of the paper plus the headline
// comparison.
func (r *Results) WriteReport(w io.Writer) { report.Write(w, r.Study()) }
