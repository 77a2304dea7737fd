// Command crawl runs the study's real collection pipeline: it serves the
// synthetic web on a loopback HTTP listener, crawls every domain every
// snapshot week with the concurrent crawler, fingerprints each landing
// page (with a per-shard content-hash memo cache, since most pages are
// week-over-week identical), and stores the resulting observations in a
// store directory: delta-encoded, checksummed segment files behind a
// manifest that only a run that ended cleanly gets (an interrupted one
// leaves a directory analyze refuses and `fsck -repair` salvages) for
// cmd/analyze, which runs the analyses. It fingerprints on GOMAXPROCS shards.
//
// Usage:
//
//	crawl -domains 2000 -weeks 50 -workers 64 -out crawl.store
//	crawl -segments 4 -out crawl.store -cpuprofile crawl.pprof
//	crawl -politeness -chaos 0.2 -weeks 8 -out drill.store   # fault drill
//	crawl -checkpoint -out crawl.store       # journal every completed week
//	crawl -resume -out crawl.store           # continue a crashed run
//	crawl -record crawl.bundle -out crawl.store   # archive every response
//	crawl -replay crawl.bundle -out replay.store  # re-crawl with zero network
//
// A run that already recorded its study takes it from there: a replay from
// its bundle's sealed manifest, a resume from the store's checkpoint
// journal (-domains, -weeks, -seed, -bundle-frac, -bundle-scan). The
// study flags default to the recorded values, and one set to another
// value, a zero value included (-seed 0, -bundle-scan=false,
// -bundle-frac 0), is refused before anything is written.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"time"

	"clientres/internal/core"
	"clientres/internal/crawler"
	"clientres/internal/prof"
	"clientres/internal/store"
	"clientres/internal/webgen"
)

func main() {
	domains := flag.Int("domains", 2000, "number of ranked domains to model")
	weeks := flag.Int("weeks", webgen.StudyWeeks, "number of weekly snapshots")
	seed := flag.Int64("seed", 1, "generation seed")
	workers := flag.Int("workers", 64, "concurrent crawler workers")
	fetchTimeout := flag.Duration("fetch-timeout", 0, "per-page fetch deadline covering all retries and script fetches (0 disables; an expired fetch records the usual status-0 observation)")
	segments := flag.Int("segments", 1, "segment files in the store directory; they write and replay in parallel (reports identical at every count)")
	out := flag.String("out", "crawl.store", "output store directory")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	politeness := flag.Bool("politeness", false, "enable the per-host resilience layer: politeness limiter, circuit breaker, weekly retry budget (reports are identical either way; ignored with -replay, where the archive already holds every decision the layer took live)")
	hostGap := flag.Duration("hostgap", 15*time.Millisecond, "minimum per-host inter-request gap (with -politeness)")
	hostParallel := flag.Int("host-parallel", 2, "max in-flight requests per host (with -politeness)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive connection failures that open a host's circuit (with -politeness)")
	breakerCooldown := flag.Duration("breaker-cooldown", 30*time.Second, "open-circuit shed time before a half-open probe (with -politeness)")
	retryBudget := flag.Int("retry-budget", 0, "per-week shared retry budget (0 = one per domain, negative = unlimited; with -politeness)")
	chaos := flag.Float64("chaos", 0, "fault-injection rate per (domain, week) on the loopback server: stalls, resets, truncated bodies, slow-loris (0 disables)")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault schedule seed (with -chaos)")
	checkpoint := flag.Bool("checkpoint", false, "commit a crash-safety journal after every completed week, so that a killed run can -resume (reports are identical either way)")
	resume := flag.Bool("resume", false, "resume a crashed -checkpoint run from its journal: verify and replay the committed weeks, then continue at the first incomplete week (implies -checkpoint); the study is the journaled one, and -domains, -weeks, -seed, -bundle-frac or -bundle-scan set to another value is refused")
	bundleFrac := flag.Float64("bundle-frac", 0, "fraction of eligible generated sites that ship their libraries as one bundled script (0 disables; bundles hide library URLs from the fingerprinter)")
	bundleScan := flag.Bool("bundle-scan", false, "fetch each page's same-site scripts and scan their content for library signatures (recovers bundled libraries; plain pages detect identically either way)")
	record := flag.String("record", "", "record every fetched response into a web-execution bundle at this directory (honors -checkpoint/-resume; reports are identical either way)")
	replay := flag.String("replay", "", "replay the crawl from a recorded bundle directory with zero network and zero waiting (no loopback server is started, retries take no backoff sleep, -politeness is ignored); the study is the recorded one, and -domains, -weeks, -seed, -bundle-frac or -bundle-scan set to another value is refused")
	flag.Parse()
	if *domains < 1 || *weeks < 1 {
		fmt.Fprintf(os.Stderr, "crawl: -domains and -weeks must be at least 1 (got %d and %d)\n", *domains, *weeks)
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	stopCPU, err := prof.StartCPU(*cpuprofile)
	if err != nil {
		log.Fatalf("crawl: %v", err)
	}

	cfg := core.Config{
		Domains: *domains, Weeks: *weeks, Seed: *seed,
		Bundling:   webgen.DefaultBundling(*bundleFrac),
		BundleScan: *bundleScan,
		Mode:       core.ModeCrawl, Workers: *workers, Shards: runtime.GOMAXPROCS(0),
		FetchTimeout: *fetchTimeout,
		StorePath:    *out, StoreSegments: *segments,
		Resilience: crawler.Resilience{
			Enabled:          *politeness,
			MaxPerHost:       *hostParallel,
			MinGap:           *hostGap,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
			RetryBudget:      *retryBudget,
		},
		ChaosRate:    *chaos,
		ChaosSeed:    *chaosSeed,
		Checkpoint:   *checkpoint,
		Resume:       *resume,
		RecordBundle: *record,
		ReplayBundle: *replay,
		Progress: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if cfg, err = recordedStudy(cfg, set); err != nil {
		log.Fatalf("crawl: %v", err)
	}
	m, err := core.WriteStore(ctx, cfg)
	stopCPU()
	if err != nil {
		log.Fatalf("crawl: %v", err)
	}
	if err := prof.WriteHeap(*memprofile); err != nil {
		log.Fatalf("crawl: %v", err)
	}
	fmt.Fprintf(os.Stderr,
		"crawl metrics: attempts=%d retries=%d successes=%d conn_failures=%d breaker_trips=%d breaker_shed=%d budget_exhausted=%d bytes=%d waited=%s fetch_p50=%s fetch_p99=%s\n",
		m.Attempts, m.Retries, m.Successes, m.ConnFailures,
		m.BreakerTrips, m.BreakerShed, m.BudgetExhausted, m.Bytes,
		m.Waited.Round(time.Millisecond), m.FetchP50, m.FetchP99)
	if *replay != "" {
		fmt.Printf("replayed %s into %s\n", *replay, *out)
		return
	}
	fmt.Printf("crawled %d domains x %d weeks into %s\n", cfg.Domains, cfg.Weeks, *out)
}

// recordedStudy returns cfg with the study its run already recorded, by
// store.Recorded over the flags in set: a replay's in its bundle's sealed
// manifest, a resume's in the store's checkpoint journal. Any other run is
// returned as it is.
func recordedStudy(cfg core.Config, set map[string]bool) (core.Config, error) {
	var r store.RunID
	var err error
	var run, recorder string
	switch {
	case cfg.ReplayBundle != "":
		r, err = store.ReadStudy(cfg.ReplayBundle)
		run, recorder = "replay "+cfg.ReplayBundle, "the bundle"
	case cfg.Resume:
		var ck store.Checkpoint
		ck, err = store.ReadCheckpoint(cfg.StorePath)
		r, run, recorder = ck.Run, "resume "+cfg.StorePath, "the journal"
	default:
		return cfg, nil
	}
	if err != nil {
		return cfg, err
	}
	if r, err = store.Recorded(cfg.RunID(), r, func(f store.Field) bool { return set[f.Flag] }, recorder); err != nil {
		return cfg, fmt.Errorf("%s: %w", run, err)
	}
	cfg.Domains, cfg.Weeks, cfg.Seed, cfg.BundleScan = r.Domains, r.Weeks, r.Seed, r.BundleScan
	cfg.Bundling = webgen.Bundling{Fraction: r.BundleFraction, MinifyP: r.BundleMinifyP,
		BannerP: r.BundleBannerP, SourceMapP: r.BundleSourceMapP}
	return cfg, nil
}
