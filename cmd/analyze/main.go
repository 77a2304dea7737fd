// Command analyze replays a stored observation dataset through every
// analysis of the paper and prints the full table/figure report. The
// input is a store directory (see cmd/gendata, cmd/crawl) or a single gzip
// stream — one seg-NNNN.jsonl.gz of a store; it runs GOMAXPROCS shards, and
// when the segment count equals that the replay decodes every segment
// concurrently straight into its shard's collectors. A directory without a
// manifest — a run that was killed or is still going — is refused, with the
// command that makes it readable; so is an archive of an earlier release
// (format v1 or v2), with the commit whose fsck converts it.
//
// With -batch it instead runs the offline NDJSON audit path: the same
// record loop as the service's POST /v1/audit/batch (optionally gated by
// -policy), emitting byte-identical lines — no server required. The exit
// code is 1 when any record fails policy or errors, so the mode slots
// into CI.
//
// Usage:
//
//	analyze -in observations.store -weeks 201 -domains 20000
//	analyze -in observations.store -cpuprofile analyze.pprof
//	analyze -in observations.store/seg-0000.jsonl.gz   # one segment file
//	analyze -batch pages.ndjson -policy gate.yaml -now 2026-01-02T12:00:00Z
//	analyze -bundle crawl.bundle   # replay a recorded bundle, zero network
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"clientres/internal/core"
	"clientres/internal/policy"
	"clientres/internal/prof"
	"clientres/internal/service"
	"clientres/internal/store"
	"clientres/internal/webgen"
	"clientres/internal/wexbundle"
)

func main() {
	in := flag.String("in", "observations.store", "input store directory, or one segment file of a store")
	weeks := flag.Int("weeks", webgen.StudyWeeks, "snapshot weeks in the dataset")
	domains := flag.Int("domains", 20000, "ranked population size of the dataset")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	bundleScan := flag.Bool("bundle-scan", false, "append a bundle-detection summary: how many library detections came from content signatures vs URLs (with -bundle: fetch and scan same-site scripts during the replay)")
	bundle := flag.String("bundle", "", "replay-audit mode: re-crawl this recorded web-execution bundle with zero network instead of reading a store (-domains/-weeks/-seed/-bundle-scan default from the bundle's metadata)")
	seed := flag.Int64("seed", 1, "generation seed of the recorded run (with -bundle)")
	batch := flag.String("batch", "", "offline batch-audit mode: NDJSON records file (- for stdin), same protocol as POST /v1/audit/batch")
	policyFile := flag.String("policy", "", "policy file (YAML or JSON) evaluated against each -batch record")
	nowFlag := flag.String("now", "", "audit clock as RFC3339 for -batch (default wall clock)")
	flag.Parse()

	if *batch != "" {
		os.Exit(runBatch(*batch, *policyFile, *nowFlag))
	}
	if *policyFile != "" {
		log.Fatal("analyze: -policy requires -batch")
	}

	stopCPU, err := prof.StartCPU(*cpuprofile)
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}

	shards := runtime.GOMAXPROCS(0)
	var res *core.Results
	if *bundle != "" {
		res, err = runBundle(*bundle, *weeks, *domains, *seed, shards, *bundleScan)
	} else {
		res, err = core.RunFromStore(*in, *weeks, *domains, shards)
	}
	stopCPU()
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}
	if err := prof.WriteHeap(*memprofile); err != nil {
		log.Fatalf("analyze: %v", err)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	res.WriteReport(w)
	if *bundleScan && *bundle == "" {
		if err := writeBundleSummary(w, *in); err != nil {
			log.Fatalf("analyze: %v", err)
		}
	}
}

// runBundle re-crawls a recorded bundle through the full pipeline with a
// replay transport — zero network, byte-identical report to the live run
// that recorded it. The recorded run's -domains/-weeks/-seed/-bundle-scan
// come from bundle.json unless set explicitly on the command line.
func runBundle(dir string, weeks, domains int, seed int64, shards int, bundleScan bool) (*core.Results, error) {
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// A bundle without bundle.json reads as the zero Meta, which overrides
	// nothing; a corrupt one must not replay under the flags' defaults.
	meta, err := wexbundle.ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	if !set["domains"] && meta.Domains > 0 {
		domains = meta.Domains
	}
	if !set["weeks"] && meta.Weeks > 0 {
		weeks = meta.Weeks
	}
	if !set["seed"] && meta.Seed != 0 {
		seed = meta.Seed
	}
	if !set["bundle-scan"] && meta.Version > 0 {
		bundleScan = meta.BundleScan
	}
	return core.Run(context.Background(), core.Config{
		Domains: domains, Weeks: weeks, Seed: seed,
		Mode: core.ModeCrawl, Shards: shards,
		BundleScan:   bundleScan,
		ReplayBundle: dir,
	})
}

// runBatch is the offline audit gate: service.RunBatch over a records
// file, NDJSON out on stdout, summary on stderr. Exit 1 when any record
// errors or the worst policy verdict is "fail" — the auditsite/CI
// contract.
func runBatch(batchPath, policyFile, nowFlag string) int {
	var pol *policy.Policy
	if policyFile != "" {
		src, err := os.ReadFile(policyFile)
		if err != nil {
			log.Printf("analyze: %v", err)
			return 2
		}
		if pol, err = policy.Compile(src); err != nil {
			log.Printf("analyze: policy %s: %v", policyFile, err)
			return 2
		}
	}
	now := time.Now()
	if nowFlag != "" {
		t, err := time.Parse(time.RFC3339, nowFlag)
		if err != nil {
			log.Printf("analyze: bad -now: %v", err)
			return 2
		}
		now = t
	}
	var r io.Reader = os.Stdin
	if batchPath != "-" {
		f, err := os.Open(batchPath)
		if err != nil {
			log.Printf("analyze: %v", err)
			return 2
		}
		defer f.Close()
		r = f
	}
	w := bufio.NewWriter(os.Stdout)
	sum, err := service.RunBatch(r, w, pol, now)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		log.Printf("analyze: batch: %v", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "batch: %d records, %d completed, %d errors, overall %q\n",
		sum.Records, sum.Completed, sum.Errors, sum.Overall)
	if sum.Errors > 0 || sum.Overall == "fail" {
		return 1
	}
	return 0
}

// writeBundleSummary streams the store a second time and reports how many
// library detections were recovered from script content (bundles) rather
// than from <script src> URLs — the measured reach of -bundle-scan.
func writeBundleSummary(w *bufio.Writer, path string) error {
	var pages, sigPages, libs, sigLibs int
	count := func(obs store.Observation) error {
		if !obs.OK() {
			return nil
		}
		pages++
		viaSig := false
		for _, l := range obs.Libs {
			libs++
			if l.Sig {
				sigLibs++
				viaSig = true
			}
		}
		if viaSig {
			sigPages++
		}
		return nil
	}
	if err := store.ForEach(path, count); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nBundle-scan summary\n")
	fmt.Fprintf(w, "  pages with >=1 signature-recovered library: %d / %d usable pages\n", sigPages, pages)
	fmt.Fprintf(w, "  signature-recovered library detections:     %d / %d detections\n", sigLibs, libs)
	return nil
}
