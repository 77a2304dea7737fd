// Command gendata generates a synthetic-web observation dataset — the
// offline stand-in for the paper's four-year Alexa-1M crawl — and writes it
// as a store directory (delta-encoded, checksummed gzip segments behind a
// manifest) for cmd/analyze, which runs the analyses. One shard writes each
// segment, so the store's bytes depend on the population and -segments only.
//
// Usage:
//
//	gendata -domains 20000 -weeks 201 -seed 1 -out observations.store
//	gendata -domains 20000 -segments 8 -out observations.store
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"clientres/internal/core"
	"clientres/internal/webgen"
)

func main() {
	domains := flag.Int("domains", 20000, "number of ranked domains to model")
	weeks := flag.Int("weeks", webgen.StudyWeeks, "number of weekly snapshots")
	seed := flag.Int64("seed", 1, "generation seed")
	out := flag.String("out", "observations.store", "output store directory")
	segments := flag.Int("segments", 1, "segment files in the store directory; they write and replay in parallel (reports identical at every count)")
	bundleFrac := flag.Float64("bundle-frac", 0, "fraction of eligible generated sites that ship their libraries as one bundled script (0 disables)")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	flag.Parse()
	if *domains < 1 || *weeks < 1 {
		fmt.Fprintf(os.Stderr, "gendata: -domains and -weeks must be at least 1 (got %d and %d)\n", *domains, *weeks)
		flag.Usage()
		os.Exit(2)
	}

	cfg := core.Config{
		Domains: *domains, Weeks: *weeks, Seed: *seed,
		Bundling:  webgen.DefaultBundling(*bundleFrac),
		StorePath: *out, StoreSegments: *segments, Shards: *segments,
	}
	if !*quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if _, err := core.WriteStore(context.Background(), cfg); err != nil {
		log.Fatalf("gendata: %v", err)
	}
	fmt.Printf("wrote %d domains x %d weeks to %s\n", *domains, *weeks, *out)
}
