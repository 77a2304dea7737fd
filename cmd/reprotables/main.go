// Command reprotables regenerates every table and figure of the paper's
// evaluation in one run: it builds the calibrated synthetic web, collects
// all weekly snapshots, runs every analysis, and prints the complete
// report (the source of EXPERIMENTS.md). The PoC validation results are the
// lab's committed table, as in every report; cmd/vvexp runs the lab itself.
//
// Usage:
//
//	reprotables -domains 20000              # direct collection (fast)
//	reprotables -domains 1500 -crawl        # full HTTP crawl pipeline
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"clientres/internal/core"
	"clientres/internal/report"
	"clientres/internal/webgen"
)

func main() {
	domains := flag.Int("domains", 20000, "number of ranked domains to model")
	weeks := flag.Int("weeks", webgen.StudyWeeks, "number of weekly snapshots")
	seed := flag.Int64("seed", 1, "generation seed")
	crawl := flag.Bool("crawl", false, "collect via the HTTP crawler instead of ground truth")
	workers := flag.Int("workers", 64, "crawler workers (with -crawl)")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	csvDir := flag.String("csvdir", "", "also export full-resolution figure series as CSV into this directory")
	flag.Parse()

	cfg := core.Config{Domains: *domains, Weeks: *weeks, Seed: *seed, Workers: *workers, Shards: runtime.GOMAXPROCS(0)}
	if *crawl {
		cfg.Mode = core.ModeCrawl
	}
	if !*quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\r", args...)
		}
	}
	res, err := core.Run(context.Background(), cfg)
	if err != nil {
		log.Fatalf("reprotables: %v", err)
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	if *csvDir != "" {
		if err := report.WriteCSVDir(*csvDir, res.Study()); err != nil {
			log.Fatalf("reprotables: %v", err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "figure series exported to %s\n", *csvDir)
		}
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	res.WriteReport(w)
}
