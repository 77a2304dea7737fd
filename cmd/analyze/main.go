// Command analyze replays a stored observation dataset through every
// analysis of the paper and prints the full table/figure report. The
// input is a sealed store directory (see cmd/gendata, cmd/crawl); it runs
// GOMAXPROCS shards, and when the segment count equals that the replay
// decodes every segment concurrently straight into its shard's collectors.
// The study's weeks and domains come from the store's manifest, which
// records the study the store was written for; a manifest that records
// none (a store sealed by an earlier release, or salvaged by a prefix
// scan) is refused, naming the store. A directory without a manifest — a
// run that was killed or is still going — is refused, with the command
// that makes it readable; so is one segment file of a store, with the
// directory to pass instead, and an archive of an earlier release (format
// v1 or v2), with the commit whose fsck converts it.
//
// Usage:
//
//	analyze -in observations.store
//	analyze -in observations.store -cpuprofile analyze.pprof
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"clientres/internal/analysis"
	"clientres/internal/core"
	"clientres/internal/prof"
	"clientres/internal/store"
)

func main() {
	in := flag.String("in", "observations.store", "input store directory")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	bundleScan := flag.Bool("bundle-scan", false, "append a bundle-detection summary: how many library detections came from content signatures vs URLs")
	flag.Parse()

	run, err := store.ReadStudy(*in)
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}
	stopCPU, err := prof.StartCPU(*cpuprofile)
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}
	res, err := core.RunFromStore(*in, run.Weeks, run.Domains, runtime.GOMAXPROCS(0))
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
	if *bundleScan {
		writeBundleSummary(w, res.Libs.SignatureReach())
	}
}

// writeBundleSummary reports how many library detections were recovered
// from script content (bundles) rather than from <script src> URLs — the
// measured reach of -bundle-scan.
func writeBundleSummary(w *bufio.Writer, r analysis.SignatureReach) {
	fmt.Fprintf(w, "\nBundle-scan summary\n")
	fmt.Fprintf(w, "  pages with >=1 signature-recovered library: %d / %d usable pages\n", r.SigPages, r.Pages)
	fmt.Fprintf(w, "  signature-recovered library detections:     %d / %d detections\n", r.SigDetections, r.Detections)
}
