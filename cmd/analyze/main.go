// Command analyze replays a stored observation dataset through every
// analysis of the paper and prints the full table/figure report. The
// input is a store directory (see cmd/gendata, cmd/crawl) or a single gzip
// stream — one seg-NNNN.jsonl.gz of a store; it runs GOMAXPROCS shards, and
// when the segment count equals that the replay decodes every segment
// concurrently straight into its shard's collectors. -weeks and -domains
// must name the stored study: a store of another shape is refused. A
// directory without a manifest — a run that was killed or is still going —
// is refused, with the command that makes it readable; so is an archive of
// an earlier release (format v1 or v2), with the commit whose fsck
// converts it.
//
// Usage:
//
//	analyze -in observations.store -weeks 201 -domains 20000
//	analyze -in observations.store -cpuprofile analyze.pprof
//	analyze -in observations.store/seg-0000.jsonl.gz   # one segment file
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"clientres/internal/core"
	"clientres/internal/prof"
	"clientres/internal/store"
	"clientres/internal/webgen"
)

func main() {
	in := flag.String("in", "observations.store", "input store directory, or one segment file of a store")
	weeks := flag.Int("weeks", webgen.StudyWeeks, "snapshot weeks in the dataset")
	domains := flag.Int("domains", 20000, "ranked population size of the dataset")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	bundleScan := flag.Bool("bundle-scan", false, "append a bundle-detection summary: how many library detections came from content signatures vs URLs")
	flag.Parse()

	stopCPU, err := prof.StartCPU(*cpuprofile)
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}
	res, err := core.RunFromStore(*in, *weeks, *domains, runtime.GOMAXPROCS(0))
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
		if err := writeBundleSummary(w, *in); err != nil {
			log.Fatalf("analyze: %v", err)
		}
	}
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
