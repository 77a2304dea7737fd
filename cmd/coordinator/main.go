// Command coordinator runs the distributed crawl plane's control point:
// it owns the study frontier, leases domain partitions to workers over
// HTTP/JSON, expires leases whose heartbeats stop, reassigns the
// partition to a surviving worker at the last accepted week, and — once
// every partition is fully committed — seals and merges the workers'
// generation stores into the study report, byte-identical to a serial
// crawl of the same configuration.
//
// Assignment state persists atomically to <dir>/coordinator.json after
// every transition; restarting the coordinator over the same directory
// rehydrates leases and accepted spans instead of restarting the crawl.
//
// Usage:
//
//	coordinator -addr 127.0.0.1:7700 -domains 2000 -weeks 50 -partitions 4 -dir run.dist -out report.txt
//	coordinator -addr 127.0.0.1:7700 -dir run.dist -out report.txt   # restart: rehydrates run.dist/coordinator.json
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"clientres/internal/distcrawl"
	"clientres/internal/webgen"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7700", "listen address for the worker protocol")
	domains := flag.Int("domains", 2000, "number of ranked domains to model")
	weeks := flag.Int("weeks", webgen.StudyWeeks, "number of weekly snapshots")
	seed := flag.Int64("seed", 1, "generation seed")
	partitions := flag.Int("partitions", 4, "domain-hash partitions (the unit of assignment and failure recovery)")
	dir := flag.String("dir", "crawl.dist", "store root shared with the workers (generation stores and coordinator.json live here)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "how long an assignment survives without a heartbeat before reassignment")
	bundleFrac := flag.Float64("bundle-frac", 0, "fraction of eligible generated sites that ship bundles (as cmd/crawl)")
	bundleScan := flag.Bool("bundle-scan", false, "workers fetch and scan same-site scripts (as cmd/crawl)")
	out := flag.String("out", "", "write the merged study report here after the run completes (empty = merge skipped)")
	poll := flag.Duration("poll", 200*time.Millisecond, "completion poll interval")
	flag.Parse()
	if *domains < 1 || *weeks < 1 {
		fmt.Fprintf(os.Stderr, "coordinator: -domains and -weeks must be at least 1 (got %d and %d)\n", *domains, *weeks)
		flag.Usage()
		os.Exit(2)
	}

	spec := distcrawl.RunSpec{
		Domains: *domains, Weeks: *weeks, Seed: *seed,
		Bundling:   webgen.DefaultBundling(*bundleFrac),
		BundleScan: *bundleScan,
		Partitions: *partitions,
		Dir:        *dir,
		LeaseTTL:   *leaseTTL,
	}
	coord, err := distcrawl.NewCoordinator(spec)
	if err != nil {
		log.Fatalf("coordinator: %v", err)
	}
	coord.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "coordinator: "+format+"\n", args...)
	}
	// The rehydrated spec is authoritative on restart (the study flags
	// must match it; NewCoordinator already refused a mismatch).
	spec = coord.Spec()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("coordinator: %v", err)
	}
	srv := &http.Server{Handler: coord.Handler()}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatalf("coordinator: %v", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "coordinator: serving %d partitions of %d domains x %d weeks on %s\n",
		spec.Partitions, spec.Domains, spec.Weeks, ln.Addr())

	for !coord.Done() {
		time.Sleep(*poll)
	}
	st := coord.Status()
	m := st.Metrics
	fmt.Fprintf(os.Stderr,
		"coordinator: run complete: %d spans; attempts=%d successes=%d conn_failures=%d bytes=%d fetch_p50=%s fetch_p99=%s\n",
		len(st.Spans), m.Attempts, m.Successes, m.ConnFailures, m.Bytes, m.FetchP50, m.FetchP99)
	// Linger briefly so polling workers observe Done and exit cleanly.
	time.Sleep(2 * *poll)
	_ = srv.Close()

	if *out != "" {
		res, err := distcrawl.Merge(spec, st.Spans, distcrawl.MergeOptions{})
		if err != nil {
			log.Fatalf("coordinator: merge: %v", err)
		}
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("coordinator: %v", err)
		}
		res.WriteReport(f)
		if err := f.Close(); err != nil {
			log.Fatalf("coordinator: %v", err)
		}
		fmt.Fprintf(os.Stderr, "coordinator: merged report -> %s\n", *out)
	}
}
