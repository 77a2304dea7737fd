package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// shape holds every size of the benchmark. The sizes are constants of the
// benchmark, not flags: two result files are comparable only if they were
// measured at the same shape. Load generators never use more goroutines or
// connections than the two cores the benchmark is sized for; crawlWorkers
// is cmd/crawl's shipped default and a setting of the system under test
// (about a ninth of the (domain, week) fetches hit a dead host and sleep in
// retry backoff, so with two fetch slots the crawl would mostly sleep).
type shape struct {
	// The crawl-shaped three share one study, so their ops_per_s compare
	// directly and their reports must hash the same.
	crawlDomains, crawlWeeks int
	crawlWorkers             int
	// dist-crawl: workers, fetch slots per worker, domain partitions.
	distWorkers, distCrawlWorkers, distPartitions int
	// The store-shaped two share one study.
	storeDomains, storeWeeks int
	// Analysis shards and store segments of every study workload.
	shards, segments int
	// serve-audit: closed-loop clients, requests per client per pass, the
	// hot set (half the service's 4,096-entry cache), the cold pool (eight
	// caches) and the share of requests drawn from the hot set.
	serveClients, serveBatch int
	hotPages, coldPages      int
	hotShare                 float64
	// samplePages is how many replies serve-audit compares byte for byte
	// with an in-process audit, and how many inputs each layer probe of a
	// traced run measures.
	samplePages int
	// setupReps is how many times a run sets up at least; setup_s is the
	// median of its set-ups.
	setupReps int
}

// fullShape is the shape every committed reading is taken at. The driver
// gives a run about 25 s for set-up and measuring together, so one pass is
// a few seconds of work and a run measures several passes.
var fullShape = shape{
	crawlDomains: 400, crawlWeeks: 10, crawlWorkers: 64,
	distWorkers: 2, distCrawlWorkers: 32, distPartitions: 8,
	storeDomains: 1200, storeWeeks: 100,
	shards: 2, segments: 2,
	serveClients: 2, serveBatch: 10000,
	hotPages: 2048, coldPages: 32768, hotShare: 0.7,
	samplePages: 64,
	setupReps:   3,
}

// pass is one measured repetition of a workload's timed region.
type pass struct {
	ops, failed int64
	wall, cpu   time.Duration
	// requestMS holds serve-audit's request latencies as its clients saw
	// them; the study workloads leave it nil.
	requestMS []float64
	// bytes is what the pass left behind: on-disk store bytes, or for
	// serve-audit the reply bytes its callers received.
	bytes int64
	// sha is the report's SHA-256 ("" for serve-audit).
	sha string
}

// timed runs fn as the timed region of p.
func (p *pass) timed(fn func() error) error {
	cpu0, t0 := cpuTime(), time.Now()
	err := fn()
	p.wall, p.cpu = time.Since(t0), cpuTime()-cpu0
	return err
}

// env is what a workload is built from.
type env struct {
	seed int64
	sh   shape
	// dir is the run's private scratch directory.
	dir string
	n   int
}

// fresh returns a new, not yet existing path under the scratch directory.
func (e *env) fresh(name string) string {
	e.n++
	return filepath.Join(e.dir, fmt.Sprintf("%s-%03d", name, e.n))
}

// instance is a workload after set-up.
type instance interface {
	// pass runs the timed region once through the product's entry points,
	// then checks its outputs.
	pass() (pass, error)
	// tracedPass runs the same computation re-composed from the layers'
	// exported functions, one span around each call into a layer.
	tracedPass(tr *tracer) (pass, error)
	// probe measures single layers on inputs of the workload (traced runs
	// only), outside the pipeline.
	probe(tr *tracer) error
	// wantSHA is the report hash every pass must reproduce ("" when the
	// passes can only be compared with each other).
	wantSHA() string
	close()
}

// workload is one row of BENCHMARK.json's workloads.
type workload struct {
	name string
	// op names what ops_per_s counts.
	op string
	// setup builds the instance; tr is nil on untraced runs.
	setup func(e *env, tr *tracer) (instance, error)
}

var workloads = []workload{
	{"crawl-live", "page", setupCrawlLive},
	{"crawl-replay", "page", setupCrawlReplay},
	{"dist-crawl", "page", setupDistCrawl},
	{"direct-write", "observation", setupDirectWrite},
	{"store-analyze", "observation", setupStoreAnalyze},
	{"serve-audit", "request", setupServeAudit},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// removeAll deletes a pass's scratch output; a failure to clean up is
// reported but does not fail the run.
func removeAll(path string) {
	if err := os.RemoveAll(path); err != nil {
		fmt.Fprintln(os.Stderr, "bench: cleanup:", err)
	}
}
