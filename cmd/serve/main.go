// Command serve runs the online vulnerability-audit service: the study's
// fingerprint → CVE/TVV-match pipeline behind a production HTTP API.
//
//	serve -addr :8080 -workers 8 -queue 128 -cache 8192 -rate 50 -burst 100
//
// Endpoints: POST /v1/audit (raw HTML, or JSON {"url": ...} fetched through
// the resilient crawler path), GET /v1/libraries, GET /v1/vulns/{lib},
// GET /healthz, GET /metrics (Prometheus text format). SIGINT/SIGTERM
// triggers a graceful shutdown that refuses new connections and drains
// every in-flight audit.
//
// With -batch it instead runs the offline audit gate and starts no
// listener: the NDJSON records of a file (- for stdin) go through the same
// record loop as POST /v1/audit/batch, and stdout gets the bytes that
// endpoint answers with ?policy=server under the same -policy and -now. The
// exit code is 1 when any record errors or fails the policy, so the mode
// slots into CI, and 2 when the gate cannot run.
//
//	serve -batch pages.ndjson -policy gate.yaml -now 2026-01-02T12:00:00Z
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clientres/internal/crawler"
	"clientres/internal/policy"
	"clientres/internal/service"
	"clientres/internal/wexbundle"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	workers := flag.Int("workers", 8, "audit worker pool size")
	queue := flag.Int("queue", 128, "audit queue depth; a full queue sheds with 503 + Retry-After")
	cache := flag.Int("cache", 8192, "response-cache entries (negative disables)")
	rate := flag.Float64("rate", 50, "per-client rate limit in audits/s (0 disables)")
	burst := flag.Int("burst", 100, "per-client burst capacity (0 = 2x rate)")
	maxBody := flag.Int64("max-body", 2<<20, "maximum audit request body bytes")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	fetchURLs := flag.Bool("fetch", true, "enable {\"url\": ...} audits via the resilient crawler fetch path")
	fetchTimeout := flag.Duration("fetch-timeout", 10*time.Second, "deadline of one url audit's whole fetch, every retry and backoff included (0 disables)")
	policyFile := flag.String("policy", "", "server policy file (YAML or JSON); clients select it with \"policy\":\"server\" or ?policy=server")
	nowFlag := flag.String("now", "", "pin the audit clock to an RFC3339 instant (deterministic verdicts; default wall clock)")
	bundle := flag.String("bundle", "", "serve {\"url\": ...} audits from this recorded web-execution bundle instead of the live network (zero network; unrecorded URLs error)")
	batch := flag.String("batch", "", "offline audit gate: run this NDJSON records file (- for stdin) through the batch endpoint's record loop, print its reply and exit, starting no listener")
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	// A bad -policy or -now: the gate's exit code 1 means a failing batch.
	setupFailed := 1
	if *batch != "" {
		setupFailed = 2
	}

	cfg := service.Config{
		Workers: *workers, QueueDepth: *queue, CacheEntries: *cache,
		RatePerSec: *rate, Burst: *burst,
		MaxBodyBytes: *maxBody, DrainTimeout: *drain,
		Logger: log,
	}
	if *policyFile != "" {
		src, err := os.ReadFile(*policyFile)
		if err != nil {
			log.Error("policy", "err", err)
			os.Exit(setupFailed)
		}
		pol, err := policy.Compile(src)
		if err != nil {
			log.Error("policy", "file", *policyFile, "err", err)
			os.Exit(setupFailed)
		}
		cfg.Policy = pol
		log.Info("policy loaded", "file", *policyFile, "name", pol.Name, "rules", len(pol.Rules))
	}
	if *nowFlag != "" {
		t, err := time.Parse(time.RFC3339, *nowFlag)
		if err != nil {
			log.Error("bad -now", "err", err)
			os.Exit(setupFailed)
		}
		cfg.Now = func() time.Time { return t }
	}
	if *batch != "" {
		now := time.Now()
		if cfg.Now != nil {
			now = cfg.Now()
		}
		os.Exit(runBatch(*batch, cfg.Policy, now, log))
	}
	if *fetchURLs {
		ccfg := crawler.Config{
			FetchTimeout: *fetchTimeout,
			UserAgent:    "clientres-audit-service/1.0",
			Resilience: crawler.Resilience{
				Enabled:     true,
				RetryBudget: -1, // online fetches have no weekly budget
			},
		}
		if *bundle != "" {
			b, err := wexbundle.Mount(*bundle)
			if err != nil {
				log.Error("bundle", "err", err)
				os.Exit(1)
			}
			ccfg.WrapTransport = func(http.RoundTripper) http.RoundTripper { return b.Transport() }
			log.Info("bundle mounted", "dir", *bundle, "records", b.Len())
		}
		cr := crawler.New(ccfg)
		cfg.Fetch = func(ctx context.Context, url string) (int, string, error) {
			p := cr.FetchURL(ctx, url)
			return p.Status, p.Body, p.Err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := service.New(cfg)
	addrReady := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(ctx, *addr, addrReady) }()

	select {
	case bound := <-addrReady:
		// The smoke script parses this line to find an ephemeral port.
		fmt.Printf("serving on http://%s\n", bound)
	case err := <-errc:
		log.Error("serve", "err", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil {
		log.Error("serve", "err", err)
		os.Exit(1)
	}
	log.Info("drained and stopped")
}

// runBatch is the offline audit gate: service.RunBatch over a records file,
// NDJSON out on stdout, a summary on stderr. It returns the exit code: 1
// when any record errors or the worst policy verdict is "fail" — the
// auditsite/CI contract — and 2 when the batch cannot be read or written.
func runBatch(path string, pol *policy.Policy, now time.Time, log *slog.Logger) int {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			log.Error("batch", "err", err)
			return 2
		}
		defer f.Close()
		r = f
	}
	sum, err := service.RunBatch(r, os.Stdout, pol, now)
	if err != nil {
		log.Error("batch", "err", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "batch: %d records, %d completed, %d errors, overall %q\n",
		sum.Records, sum.Completed, sum.Errors, sum.Overall)
	if sum.Errors > 0 || sum.Overall == "fail" {
		return 1
	}
	return 0
}
