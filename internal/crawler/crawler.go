// Package crawler implements the study's landing-page crawler (Section 4.1).
//
// Like the paper's collector it is a Go net/http crawler that visits every
// domain of the ranked list once per snapshot week, records the landing
// page, and tolerates the open Web's failure modes: refused connections,
// timeouts, 4xx anti-bot answers, and 5xx flakiness. Fetches run on a
// bounded worker pool; results stream to the caller in completion order.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	neturl "net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clientres/internal/htmlx"
	"clientres/internal/webserver"
)

// Config parameterizes a Crawler.
type Config struct {
	// BaseURL is the root of the web under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Workers bounds concurrent fetches (default 64, what cmd/crawl and
	// cmd/worker ship).
	Workers int
	// Timeout bounds one attempt — one HTTP exchange, headers and body
	// read — with a context deadline (default 10s).
	Timeout time.Duration
	// FetchTimeout, when positive, bounds one whole Fetch or FetchURL —
	// every attempt, backoff sleep, and same-site script fetch of one
	// (domain, week) or URL — with a context deadline. Unlike Timeout (one HTTP exchange) it caps
	// the worst case across retries, so a single hung host cannot stall a
	// crawl slot longer than the deadline; the expired fetch surfaces as
	// the usual Status-0 page, not a crawl failure.
	FetchTimeout time.Duration
	// Retries is the number of re-attempts after connection-level errors
	// (default 1). HTTP error statuses are never retried — they are data.
	// Pass NoRetries to request exactly one attempt: the config zero value
	// means "default", so a plain 0 cannot express zero retries.
	Retries int
	// MaxBodyBytes caps how much of a page is read (default 2 MiB).
	MaxBodyBytes int64
	// UserAgent identifies the crawler.
	UserAgent string
	// Backoff shapes the delay between retry attempts: exponential with
	// deterministic per-(host, attempt) jitter. The zero value uses the
	// defaults (50ms base, 2s cap, ×2 growth). Always active — unlike the
	// Resilience layer it needs no opt-in.
	Backoff Backoff
	// Sleep waits out a backoff delay: nil after d, or ctx's error as soon
	// as ctx is done. Nil means a real timer. It is the crawler's clock
	// seam, as the breaker's injectable now is: Backoff still decides which
	// retry waits how long, and a crawl replayed from an archive, whose
	// answers cannot change, mounts a Sleep that does not wait.
	Sleep func(ctx context.Context, d time.Duration) error
	// Resilience enables the per-host politeness limiter, circuit breaker,
	// and weekly retry budget. The zero value disables all three, leaving
	// fetch behavior identical to a crawler without the layer.
	Resilience Resilience
	// FetchScripts, when true, additionally fetches every same-site
	// <script src> of a successfully fetched landing page and attaches the
	// bodies to Page.Scripts, so bundle-aware fingerprinting can scan
	// script content. Cross-origin srcs (absolute or protocol-relative
	// URLs) are skipped: the study crawls landing pages only, and the
	// synthetic web under test serves same-site assets exclusively.
	FetchScripts bool
	// WrapTransport, when set, wraps (or replaces) the http.RoundTripper
	// the crawler would otherwise build — the record/replay seam. The
	// wexbundle recorder wraps the inner transport to capture every
	// response; the replayer discards it entirely, so a replayed crawl
	// cannot touch the network even by accident.
	WrapTransport func(inner http.RoundTripper) http.RoundTripper
}

// MaxScriptsPerPage bounds how many same-site scripts one page fetch will
// follow — a defensive cap against adversarial pages, far above anything
// the generator emits.
const MaxScriptsPerPage = 32

// Resilience parameterizes the opt-in per-host resilience layer.
type Resilience struct {
	// Enabled turns the layer on.
	Enabled bool
	// MaxPerHost bounds in-flight requests per host (default 2).
	MaxPerHost int
	// MinGap is the minimum interval between request starts on one host
	// (default 15ms). Retries against a host observe it too.
	MinGap time.Duration
	// BreakerThreshold consecutive connection-level failures open a host's
	// circuit (default 3). HTTP error statuses never count.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit sheds load before
	// admitting a half-open probe (default 30s).
	BreakerCooldown time.Duration
	// RetryBudget caps total retries per CrawlWeek, shared across all
	// hosts, so a globally-degraded week degrades gracefully instead of
	// multiplying timeouts (0 = one retry per domain, negative =
	// unlimited).
	RetryBudget int
}

// ErrHostSuspended is wrapped into Page.Err when the circuit breaker sheds
// a fetch without attempting a connection. The page records as an ordinary
// connection failure (Status 0).
var ErrHostSuspended = errors.New("host suspended by circuit breaker")

// NoRetries is the Config.Retries sentinel requesting a single fetch
// attempt with no connection-level re-tries.
const NoRetries = -1

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 64
	}
	if c.Timeout == 0 {
		c.Timeout = 10 * time.Second
	}
	switch {
	case c.Retries == 0:
		c.Retries = 1
	case c.Retries < 0:
		c.Retries = 0
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 2 << 20
	}
	if c.UserAgent == "" {
		c.UserAgent = "clientres-study-crawler/1.0"
	}
	if c.Sleep == nil {
		c.Sleep = sleepCtx
	}
	return c
}

// Page is the outcome of one (domain, week) fetch.
type Page struct {
	Domain string
	Week   int
	// Status is the HTTP status, or 0 when the connection failed.
	Status int
	// Body is the landing page HTML ("" on failure).
	Body string
	// Scripts holds the fetched same-site script bodies, in page order,
	// when Config.FetchScripts is set. A script that failed to fetch keeps
	// its URL with an empty Body — the scanner skips empties, so a flaky
	// asset degrades detection instead of failing the page.
	Scripts []Script
	// Err is the connection-level error, if any.
	Err error
	// Duration is the wall time of the attempt that produced this result
	// (the successful attempt, or the last failed one). Retried attempts'
	// backoff sleeps are excluded: this is honest per-fetch timing for
	// bundle recording, not end-to-end latency.
	Duration time.Duration
}

// Script is one fetched same-site script resource.
type Script struct {
	// URL is the src attribute exactly as written on the page.
	URL string
	// Body is the script content ("" when the fetch failed).
	Body string
	// Status is the HTTP status of the script fetch (0 on connection
	// failure), recorded even though a non-200 script keeps an empty Body.
	Status int
	// Duration is the wall time of the attempt that produced this result.
	Duration time.Duration
}

// Crawler fetches landing pages.
type Crawler struct {
	cfg     Config
	client  *http.Client
	backoff Backoff
	// polite, breaker, and budget are non-nil only with Resilience.Enabled.
	polite  *Politeness
	breaker *Breaker
	// budget is the week's remaining retry allowance; CrawlWeek pins it at
	// the start of each week, so standalone Fetch calls before the first
	// week see an effectively unlimited budget.
	budget  *atomic.Int64
	metrics Metrics
}

// New builds a Crawler. The underlying http.Client reuses connections
// across fetches.
func New(cfg Config) *Crawler {
	cfg = cfg.withDefaults()
	var transport http.RoundTripper = &http.Transport{
		MaxIdleConns:        cfg.Workers * 2,
		MaxIdleConnsPerHost: cfg.Workers * 2,
		IdleConnTimeout:     30 * time.Second,
	}
	if cfg.WrapTransport != nil {
		transport = cfg.WrapTransport(transport)
	}
	c := &Crawler{
		cfg:     cfg,
		client:  &http.Client{Transport: transport},
		backoff: cfg.Backoff.withDefaults(),
	}
	if r := cfg.Resilience; r.Enabled {
		maxPerHost := r.MaxPerHost
		if maxPerHost == 0 {
			maxPerHost = 2
		}
		minGap := r.MinGap
		if minGap == 0 {
			minGap = 15 * time.Millisecond
		}
		c.polite = NewPoliteness(maxPerHost, minGap)
		c.breaker = NewBreaker(r.BreakerThreshold, r.BreakerCooldown)
		if r.RetryBudget >= 0 {
			c.budget = new(atomic.Int64)
			c.budget.Store(math.MaxInt64)
		}
	}
	return c
}

// Metrics returns a snapshot of the crawler's cumulative counters.
func (c *Crawler) Metrics() MetricsSnapshot { return c.metrics.Snapshot() }

// takeBudget consumes one retry from the shared weekly budget, reporting
// false when the budget is spent.
func takeBudget(budget *atomic.Int64) bool {
	for {
		v := budget.Load()
		if v <= 0 {
			return false
		}
		if budget.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// sleepCtx sleeps for d or until ctx is done, returning the context error
// in the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Fetch retrieves one domain's landing page for a snapshot week, plus its
// same-site scripts when Config.FetchScripts is set.
func (c *Crawler) Fetch(ctx context.Context, week int, domain string) Page {
	ctx, cancel := c.deadline(ctx)
	defer cancel()
	page := c.fetch(ctx, week, domain, c.cfg.BaseURL+webserver.PageURL(week, domain))
	if c.cfg.FetchScripts && page.Err == nil && page.Status == http.StatusOK {
		page.Scripts = c.fetchScripts(ctx, week, domain, page.Body)
	}
	return page
}

// fetchScripts retrieves the same-site script resources referenced by a
// landing page, through the same resilient fetch path as the page itself
// (same backoff schedule, politeness gate, and breaker circuit — all keyed
// by the domain). Cross-origin srcs are skipped, failed fetches keep their
// URL with an empty body.
func (c *Crawler) fetchScripts(ctx context.Context, week int, domain, html string) []Script {
	var out []Script
	for _, src := range htmlx.ScriptSrcs(html) {
		if !sameSitePath(src) {
			continue // landing-page study fetches same-site scripts only
		}
		if len(out) >= MaxScriptsPerPage {
			break
		}
		sp := c.fetch(ctx, week, domain, c.cfg.BaseURL+webserver.AssetURL(week, domain, src))
		body := ""
		if sp.Err == nil && sp.Status == http.StatusOK {
			body = sp.Body
		}
		out = append(out, Script{URL: src, Body: body, Status: sp.Status, Duration: sp.Duration})
	}
	return out
}

// sameSitePath reports whether a script src names a path on the page's own
// site: it has no scheme ("https:", "data:", "javascript:", "blob:") and
// no authority ("//cdn.example/x.js"). A scheme is a letter followed by
// letters, digits, '+', '-' and '.', ended by the first ':' with no '/',
// '?' or '#' before it — so "/r?u=https://a/b.js" is a same-site path.
func sameSitePath(src string) bool {
	if strings.HasPrefix(src, "//") {
		return false
	}
	for i := 0; i < len(src); i++ {
		switch c := src[i]; {
		case c == ':':
			return i == 0
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
		case '0' <= c && c <= '9' || c == '+' || c == '-' || c == '.':
			if i == 0 {
				return true
			}
		default:
			return true
		}
	}
	return true
}

// FetchURL retrieves an arbitrary http(s) URL through the same resilient
// fetch path as Fetch — retry with backoff, per-host politeness, circuit
// breaker, retry budget, the FetchTimeout deadline — keyed by the URL's
// host. The online audit
// service uses this for {"url": ...} audits. Page.Domain is the host and
// Page.Week is 0.
func (c *Crawler) FetchURL(ctx context.Context, rawurl string) Page {
	u, err := neturl.Parse(rawurl)
	if err != nil {
		return Page{Domain: rawurl, Err: fmt.Errorf("crawler: parse url: %w", err)}
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return Page{Domain: u.Host, Err: fmt.Errorf("crawler: unsupported url %q", rawurl)}
	}
	ctx, cancel := c.deadline(ctx)
	defer cancel()
	return c.fetch(ctx, 0, u.Host, rawurl)
}

// deadline bounds ctx by Config.FetchTimeout, when it is positive.
func (c *Crawler) deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.cfg.FetchTimeout > 0 {
		return context.WithTimeout(ctx, c.cfg.FetchTimeout)
	}
	return ctx, func() {}
}

// fetch is the shared resilient fetch loop; domain keys the backoff
// schedule, politeness gate, breaker circuit, and retry budget.
func (c *Crawler) fetch(ctx context.Context, week int, domain, url string) Page {
	page := Page{Domain: domain, Week: week}
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			if c.budget != nil && !takeBudget(c.budget) {
				c.metrics.budgetExhausted.Add(1)
				break
			}
			c.metrics.retries.Add(1)
			start := time.Now()
			err := c.cfg.Sleep(ctx, c.backoff.Delay(domain, attempt))
			c.metrics.waited.Add(int64(time.Since(start)))
			if err != nil {
				page.Err = err
				return page
			}
		}
		if c.breaker != nil && !c.breaker.Allow(domain) {
			c.metrics.breakerShed.Add(1)
			if lastErr == nil {
				lastErr = ErrHostSuspended
			}
			break
		}
		if c.polite != nil {
			if err := c.polite.Acquire(ctx, domain); err != nil {
				page.Err = err
				return page
			}
		}
		status, body, dur, err := c.attempt(ctx, url)
		page.Duration = dur
		if c.polite != nil {
			c.polite.Release(domain)
		}
		if err != nil {
			if c.breaker != nil && c.breaker.Failure(domain) {
				c.metrics.breakerTrips.Add(1)
			}
			// A cancelled context is the caller giving up, not the host
			// failing: surface it immediately instead of burning the
			// remaining retries against a dead deadline.
			if ctx.Err() != nil {
				page.Err = ctx.Err()
				return page
			}
			lastErr = err
			continue
		}
		if c.breaker != nil {
			c.breaker.Success(domain)
		}
		page.Status = status
		page.Body = body
		page.Err = nil
		return page
	}
	page.Err = fmt.Errorf("crawler: %s week %d: %w", domain, week, lastErr)
	return page
}

// drainLimit bounds how much of a truncated body attempt reads past
// MaxBodyBytes: enough to reach EOF on moderately-oversized pages (keeping
// the keep-alive connection reusable), small enough that a huge page costs
// a connection rather than an unbounded read.
const drainLimit = 256 << 10

// attempt performs one HTTP request and returns the status, (truncated)
// body, and the attempt's wall time. Connection-level failures — dial,
// timeout, mid-body errors — come back as err, still with the time the
// failure took to surface.
//
// Config.Timeout is the deadline of the attempt's context, which covers Do
// and the body read alike. It is not http.Client.Timeout: for a transport
// that is not an *http.Transport — the record and replay wrappers — that
// would cost a timer goroutine per request.
func (c *Crawler) attempt(ctx context.Context, url string) (status int, body string, dur time.Duration, err error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, "", 0, err
	}
	req.Header.Set("User-Agent", c.cfg.UserAgent)
	c.metrics.attempts.Add(1)
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		c.metrics.connFailures.Add(1)
		return 0, "", time.Since(start), err
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxBodyBytes))
	if err == nil {
		// Read a bounded remainder so the transport sees EOF and can
		// recycle the connection; closing with unread bytes kills it.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
	}
	_ = resp.Body.Close()
	dur = time.Since(start)
	if err != nil {
		c.metrics.connFailures.Add(1)
		return 0, "", dur, err
	}
	c.metrics.successes.Add(1)
	c.metrics.bytes.Add(int64(len(b)))
	c.metrics.lat.Record(dur)
	return resp.StatusCode, string(b), dur, nil
}

// CrawlWeek fetches every domain for one snapshot week on the worker pool
// and calls fn for each result from a single goroutine, in completion order.
// It returns the first context error, if any.
//
// The single-goroutine callback delivery is a documented contract, not an
// implementation accident: callers capture unsynchronized state in fn
// (core's observation error, test accumulators) and rely on it. CrawlWeek
// also does not return until every completed fetch has been delivered to
// fn. TestCrawlWeekCallbackSingleGoroutine fails under -race if either
// property breaks.
func (c *Crawler) CrawlWeek(ctx context.Context, week int, domains []string, fn func(Page)) error {
	if c.budget != nil {
		// Pin the week's shared retry budget: every fetch of the week draws
		// from the same pool, so a globally-degraded ecosystem stops
		// retrying once the allowance is spent instead of timing out
		// (retries+1)× per domain.
		n := int64(c.cfg.Resilience.RetryBudget)
		if n == 0 {
			n = int64(len(domains))
		}
		c.budget.Store(n)
	}
	jobs := make(chan string)
	results := make(chan Page)

	var wg sync.WaitGroup
	for i := 0; i < c.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for domain := range jobs {
				results <- c.Fetch(ctx, week, domain)
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, d := range domains {
			select {
			case jobs <- d:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	for page := range results {
		fn(page)
	}
	return ctx.Err()
}
