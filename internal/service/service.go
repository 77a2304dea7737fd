// Package service is the online vulnerability-audit API: a long-running
// HTTP server that exposes the study's batch pipeline — fingerprint a page,
// match the detected versions against the CVE/TVV advisory catalog, report
// hygiene findings — as deterministic, cacheable audit responses.
//
// Endpoints:
//
//	POST /v1/audit      raw HTML body (or JSON {"url":...} / {"html":...})
//	GET  /v1/libraries  the advisory database's library catalog
//	GET  /v1/vulns/{lib} advisories for one library
//	GET  /healthz       liveness probe
//	GET  /metrics       Prometheus text-format counters and latency quantiles
//
// The production plumbing is the point: audits run on a bounded worker pool
// with backpressure (503 + Retry-After when the queue is full), responses
// are cached in a content-hash LRU (same FNV keying philosophy as
// fingerprint.Memo), clients are token-bucket rate limited (429 +
// Retry-After), every request gets an ID and a structured log line,
// per-endpoint latency lands in shared power-of-two histograms
// (internal/metrics), and shutdown drains in-flight audits before the
// workers stop.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	neturl "net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clientres/internal/metrics"
	"clientres/internal/policy"
)

// Config parameterizes a Server.
type Config struct {
	// Workers bounds concurrent audits (default 4).
	Workers int
	// QueueDepth bounds audits waiting for a worker (default 64). A full
	// queue sheds with 503 + Retry-After instead of queueing unboundedly.
	QueueDepth int
	// CacheEntries bounds the content-hash LRU response cache (default
	// 4096; negative disables caching).
	CacheEntries int
	// RatePerSec is the per-client token-bucket refill rate; 0 or negative
	// disables rate limiting. Burst is the bucket capacity (default
	// 2×RatePerSec, at least 1).
	RatePerSec float64
	Burst      int
	// MaxBodyBytes caps an audit request body (default 2 MiB, matching the
	// crawler's page cap).
	MaxBodyBytes int64
	// DrainTimeout bounds how long Serve waits for in-flight requests
	// after shutdown begins (default 30s).
	DrainTimeout time.Duration
	// Fetch retrieves a URL for {"url": ...} audits — cmd/serve wires the
	// resilient crawler fetch path here. nil disables URL audits (501).
	Fetch func(ctx context.Context, url string) (status int, body string, err error)
	// Policy is the server-preloaded audit policy (cmd/serve -policy).
	// Clients select it with "policy":"server" or ?policy=server; nil
	// means no server policy is loaded. Per-rule verdict counters in
	// /metrics exist only for this policy — inline client policies have
	// unbounded rule-name cardinality and count into the aggregate
	// verdict series only.
	Policy *policy.Policy
	// Logger receives one structured line per request; nil discards.
	Logger *slog.Logger
	// Now is the audit clock (PatchAvailableDays, rate-limiter refill);
	// nil means time.Now. Injectable so tests are deterministic.
	Now func() time.Time

	// testHookAuditStart, when set, is called by a worker goroutine as it
	// picks up each audit job — the shutdown test uses it to hold K audits
	// in flight across Shutdown.
	testHookAuditStart func()
	// testHookClientGone, when set, is called by a single audit's handler
	// as it sees its client leave, before it drains the worker's reply.
	testHookClientGone func()
}

// discardHandler is the nil-Logger handler. Its Enabled is false, so a
// discarded request line is never built or formatted (a handler over
// io.Discard formats every record before dropping it). slog.DiscardHandler
// is the same thing but needs Go 1.24.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 2 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// endpointMetrics instruments one route.
type endpointMetrics struct {
	name  string
	total metrics.Counter
	codes [6]metrics.Counter // index = status/100; [0] counts abandoned requests
	lat   metrics.Histogram
}

// ruleMetrics counts one preloaded-policy rule's verdicts by outcome.
type ruleMetrics struct {
	name             string
	pass, warn, fail metrics.Counter
}

// serverMetrics aggregates every counter /metrics exports.
type serverMetrics struct {
	endpoints                              []*endpointMetrics
	cacheHits, cacheMisses, cacheEvictions metrics.Counter
	shedQueue, shedRate                    metrics.Counter
	fetches, fetchFailures                 metrics.Counter
	// Policy verdict counters: aggregate overall outcomes across every
	// evaluation, plus per-rule outcomes for the preloaded policy.
	policyPass, policyWarn, policyFail metrics.Counter
	policyRules                        []*ruleMetrics
	// Batch-stream instrumentation: streams opened, streams currently
	// open (gauge), records submitted/completed/errored/shed.
	batchStreams, batchActive                                   metrics.Counter
	batchRecords, batchCompleted, batchErrors, batchShedRecords metrics.Counter
}

func (m *serverMetrics) endpoint(name string) *endpointMetrics {
	for _, em := range m.endpoints {
		if em.name == name {
			return em
		}
	}
	em := &endpointMetrics{name: name}
	m.endpoints = append(m.endpoints, em)
	return em
}

// Server is the audit service. It implements http.Handler; Serve adds the
// listener lifecycle and graceful drain around it.
type Server struct {
	cfg     Config
	log     *slog.Logger
	mux     *http.ServeMux
	cache   *lruCache    // nil when disabled
	limiter *rateLimiter // nil when disabled
	met     serverMetrics
	jobs    chan *auditJob
	wg      sync.WaitGroup
	closed  sync.Once
	reqSeq  atomic.Int64
	start   time.Time
}

// New builds a Server and starts its worker pool. Callers that do not go
// through Serve must Close it to stop the workers — after, not while,
// requests are in flight.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		log:   cfg.Logger,
		mux:   http.NewServeMux(),
		jobs:  make(chan *auditJob, cfg.QueueDepth),
		start: time.Now(),
	}
	if cfg.CacheEntries > 0 {
		s.cache = newLRUCache(cfg.CacheEntries)
	}
	if cfg.RatePerSec > 0 {
		s.limiter = newRateLimiter(cfg.RatePerSec, cfg.Burst, cfg.Now)
	}
	// Instantiate every endpoint's metrics up front so /metrics exports
	// zero-valued series from the first scrape (counter absence and
	// counter zero mean different things to a reconciler).
	for _, name := range []string{"audit", "audit_batch", "libraries", "vulns", "healthz", "metrics"} {
		s.met.endpoint(name)
	}
	if cfg.Policy != nil {
		for _, r := range cfg.Policy.Rules {
			s.met.policyRules = append(s.met.policyRules, &ruleMetrics{name: r.Name})
		}
	}
	s.mux.HandleFunc("POST /v1/audit", s.instrument("audit", s.handleAudit))
	s.mux.HandleFunc("POST /v1/audit/batch", s.instrument("audit_batch", s.handleAuditBatch))
	s.mux.HandleFunc("GET /v1/libraries", s.instrument("libraries", s.handleLibraries))
	s.mux.HandleFunc("GET /v1/vulns/{lib}", s.instrument("vulns", s.handleVulns))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the worker pool after draining queued audits. It must only
// be called once no handler can still be submitting work (Serve guarantees
// the ordering; direct users shut their http.Server down first).
func (s *Server) Close() {
	s.closed.Do(func() {
		close(s.jobs)
		s.wg.Wait()
	})
}

// Serve runs the service on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes (new connections are refused), in-flight
// requests drain for up to DrainTimeout, and only then does the worker
// pool stop — so every admitted audit completes.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		err := hs.Shutdown(drainCtx)
		s.Close()
		return err
	case err := <-errc:
		// hs.Serve returning (listener failure) does NOT mean handlers are
		// done: connections accepted before the failure may still be
		// mid-request and about to submit to s.jobs. Closing the pool
		// first was a send-on-closed-channel panic; drain handlers with
		// Shutdown before stopping the workers, same as the signal path.
		drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		_ = hs.Shutdown(drainCtx)
		s.Close()
		return err
	}
}

// ListenAndServe binds addr and calls Serve. The bound address (useful
// with ":0") is sent on addrReady when non-nil, before serving begins.
func (s *Server) ListenAndServe(ctx context.Context, addr string, addrReady chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if addrReady != nil {
		addrReady <- ln.Addr()
	}
	return s.Serve(ctx, ln)
}

// audited is one audit's reply as the cache banks it: the response bytes
// every door writes verbatim, and the policy document built from the same
// AuditResponse at the audit clock. Every hit on the entry shares both, so
// neither is ever written after the worker sends them; evalPolicy
// evaluates a copy of doc carrying the request clock.
type audited struct {
	body []byte
	doc  *policy.Doc
}

// auditJob is one queued audit; reply is buffered so a worker never blocks
// on a handler that abandoned the request.
type auditJob struct {
	html, host string
	now        time.Time
	reply      chan audited
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		if s.cfg.testHookAuditStart != nil {
			s.cfg.testHookAuditStart()
		}
		resp := Audit(j.html, j.host, j.now)
		b, err := json.Marshal(resp)
		if err != nil {
			// Cannot happen for AuditResponse (no unmarshalable fields);
			// degrade to an empty object, and the document of the zero
			// response it decodes to, rather than drop the reply.
			resp, b = AuditResponse{}, []byte("{}")
		}
		doc := resp.PolicyDoc(j.now)
		ownPageStrings(doc)
		j.reply <- audited{body: append(b, '\n'), doc: doc}
	}
}

// ownPageStrings moves the strings doc shares with the audited page into
// one allocation of their own. Audit cuts a library's slug, version, host
// and crossorigin value, and the WordPress version, out of the page's
// HTML, so a banked document would otherwise keep the whole request body
// alive for as long as its cache entry lives: up to MaxBodyBytes per
// entry, and a live heap that grows and shrinks with the size of the
// pages that happen to be resident.
func ownPageStrings(doc *policy.Doc) {
	n := len(doc.WordPress)
	for _, l := range doc.Libraries {
		n += len(l.Slug) + len(l.Version) + len(l.Host) + len(l.Crossorigin)
	}
	for _, f := range doc.Findings {
		n += len(f.Library) + len(f.Version)
	}
	// The builder is grown once and only appended to, so every string cut
	// from it stays valid and they all share its one array.
	var sb strings.Builder
	sb.Grow(n)
	own := func(s string) string {
		start := sb.Len()
		sb.WriteString(s)
		return sb.String()[start:]
	}
	doc.WordPress = own(doc.WordPress)
	for i := range doc.Libraries {
		l := &doc.Libraries[i]
		l.Slug, l.Version, l.Host, l.Crossorigin = own(l.Slug), own(l.Version), own(l.Host), own(l.Crossorigin)
	}
	for i := range doc.Findings {
		f := &doc.Findings[i]
		f.Library, f.Version = own(f.Library), own(f.Version)
	}
}

// statusWriter records the status and byte count a handler produced.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// Flush forwards http.Flusher, which the NDJSON batch endpoint needs for
// record-by-record delivery — without the passthrough the wrapper hides
// the underlying writer's flushability and batch output buffers to
// completion.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer's
// optional interfaces through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler with request IDs, status/latency metrics, and
// one structured log line per request.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	em := s.met.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		id := requestID(uint64(s.reqSeq.Add(1)))
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		startReq := time.Now()
		h(sw, r)
		d := time.Since(startReq)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		em.total.Inc()
		if cls := sw.status / 100; cls >= 1 && cls <= 5 {
			em.codes[cls].Inc()
		} else {
			em.codes[0].Inc()
		}
		em.lat.Record(d)
		// The guard skips clientKey and the attribute boxing for a line
		// the logger would drop.
		if !s.log.Enabled(r.Context(), slog.LevelInfo) {
			return
		}
		s.log.InfoContext(r.Context(), "request",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"dur_us", d.Microseconds(),
			"cache", sw.Header().Get("X-Cache"),
			"client", clientKey(r),
		)
	}
}

// requestID renders n as fmt's "req-%08x" does: lower-case hex,
// zero-padded to eight digits.
func requestID(n uint64) string {
	var buf [4 + 16]byte
	b := append(buf[:0], "req-"...)
	var hex [16]byte
	digits := strconv.AppendUint(hex[:0], n, 16)
	for i := len(digits); i < 8; i++ {
		b = append(b, '0')
	}
	return string(append(b, digits...))
}

// maxClientKeyLen bounds the first X-Forwarded-For hop we will consider:
// the longest textual IP (IPv6 with a zone) is well under this, and
// anything longer is an attacker padding rate-limit map keys.
const maxClientKeyLen = 64

// clientKey identifies the client for rate limiting: the first
// X-Forwarded-For hop when present (the expected reverse-proxy
// deployment), else the remote IP. XFF is attacker-controlled, so it only
// counts when it actually parses as an IP — otherwise a client spraying
// long random header values would mint a fresh ~64KiB bucket per request
// (until epoch reset) and trivially escape its own bucket. Parsed IPs are
// canonicalized, so "::1" and "0:0::1" share one bucket.
func clientKey(r *http.Request) string {
	if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
		if i := strings.IndexByte(xff, ','); i >= 0 {
			xff = xff[:i]
		}
		xff = strings.TrimSpace(xff)
		if len(xff) <= maxClientKeyLen {
			if ip := net.ParseIP(xff); ip != nil {
				return ip.String()
			}
		}
		// Fall through: an unparseable hop is ignored, and the request is
		// accounted to the peer that actually connected.
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// auditRequest is the JSON form of POST /v1/audit.
type auditRequest struct {
	// URL audits a live page fetched through the resilient crawler path.
	URL string `json:"url,omitempty"`
	// HTML audits an inline document; Host sets the serving host for
	// internal/external classification (default defaultHost).
	HTML string `json:"html,omitempty"`
	Host string `json:"host,omitempty"`
	// Policy selects a policy to evaluate against the audit: the JSON
	// string "server" for the preloaded policy, an inline JSON policy
	// object, or a JSON string holding YAML/JSON policy source. When set,
	// the response becomes {"audit":…,"policy":…}; null means unset.
	Policy json.RawMessage `json:"policy,omitempty"`
}

// defaultHost serves an audit whose request names no host.
const defaultHost = "audit.local"

// noPolicy reports a "policy" member that selects nothing: absent or JSON
// null (json.RawMessage keeps the literal).
func noPolicy(raw json.RawMessage) bool {
	return len(raw) == 0 || string(raw) == "null"
}

// resolvePolicy picks the policy for a request or batch stream: the JSON
// "policy" member when present, else the ?policy=server query toggle (the
// only selector a raw-HTML POST can express). isServer reports the
// preloaded policy was chosen — only that policy has per-rule metric
// series.
func (s *Server) resolvePolicy(raw json.RawMessage, query string) (pol *policy.Policy, isServer bool, err error) {
	if noPolicy(raw) {
		switch query {
		case "":
			return nil, false, nil
		case "server", "1", "true":
			raw = []byte(`"server"`)
		default:
			return nil, false, fmt.Errorf("unknown policy selector %q (want server)", query)
		}
	}
	if len(raw) > policy.MaxSourceBytes {
		return nil, false, fmt.Errorf("inline policy larger than %d bytes", policy.MaxSourceBytes)
	}
	var src string
	if json.Unmarshal(raw, &src) == nil {
		switch src {
		case "server", "default":
			if s.cfg.Policy == nil {
				return nil, false, fmt.Errorf("no server policy is loaded")
			}
			return s.cfg.Policy, true, nil
		default:
			// A string that is not a selector is inline policy source
			// (YAML or JSON) passed through as text.
			pol, err = policy.Compile([]byte(src))
			return pol, false, err
		}
	}
	pol, err = policy.Compile(raw)
	return pol, false, err
}

// admit spends the request's rate-limit token; false means it was
// refused with 429 and the handler must stop.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if s.limiter == nil {
		return true
	}
	retry, ok := s.limiter.allow(clientKey(r))
	if !ok {
		s.met.shedRate.Inc()
		w.Header().Set("Retry-After", retryAfterSeconds(retry))
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
	}
	return ok
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "error reading request body", http.StatusBadRequest)
		}
		return
	}

	html := string(body)
	host := r.URL.Query().Get("host")
	var polRaw json.RawMessage
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		var req auditRequest
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, "invalid JSON body", http.StatusBadRequest)
			return
		}
		polRaw = req.Policy
		switch {
		case req.URL != "":
			if s.cfg.Fetch == nil {
				http.Error(w, "url audits are not enabled on this server", http.StatusNotImplemented)
				return
			}
			u, err := neturl.Parse(req.URL)
			if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
				http.Error(w, "invalid audit url", http.StatusBadRequest)
				return
			}
			s.met.fetches.Inc()
			status, page, err := s.cfg.Fetch(r.Context(), req.URL)
			if err != nil {
				s.met.fetchFailures.Inc()
				http.Error(w, "upstream fetch failed", http.StatusBadGateway)
				return
			}
			if status != http.StatusOK {
				s.met.fetchFailures.Inc()
				http.Error(w, fmt.Sprintf("upstream returned status %d", status), http.StatusBadGateway)
				return
			}
			html, host = page, u.Host
		case req.HTML != "":
			html = req.HTML
			if req.Host != "" {
				host = req.Host
			}
		default:
			http.Error(w, "one of \"url\" or \"html\" is required", http.StatusBadRequest)
			return
		}
	}
	if host == "" {
		host = defaultHost
	}
	pol, isServerPol, err := s.resolvePolicy(polRaw, r.URL.Query().Get("policy"))
	if err != nil {
		http.Error(w, "bad policy: "+err.Error(), http.StatusBadRequest)
		return
	}
	now := s.cfg.Now()

	key := cacheKey{hash: fnv1a64(html), n: len(html), host: host}
	res, hit := s.cached(key)
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		job := &auditJob{html: html, host: host, now: now, reply: make(chan audited, 1)}
		if !s.submit(job) {
			s.met.shedQueue.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "audit queue full", http.StatusServiceUnavailable)
			return
		}
		select {
		case res = <-job.reply:
			s.bank(key, res)
			if s.cache != nil {
				w.Header().Set("X-Cache", "miss")
			}
		case <-r.Context().Done():
			// The client went away after the audit was admitted. The work
			// is already paid for — drain the worker's buffered reply and
			// bank it in the cache so the client's retry is a hit, rather
			// than dropping a fully-computed response on the floor.
			if s.cfg.testHookClientGone != nil {
				s.cfg.testHookClientGone()
			}
			if s.cache != nil {
				s.bank(key, <-job.reply)
			}
			http.Error(w, "client closed request", http.StatusServiceUnavailable)
			return
		}
	}
	if pol == nil {
		writeJSONBytes(w, res.body)
		return
	}
	verdictJSON, overall, err := s.verdict(pol, isServerPol, res.doc, now)
	if err != nil {
		http.Error(w, "policy evaluation failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("X-Policy-Verdict", overall)
	writeJSONBytes(w, policyEnvelope(res.body, verdictJSON))
}

// submit tries to queue one audit without blocking; false means the queue
// is full and the caller must shed.
func (s *Server) submit(job *auditJob) bool {
	select {
	case s.jobs <- job:
		return true
	default:
		return false
	}
}

// cached, bank and verdict are the only steps that touch the response
// cache or evaluate a policy, for single audits and batch records alike.
// With a cache, every admitted audit is exactly one hit (cached) or one
// miss (bank) — also when its client has left before the reply.

// cached returns the banked reply for key, counting the hit.
func (s *Server) cached(key cacheKey) (audited, bool) {
	if s.cache == nil {
		return audited{}, false
	}
	res, ok := s.cache.get(key)
	if ok {
		s.met.cacheHits.Inc()
	}
	return res, ok
}

// bank stores a worker's reply, counting the miss and any evictions.
// Misses only exist where a cache does: with caching disabled the counter
// stays zero instead of narrating traffic a nonexistent cache never saw.
func (s *Server) bank(key cacheKey, res audited) {
	if s.cache == nil {
		return
	}
	s.met.cacheMisses.Inc()
	if ev := s.cache.add(key, res); ev > 0 {
		s.met.cacheEvictions.Add(int64(ev))
	}
}

// verdict evaluates pol against one audit reply's document as of now and
// counts the outcome, returning the verdict JSON and its overall outcome.
func (s *Server) verdict(pol *policy.Policy, isServerPol bool, doc *policy.Doc, now time.Time) ([]byte, string, error) {
	vj, v, err := evalPolicy(pol, doc, now)
	if err != nil {
		return nil, "", err
	}
	s.observeVerdict(v, isServerPol)
	return vj, v.Overall, nil
}

// observeVerdict feeds a policy evaluation into /metrics: aggregate
// overall counters always, per-rule counters only for the preloaded
// policy (bounded cardinality — its rule list is fixed at startup).
func (s *Server) observeVerdict(v policy.Verdict, isServerPol bool) {
	switch v.Overall {
	case "fail":
		s.met.policyFail.Inc()
	case "warn":
		s.met.policyWarn.Inc()
	default:
		s.met.policyPass.Inc()
	}
	if !isServerPol {
		return
	}
	for i, rv := range v.Rules {
		if i >= len(s.met.policyRules) {
			break
		}
		switch rv.Outcome {
		case "fail":
			s.met.policyRules[i].fail.Inc()
		case "warn":
			s.met.policyRules[i].warn.Inc()
		default:
			s.met.policyRules[i].pass.Inc()
		}
	}
}

// libraryEntry is one row of GET /v1/libraries.
type libraryEntry struct {
	Slug         string `json:"slug"`
	Name         string `json:"name"`
	Discontinued bool   `json:"discontinued,omitempty"`
	Successor    string `json:"successor,omitempty"`
	Releases     int    `json:"releases"`
	Latest       string `json:"latest,omitempty"`
	LatestDate   string `json:"latest_date,omitempty"`
	Advisories   int    `json:"advisories"`
}

func (s *Server) handleLibraries(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"libraries": libraryEntries()})
}

// vulnEntry is one advisory row of GET /v1/vulns/{lib}.
type vulnEntry struct {
	ID        string `json:"id"`
	Attack    string `json:"attack"`
	Severity  string `json:"severity"`
	CVERange  string `json:"cve_range"`
	TrueRange string `json:"true_range"`
	// Accuracy classifies the CVE range against the validated range over
	// the library's release catalog (Section 6.4).
	Accuracy    string `json:"accuracy"`
	Patched     string `json:"patched,omitempty"`
	Disclosed   string `json:"disclosed"`
	PatchDate   string `json:"patch_date,omitempty"`
	HasPoC      bool   `json:"has_poc,omitempty"`
	Conditional bool   `json:"conditional,omitempty"`
}

func (s *Server) handleVulns(w http.ResponseWriter, r *http.Request) {
	slug := r.PathValue("lib")
	entries, ok := vulnEntries(slug)
	if !ok {
		http.Error(w, "unknown library", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"library": slug, "advisories": entries})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_s":  int64(time.Since(s.start).Seconds()),
		"queue_cap": s.cfg.QueueDepth,
		"workers":   s.cfg.Workers,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(b, '\n'))
}

func writeJSONBytes(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// retryAfterSeconds renders a Retry-After value, rounding up so clients
// never retry before a token is actually available.
func retryAfterSeconds(d time.Duration) string {
	secs := int64(d / time.Second)
	if d%time.Second != 0 || secs == 0 {
		secs++
	}
	return strconv.FormatInt(secs, 10)
}
