package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// vulnerablePage exhibits the paper's headline problems: an outdated
// jQuery, an old Bootstrap, an uncovered CDN include, and an insecure
// Flash embed.
const vulnerablePage = `<!DOCTYPE html><html><head>
<script src="https://code.jquery.com/jquery-1.12.4.min.js"></script>
<script src="https://maxcdn.bootstrapcdn.com/bootstrap/3.3.7/js/bootstrap.min.js"></script>
</head><body><embed src="/x.swf" allowscriptaccess="always"></body></html>`

// fixedNow keeps PatchAvailableDays (and so cached bodies) deterministic.
var fixedNow = time.Date(2026, time.January, 2, 12, 0, 0, 0, time.UTC)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Now == nil {
		cfg.Now = func() time.Time { return fixedNow }
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func postAudit(s *Server, body string, contentType string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/audit?host=example.com", strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestAuditRawHTML(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := postAudit(s, vulnerablePage, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("X-Request-Id") == "" {
		t.Error("missing X-Request-Id")
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss", got)
	}
	var resp AuditResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if resp.Host != "example.com" {
		t.Errorf("host = %q", resp.Host)
	}
	if len(resp.Libraries) != 2 {
		t.Fatalf("libraries = %+v", resp.Libraries)
	}
	byAdv := map[string]AuditFinding{}
	for _, f := range resp.Findings {
		byAdv[f.Advisory] = f
	}
	if _, ok := byAdv["CVE-2020-11023"]; !ok {
		t.Errorf("missing jQuery CVE-2020-11023: %+v", resp.Findings)
	}
	if _, ok := byAdv["CVE-2019-8331"]; !ok {
		t.Errorf("missing Bootstrap CVE-2019-8331: %+v", resp.Findings)
	}
	// CVE-2019-11358 was patched in jQuery 3.4.0 (2019-04-10): by the
	// fixed audit clock the fix has been out 2459 days.
	if f := byAdv["CVE-2019-11358"]; f.FixedIn != "3.4.0" || f.PatchAvailableDays != 2459 {
		t.Errorf("CVE-2019-11358 patch info wrong: %+v", f)
	}
	if !resp.VulnerableTVV || !resp.VulnerableCVE {
		t.Errorf("vulnerability verdicts wrong: %+v", resp)
	}
	if resp.MissingSRI != 2 {
		t.Errorf("MissingSRI = %d, want 2", resp.MissingSRI)
	}
	if !resp.UsesFlash || !resp.InsecureFlash {
		t.Error("flash flags wrong")
	}
}

func TestAuditCacheHitIsByteIdentical(t *testing.T) {
	s := newTestServer(t, Config{})
	first := postAudit(s, vulnerablePage, "")
	second := postAudit(s, vulnerablePage, "")
	if first.Code != 200 || second.Code != 200 {
		t.Fatalf("statuses = %d, %d", first.Code, second.Code)
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cached response differs from cold response")
	}
	if s.met.cacheHits.Load() != 1 || s.met.cacheMisses.Load() != 1 {
		t.Errorf("cache counters hits=%d misses=%d, want 1/1",
			s.met.cacheHits.Load(), s.met.cacheMisses.Load())
	}
}

// TestAuditHostChangesVerdict pins that the cache keys on (content, host):
// the same bytes served from the including host flip inclusions internal.
func TestAuditHostChangesVerdict(t *testing.T) {
	s := newTestServer(t, Config{})
	page := `<script src="https://code.jquery.com/jquery-1.12.4.min.js"></script>`
	req1 := postAudit(s, page, "")
	req := httptest.NewRequest(http.MethodPost, "/v1/audit?host=code.jquery.com", strings.NewReader(page))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Header().Get("X-Cache") != "miss" {
		t.Fatal("different host must not hit the other host's cache entry")
	}
	var a, b AuditResponse
	if err := json.Unmarshal(req1.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if a.MissingSRI != 1 || b.MissingSRI != 0 {
		t.Errorf("MissingSRI = %d/%d, want 1/0 (internal inclusion needs no SRI)", a.MissingSRI, b.MissingSRI)
	}
}

func TestAuditJSONInline(t *testing.T) {
	s := newTestServer(t, Config{})
	body, _ := json.Marshal(auditRequest{HTML: vulnerablePage, Host: "example.org"})
	rec := postAudit(s, string(body), "application/json")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp AuditResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Host != "example.org" || len(resp.Findings) == 0 {
		t.Errorf("JSON inline audit wrong: %+v", resp)
	}
}

func TestAuditJSONURL(t *testing.T) {
	fetched := ""
	s := newTestServer(t, Config{
		Fetch: func(_ context.Context, url string) (int, string, error) {
			fetched = url
			return 200, vulnerablePage, nil
		},
	})
	body := `{"url": "http://upstream.test/"}`
	rec := postAudit(s, body, "application/json")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if fetched != "http://upstream.test/" {
		t.Errorf("fetched %q", fetched)
	}
	var resp AuditResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Host != "upstream.test" {
		t.Errorf("host = %q, want upstream.test", resp.Host)
	}
	if s.met.fetches.Load() != 1 || s.met.fetchFailures.Load() != 0 {
		t.Error("fetch counters wrong")
	}
}

func TestAuditJSONURLErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		body string
		want int
	}{
		{"no fetcher", Config{}, `{"url": "http://x.test/"}`, http.StatusNotImplemented},
		{"bad scheme", Config{Fetch: fetchOK}, `{"url": "file:///etc/passwd"}`, http.StatusBadRequest},
		{"no host", Config{Fetch: fetchOK}, `{"url": "http://"}`, http.StatusBadRequest},
		{"fetch error", Config{Fetch: fetchErr}, `{"url": "http://x.test/"}`, http.StatusBadGateway},
		{"upstream 404", Config{Fetch: fetch404}, `{"url": "http://x.test/"}`, http.StatusBadGateway},
		{"invalid json", Config{}, `{"url": `, http.StatusBadRequest},
		{"empty json", Config{}, `{}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, tc.cfg)
			rec := postAudit(s, tc.body, "application/json")
			if rec.Code != tc.want {
				t.Errorf("status = %d, want %d (body %s)", rec.Code, tc.want, rec.Body)
			}
		})
	}
}

func fetchOK(_ context.Context, _ string) (int, string, error)  { return 200, "<html></html>", nil }
func fetchErr(_ context.Context, _ string) (int, string, error) { return 0, "", io.ErrUnexpectedEOF }
func fetch404(_ context.Context, _ string) (int, string, error) { return 404, "not found", nil }

func TestAuditBodyTooLarge(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 128})
	rec := postAudit(s, strings.Repeat("a", 256), "")
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
}

func TestQueueFullSheds503(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	cfg := Config{Workers: 1, QueueDepth: 1, CacheEntries: -1}
	cfg.testHookAuditStart = func() { started <- struct{}{}; <-release }
	s := newTestServer(t, cfg)
	// Registered after newTestServer's Close, so it runs first: a failed
	// assertion must not leave the worker parked while Close waits for it.
	releaseWorker := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseWorker)

	type result struct{ code int }
	results := make(chan result, 2)
	audit := func(i int) {
		rec := postAudit(s, fmt.Sprintf("<html>%d</html>", i), "")
		results <- result{rec.Code}
	}
	// The second audit starts only once the worker holds the first, so it
	// queues instead of racing the first to the one-slot queue.
	go audit(0)
	<-started // worker busy; the second request sits in the queue
	go audit(1)
	// Wait for the queue to actually hold the second job.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.jobs) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second audit never queued")
		}
		time.Sleep(time.Millisecond)
	}

	rec := postAudit(s, "<html>overflow</html>", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overflow status = %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("503 must carry Retry-After")
	}
	if s.met.shedQueue.Load() != 1 {
		t.Errorf("shedQueue = %d, want 1", s.met.shedQueue.Load())
	}
	releaseWorker()
	for i := 0; i < 2; i++ {
		if r := <-results; r.code != http.StatusOK {
			t.Errorf("in-flight audit status = %d, want 200", r.code)
		}
	}
}

func TestRateLimit429(t *testing.T) {
	now := fixedNow
	cfg := Config{RatePerSec: 1, Burst: 2, Now: func() time.Time { return now }}
	s := newTestServer(t, cfg)
	for i := 0; i < 2; i++ {
		if rec := postAudit(s, "<html></html>", ""); rec.Code != http.StatusOK {
			t.Fatalf("request %d status = %d", i, rec.Code)
		}
	}
	rec := postAudit(s, "<html></html>", "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want ≥ 1s", rec.Header().Get("Retry-After"))
	}
	if s.met.shedRate.Load() != 1 {
		t.Errorf("shedRate = %d, want 1", s.met.shedRate.Load())
	}

	// A different client has its own bucket.
	req := httptest.NewRequest(http.MethodPost, "/v1/audit", strings.NewReader("<html></html>"))
	req.Header.Set("X-Forwarded-For", "203.0.113.9, 10.0.0.1")
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusOK {
		t.Errorf("other client status = %d, want 200", rec2.Code)
	}

	// Time restores tokens.
	now = now.Add(3 * time.Second)
	if rec := postAudit(s, "<html></html>", ""); rec.Code != http.StatusOK {
		t.Errorf("post-refill status = %d, want 200", rec.Code)
	}
}

func TestLibrariesEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/libraries", nil))
		return rec
	}
	rec := get()
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp struct {
		Libraries []libraryEntry `json:"libraries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Libraries) != 15 {
		t.Fatalf("libraries = %d, want the top-15 table", len(resp.Libraries))
	}
	var jq *libraryEntry
	for i := range resp.Libraries {
		if resp.Libraries[i].Slug == "jquery" {
			jq = &resp.Libraries[i]
		}
	}
	if jq == nil || jq.Releases == 0 || jq.Advisories == 0 || jq.Latest == "" {
		t.Fatalf("jquery entry wrong: %+v", jq)
	}
	if !bytes.Equal(rec.Body.Bytes(), get().Body.Bytes()) {
		t.Error("catalog responses must be byte-stable")
	}
}

func TestVulnsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/vulns/jquery", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp struct {
		Library    string      `json:"library"`
		Advisories []vulnEntry `json:"advisories"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Library != "jquery" || len(resp.Advisories) == 0 {
		t.Fatalf("vulns response wrong: %+v", resp)
	}
	seen := map[string]vulnEntry{}
	for _, a := range resp.Advisories {
		seen[a.ID] = a
	}
	// CVE-2020-7656's disclosed range was PoC-validated as understated.
	if a, ok := seen["CVE-2020-7656"]; !ok || a.Accuracy != "understated" {
		t.Errorf("CVE-2020-7656 entry wrong: %+v", a)
	}

	rec404 := httptest.NewRecorder()
	s.ServeHTTP(rec404, httptest.NewRequest(http.MethodGet, "/v1/vulns/not-a-library", nil))
	if rec404.Code != http.StatusNotFound {
		t.Errorf("unknown library status = %d, want 404", rec404.Code)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status":"ok"`) {
		t.Fatalf("healthz = %d %s", rec.Code, rec.Body)
	}
}

func TestMetricsEndpointReconciles(t *testing.T) {
	s := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		postAudit(s, vulnerablePage, "") // 1 miss + 2 hits
	}
	postAudit(s, "{", "application/json") // 400
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	txt := rec.Body.String()
	for _, want := range []string{
		`clientres_http_requests_total{endpoint="audit"} 4`,
		`clientres_http_responses_total{endpoint="audit",code="2xx"} 3`,
		`clientres_http_responses_total{endpoint="audit",code="4xx"} 1`,
		`clientres_audit_cache_hits_total 2`,
		`clientres_audit_cache_misses_total 1`,
		`clientres_audit_cache_evictions_total 0`,
		`clientres_audit_shed_total{reason="queue_full"} 0`,
		`clientres_audit_shed_total{reason="rate_limited"} 0`,
		`clientres_http_request_duration_seconds_count{endpoint="audit"} 4`,
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("metrics output missing %q\n%s", want, txt)
		}
	}
}
