package service

// Tests for the cache-hit path: a hit evaluates the banked policy document
// at the request clock, concurrent hits share that document read-only, and
// the per-request bookkeeping (request id, log line) stays as it was.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"clientres/internal/policy"
)

func postServerPolicyAudit(s *Server, page string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/audit?host=example.com&policy=server", strings.NewReader(page))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestCachedVerdictUsesRequestClock pins that a hit's verdict is evaluated
// at the hit's clock, not frozen at the audit's: the audit member replays
// the first reply byte for byte (its patch_available_days included), while
// an age() rule that passed at the audit clock fails at the later one.
func TestCachedVerdictUsesRequestClock(t *testing.T) {
	pol, err := policy.Compile([]byte(`name: clock
rules:
  - name: year-old-xss
    scope: finding
    when: advisory == "CVE-2020-11023" && age(disclosed) > 365d
`))
	if err != nil {
		t.Fatal(err)
	}
	t1 := time.Date(2020, time.December, 1, 0, 0, 0, 0, time.UTC)
	t2 := time.Date(2022, time.December, 1, 0, 0, 0, 0, time.UTC)
	var clock atomic.Pointer[time.Time]
	clock.Store(&t1)
	s := newTestServer(t, Config{Policy: pol, Now: func() time.Time { return *clock.Load() }})

	first := postServerPolicyAudit(s, vulnerablePage)
	clock.Store(&t2)
	second := postServerPolicyAudit(s, vulnerablePage)
	if first.Code != 200 || second.Code != 200 {
		t.Fatalf("statuses = %d, %d", first.Code, second.Code)
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", got)
	}
	var env1, env2 struct {
		Audit  json.RawMessage `json:"audit"`
		Policy json.RawMessage `json:"policy"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &env1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second.Body.Bytes(), &env2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(env1.Audit, []byte(`"patch_available_days"`)) {
		t.Fatalf("audit carries no patch_available_days to freeze: %s", env1.Audit)
	}
	if !bytes.Equal(env1.Audit, env2.Audit) {
		t.Errorf("hit's audit member differs from the miss's\nmiss: %s\nhit:  %s", env1.Audit, env2.Audit)
	}
	if got, want := first.Header().Get("X-Policy-Verdict"), "pass"; got != want {
		t.Errorf("verdict at the audit clock = %q, want %q", got, want)
	}
	if got, want := second.Header().Get("X-Policy-Verdict"), "fail"; got != want {
		t.Errorf("verdict at the hit's clock = %q, want %q", got, want)
	}
	var resp AuditResponse
	if err := json.Unmarshal(env1.Audit, &resp); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(pol.Eval(resp.PolicyDoc(t2)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env2.Policy, want) {
		t.Errorf("hit's verdict is not the first audit evaluated at the hit's clock\ngot:  %s\nwant: %s", env2.Policy, want)
	}
}

// TestConcurrentPolicyHitsShareOneDoc hammers one banked page with policy
// hits from several goroutines: they all evaluate the same shared document
// (library- and finding-scope rules walk its slices), so under -race this
// proves evaluation only reads it, and every reply must be byte-identical.
func TestConcurrentPolicyHitsShareOneDoc(t *testing.T) {
	const goroutines, perG = 8, 40
	pol, err := policy.Compile([]byte(`name: shared
rules:
  - name: stale-high
    scope: finding
    when: severity == "high" && age(disclosed) > 90d
  - name: uncovered-cdn
    level: warn
    scope: library
    when: external && !sri
`))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Policy: pol, Workers: 2, QueueDepth: goroutines * perG})
	ref := postServerPolicyAudit(s, vulnerablePage)
	if ref.Code != 200 {
		t.Fatalf("seed status %d: %s", ref.Code, ref.Body)
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rec := postServerPolicyAudit(s, vulnerablePage)
				if rec.Code != 200 || rec.Header().Get("X-Cache") != "hit" || !bytes.Equal(rec.Body.Bytes(), ref.Body.Bytes()) {
					errs <- fmt.Errorf("goroutine %d request %d diverged (status %d, X-Cache %q)", g, i, rec.Code, rec.Header().Get("X-Cache"))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := int64(1 + goroutines*perG)
	hits, misses := s.met.cacheHits.Load(), s.met.cacheMisses.Load()
	if hits+misses != total || misses != 1 {
		t.Fatalf("hits(%d)+misses(%d), want %d requests with 1 miss", hits, misses, total)
	}
}

// TestBankedDocDoesNotPinPage checks that the document a worker hands to
// the cache holds none of the page's bytes: a banked entry outlives its
// request, and a version or host cut from the HTML would keep the whole
// body alive with it.
func TestBankedDocDoesNotPinPage(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	page := string([]byte(vulnerablePage)) // a body of its own, as a request's is
	lo := uintptr(unsafe.Pointer(unsafe.StringData(page)))
	inPage := func(v string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(v)))
		return v != "" && p >= lo && p < lo+uintptr(len(page))
	}
	resp := Audit(page, "example.com", fixedNow)
	want := resp.PolicyDoc(fixedNow)
	var fromPage int
	for _, l := range want.Libraries {
		for _, v := range []string{l.Slug, l.Version, l.Host, l.Crossorigin} {
			if inPage(v) {
				fromPage++
			}
		}
	}
	if fromPage == 0 {
		t.Fatal("no library string of the audit is cut from the page; the test no longer checks anything")
	}

	job := &auditJob{html: page, host: "example.com", now: fixedNow, reply: make(chan audited, 1)}
	if !s.submit(job) {
		t.Fatal("queue full")
	}
	got := (<-job.reply).doc
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("banked doc differs from PolicyDoc:\n got %+v\nwant %+v", got, want)
	}
	check := func(field, v string) {
		if inPage(v) {
			t.Errorf("banked %s %q points into the page", field, v)
		}
	}
	check("WordPress", got.WordPress)
	for _, l := range got.Libraries {
		check("library slug", l.Slug)
		check("library version", l.Version)
		check("library host", l.Host)
		check("library crossorigin", l.Crossorigin)
	}
	for _, f := range got.Findings {
		check("finding library", f.Library)
		check("finding version", f.Version)
	}
}

func TestRequestIDFormat(t *testing.T) {
	for _, n := range []int64{1, 0xffffffff, 1 << 32, math.MaxInt64} {
		if got, want := requestID(uint64(n)), fmt.Sprintf("req-%08x", n); got != want {
			t.Errorf("requestID(%d) = %q, want %q", n, got, want)
		}
	}
}

// recordingHandler keeps every record it is handed.
type recordingHandler struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *recordingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *recordingHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recs = append(h.recs, r.Clone())
	return nil
}
func (h *recordingHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *recordingHandler) WithGroup(string) slog.Handler      { return h }

func (h *recordingHandler) records() []slog.Record {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]slog.Record(nil), h.recs...)
}

// TestRequestLogLines pins the logging contract: without a Logger no level
// is enabled, so slog hands no record to any handler; with an enabled
// handler every request logs exactly one line with the same eight
// attributes, matching what the response carried.
func TestRequestLogLines(t *testing.T) {
	quiet := newTestServer(t, Config{})
	for _, l := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if quiet.log.Enabled(context.Background(), l) {
			t.Errorf("default logger is enabled at %v", l)
		}
	}

	h := &recordingHandler{}
	s := newTestServer(t, Config{Logger: slog.New(h)})
	wantKeys := []string{"id", "method", "path", "status", "bytes", "dur_us", "cache", "client"}
	requests := []*http.Request{
		httptest.NewRequest(http.MethodPost, "/v1/audit?host=example.com", strings.NewReader(vulnerablePage)),
		httptest.NewRequest(http.MethodPost, "/v1/audit?host=example.com", strings.NewReader(vulnerablePage)),
		httptest.NewRequest(http.MethodGet, "/healthz", nil),
		httptest.NewRequest(http.MethodGet, "/v1/vulns/nosuchlib", nil),
	}
	for i, req := range requests {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		recs := h.records()
		if len(recs) != i+1 {
			t.Fatalf("after request %d: %d log records, want %d", i+1, len(recs), i+1)
		}
		r := recs[i]
		if r.Message != "request" || r.Level != slog.LevelInfo {
			t.Errorf("request %d: record %v %q", i+1, r.Level, r.Message)
		}
		got := map[string]string{}
		var keys []string
		r.Attrs(func(a slog.Attr) bool {
			keys = append(keys, a.Key)
			got[a.Key] = a.Value.String()
			return true
		})
		if strings.Join(keys, ",") != strings.Join(wantKeys, ",") {
			t.Errorf("request %d: attributes %v, want %v", i+1, keys, wantKeys)
		}
		for k, want := range map[string]string{
			"id":     rec.Header().Get("X-Request-Id"),
			"method": req.Method,
			"path":   req.URL.Path,
			"status": strconv.Itoa(rec.Code),
			"bytes":  strconv.Itoa(rec.Body.Len()),
			"cache":  rec.Header().Get("X-Cache"),
			"client": "192.0.2.1",
		} {
			if got[k] != want {
				t.Errorf("request %d: %s = %q, want %q", i+1, k, got[k], want)
			}
		}
	}
}
