package service

// Regression tests for the service-layer bug sweep that shipped with the
// policy engine: the Serve error-path panic, the phantom cache-miss
// counter, the abandoned-request reply drop, and the X-Forwarded-For
// rate-limit bypass.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestServeListenerFailureDrainsInFlight reproduces the send-on-closed-
// channel panic: hs.Serve returns the moment the listener dies, but a
// connection accepted before the failure can still be mid-handler and
// about to submit to the worker queue. The old error path closed the
// pool immediately; the fix drains handlers with Shutdown first, so the
// in-flight audit below must complete with a 200 and Serve must return
// the listener error — not a panic.
func TestServeListenerFailureDrainsInFlight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	cfg := Config{Workers: 1, CacheEntries: -1}
	cfg.testHookAuditStart = func() { started <- struct{}{}; <-release }
	s := New(cfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(context.Background(), ln) }()

	status := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/audit", "text/html", strings.NewReader("<html></html>"))
		if err != nil {
			status <- -1
			return
		}
		_ = resp.Body.Close()
		status <- resp.StatusCode
	}()

	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("audit never started")
	}
	// Kill the listener out from under hs.Serve while the audit is held
	// in flight.
	_ = ln.Close()
	// Give the error path time to reach its old pool-close: under the bug
	// the handler's queue submit has already happened, but a second
	// request's submit would panic the worker pool; more directly, Close
	// before drain made Shutdown-in-flight requests race a closed jobs
	// channel. Releasing now lets the handler finish if (and only if) the
	// drain is still holding the pool open.
	time.Sleep(50 * time.Millisecond)
	close(release)

	select {
	case code := <-status:
		if code != http.StatusOK {
			t.Errorf("in-flight audit status = %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight audit never completed")
	}
	select {
	case err := <-serveDone:
		if err == nil || err == http.ErrServerClosed {
			t.Errorf("Serve error = %v, want the listener failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve never returned after listener failure")
	}
}

// TestCacheDisabledCountsNoMisses pins the metrics-reconciliation fix:
// with caching disabled there is no cache to miss, so the miss counter
// (and the X-Cache header) must not fire.
func TestCacheDisabledCountsNoMisses(t *testing.T) {
	s := newTestServer(t, Config{CacheEntries: -1})
	for i := 0; i < 2; i++ {
		rec := postAudit(s, vulnerablePage, "")
		if rec.Code != 200 {
			t.Fatalf("status = %d", rec.Code)
		}
		if h := rec.Header().Get("X-Cache"); h != "" {
			t.Errorf("X-Cache = %q with caching disabled, want unset", h)
		}
	}
	if hits, misses := s.met.cacheHits.Load(), s.met.cacheMisses.Load(); hits != 0 || misses != 0 {
		t.Errorf("cache counters hits=%d misses=%d with caching disabled, want 0/0", hits, misses)
	}
}

// TestAbandonedAuditBanksReply pins the abandoned-request fix: when the
// client goes away after its audit was admitted, the worker's completed
// reply must be drained into the cache so the retry is a hit — not
// dropped on the floor with the work already done.
func TestAbandonedAuditBanksReply(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	cfg := Config{Workers: 1}
	cfg.testHookAuditStart = func() { started <- struct{}{}; <-release }
	s := newTestServer(t, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	status := make(chan int, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/audit?host=example.com",
			strings.NewReader(vulnerablePage)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		status <- rec.Code
	}()

	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("audit never started")
	}
	cancel() // the client abandons while the worker still holds the job
	close(release)
	if code := <-status; code != http.StatusServiceUnavailable {
		t.Fatalf("abandoned request status = %d, want 503", code)
	}

	// The retry must be served from the cache the abandoned reply filled.
	rec := postAudit(s, vulnerablePage, "")
	if rec.Code != 200 || rec.Header().Get("X-Cache") != "hit" {
		t.Errorf("retry = %d X-Cache=%q, want 200 hit", rec.Code, rec.Header().Get("X-Cache"))
	}
	if hits := s.met.cacheHits.Load(); hits != 1 {
		t.Errorf("cacheHits = %d, want 1", hits)
	}
}

// TestClientKeyRejectsForgedXFF pins the rate-limit hardening: the first
// X-Forwarded-For hop only identifies the client when it parses as an
// IP, so an attacker spraying junk headers cannot mint fresh buckets.
func TestClientKeyRejectsForgedXFF(t *testing.T) {
	mk := func(remote, xff string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/audit", nil)
		r.RemoteAddr = remote
		if xff != "" {
			r.Header.Set("X-Forwarded-For", xff)
		}
		return r
	}
	cases := []struct {
		name string
		req  *http.Request
		want string
	}{
		{"no header", mk("198.51.100.7:4242", ""), "198.51.100.7"},
		{"valid hop", mk("198.51.100.7:4242", "203.0.113.9, 10.0.0.1"), "203.0.113.9"},
		{"canonicalized v6", mk("198.51.100.7:4242", "2001:db8:0:0::1"), "2001:db8::1"},
		{"garbage hop", mk("198.51.100.7:4242", "not-an-ip"), "198.51.100.7"},
		{"oversized hop", mk("198.51.100.7:4242", strings.Repeat("a", 4096)), "198.51.100.7"},
		{"padded spray", mk("198.51.100.7:4242", strings.Repeat("1", 100)+".2.3.4"), "198.51.100.7"},
	}
	for _, tc := range cases {
		if got := clientKey(tc.req); got != tc.want {
			t.Errorf("%s: clientKey = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestRateLimitXFFSprayCannotEscapeBucket drives the bypass end to end:
// under the old trust-anything clientKey each sprayed header value was a
// fresh bucket and every request sailed through; now they all land in
// the RemoteAddr bucket and the spray is throttled like any client.
func TestRateLimitXFFSprayCannotEscapeBucket(t *testing.T) {
	s := newTestServer(t, Config{RatePerSec: 1, Burst: 2})
	var last int
	for i := 0; i < 5; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/audit", strings.NewReader("<html></html>"))
		req.Header.Set("X-Forwarded-For", strings.Repeat("x", 200+i))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		last = rec.Code
	}
	if last != http.StatusTooManyRequests {
		t.Fatalf("fifth sprayed request status = %d, want 429", last)
	}
	if shed := s.met.shedRate.Load(); shed != 3 {
		t.Errorf("shedRate = %d, want 3 (burst of 2 then throttled)", shed)
	}
}

// goneWriter is a batch client that has left: every body write fails.
type goneWriter struct{ *httptest.ResponseRecorder }

func (goneWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestAbandonedAuditsCountOneHitOrMiss pins the one cache-miss rule: with
// a cache, every admitted audit is exactly one hit or one miss, also when
// its client leaves before the reply — a single audit cancelled while a
// worker holds it, and a batch stream whose client leaves with records
// still in its window.
func TestAbandonedAuditsCountOneHitOrMiss(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{}, 16)
	cfg := Config{Workers: 4}
	cfg.testHookAuditStart = func() { started <- struct{}{}; <-release }
	s := newTestServer(t, cfg)
	lookups := func() int64 { return s.met.cacheHits.Load() + s.met.cacheMisses.Load() }

	ctx, cancel := context.WithCancel(context.Background())
	status := make(chan int, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/audit?host=example.com",
			strings.NewReader(vulnerablePage)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		status <- rec.Code
	}()
	<-started
	cancel()
	release <- struct{}{}
	if code := <-status; code != http.StatusServiceUnavailable {
		t.Fatalf("abandoned single audit status = %d, want 503", code)
	}
	if n := lookups(); n != 1 {
		t.Fatalf("after one abandoned single audit hits+misses = %d, want 1", n)
	}

	// The batch's front record is held by a worker until all four records
	// are admitted; its line is the first write, which fails. The record
	// repeating the single audit's page is a hit; the other three are
	// misses banked after the client left.
	body := `{"html":"<html>b</html>"}` + "\n" + `{"html":"<html>c</html>"}` + "\n" +
		fmt.Sprintf(`{"html":%q,"host":"example.com"}`, vulnerablePage) + "\n" + `{"html":"<html>d</html>"}` + "\n"
	done := make(chan struct{})
	go func() {
		s.ServeHTTP(goneWriter{httptest.NewRecorder()}, httptest.NewRequest(http.MethodPost, "/v1/audit/batch", strings.NewReader(body)))
		close(done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.met.batchRecords.Load() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("batch admitted %d of 4 records", s.met.batchRecords.Load())
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		release <- struct{}{}
	}
	<-done
	if hits, misses := s.met.cacheHits.Load(), s.met.cacheMisses.Load(); hits != 1 || misses != 4 {
		t.Errorf("hits=%d misses=%d, want 1 hit and 4 misses for 5 admitted audits", hits, misses)
	}
}
