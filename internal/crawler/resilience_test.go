package crawler

// Integration tests for the resilience layer against the chaos-mode web
// server: counters reconciled against the deterministic fault schedule,
// breaker behavior over multi-week crawls reconciled against ground truth,
// and the weekly retry budget under global degradation. All of it runs
// under -race in CI (scripts/check.sh), and the chaos test re-asserts
// CrawlWeek's single-goroutine callback contract while faults fly.

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"clientres/internal/webgen"
	"clientres/internal/webserver"
)

// TestChaosCrawlWeekCounters crawls one week of a chaos-injected ecosystem
// with retries disabled and reconciles every counter against the schedule:
// each alive-but-faulted (domain, week) and each dead domain must cost
// exactly one connection failure, everything else exactly one success.
// Fault parameters are chosen so every fault type defeats the client
// timeout and no healthy fetch meets it, by margins no load closes: a
// healthy loopback fetch takes milliseconds against the 3s budget, the
// stall (60s) and the slow-loris drip (30s before its first chunk) outlast
// it by an order of magnitude and end only when the client hangs up, and
// reset/truncate kill the body unconditionally. Enough workers take every
// stalled fetch at once, so the test waits about one timeout.
func TestChaosCrawlWeekCounters(t *testing.T) {
	eco := webgen.New(webgen.Config{Domains: 150, Seed: 11})
	ws := webserver.New(eco)
	chaos := &webserver.Chaos{Seed: 7, Rate: 0.5, Stall: time.Minute, Drip: 30 * time.Second}
	ws.Chaos = chaos
	srv := httptest.NewServer(ws)
	defer srv.Close()

	const week = 2
	var wantFail, wantOK, wantFaulted int
	domains := make([]string, len(eco.Sites))
	for i := range eco.Sites {
		domains[i] = eco.Sites[i].Domain.Name
		alive := eco.Truth(i, week).Status > 0
		faulted := chaos.FaultFor(week, domains[i]) != webserver.FaultNone
		switch {
		case !alive:
			wantFail++
		case faulted:
			wantFail++
			wantFaulted++
		default:
			wantOK++
		}
	}
	if wantFaulted == 0 || wantOK == 0 {
		t.Fatalf("degenerate schedule: %d faulted, %d ok", wantFaulted, wantOK)
	}

	c := New(Config{
		BaseURL: srv.URL, Workers: 150, Retries: NoRetries,
		Timeout: 3 * time.Second,
	})
	var inCallback atomic.Int32
	gotFail, gotOK := 0, 0 // deliberately unsynchronized: the contract test
	err := c.CrawlWeek(context.Background(), week, domains, func(p Page) {
		if !inCallback.CompareAndSwap(0, 1) {
			t.Error("callback invoked concurrently with itself under chaos")
		}
		if p.Err != nil {
			gotFail++
		} else {
			gotOK++
		}
		inCallback.Store(0)
	})
	if err != nil {
		t.Fatal(err)
	}

	if gotFail != wantFail || gotOK != wantOK {
		t.Errorf("outcomes: %d failed / %d ok, want %d / %d", gotFail, gotOK, wantFail, wantOK)
	}
	m := c.Metrics()
	if m.Attempts != int64(len(domains)) {
		t.Errorf("attempts = %d, want %d (one per domain with retries off)", m.Attempts, len(domains))
	}
	if m.ConnFailures != int64(wantFail) {
		t.Errorf("conn failures = %d, want %d", m.ConnFailures, wantFail)
	}
	if m.Successes != int64(wantOK) {
		t.Errorf("successes = %d, want %d", m.Successes, wantOK)
	}
	if got := chaos.InjectedTotal(); got != int64(wantFaulted) {
		t.Errorf("server injected %d faults, schedule says %d", got, wantFaulted)
	}
	if m.Bytes <= 0 || m.FetchP50 <= 0 || m.FetchP99 < m.FetchP50 {
		t.Errorf("latency/byte counters implausible: bytes=%d p50=%v p99=%v", m.Bytes, m.FetchP50, m.FetchP99)
	}
}

// TestBreakerCountersAcrossWeeks crawls several consecutive weeks with the
// resilience layer on and a cooldown longer than the test, then replays the
// breaker's rules against ground truth: a host opens on its third
// consecutive dead week and sheds every week after, and the crawler's
// trip/shed/failure/success counters must match that simulation exactly.
func TestBreakerCountersAcrossWeeks(t *testing.T) {
	const weeks, threshold = 6, 3
	eco := webgen.New(webgen.Config{Domains: 200, Weeks: 30, Seed: 17})
	srv := httptest.NewServer(webserver.New(eco))
	defer srv.Close()

	var wantTrips, wantShed, wantFail, wantOK int
	for i := range eco.Sites {
		fails, open := 0, false
		for w := 0; w < weeks; w++ {
			if open {
				wantShed++
				wantFail++ // shed fetches still record as connection failures
				continue
			}
			if eco.Truth(i, w).Status == 0 {
				wantFail++
				fails++
				if fails == threshold {
					wantTrips++
					open = true
				}
			} else {
				wantOK++
				fails = 0
			}
		}
	}
	if wantTrips == 0 {
		t.Fatal("no domain is dead for 3+ consecutive weeks in this seed; pick another")
	}

	c := New(Config{
		BaseURL: srv.URL, Workers: 8, Retries: NoRetries,
		Backoff: Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		Resilience: Resilience{
			Enabled:          true,
			MinGap:           time.Millisecond,
			BreakerThreshold: threshold,
			BreakerCooldown:  time.Hour, // never half-opens inside the test
			RetryBudget:      -1,
		},
	})
	domains := make([]string, len(eco.Sites))
	for i := range eco.Sites {
		domains[i] = eco.Sites[i].Domain.Name
	}
	pageFails := 0
	for w := 0; w < weeks; w++ {
		if err := c.CrawlWeek(context.Background(), w, domains, func(p Page) {
			if p.Err != nil {
				pageFails++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}

	m := c.Metrics()
	if m.BreakerTrips != int64(wantTrips) {
		t.Errorf("breaker trips = %d, want %d", m.BreakerTrips, wantTrips)
	}
	if m.BreakerShed != int64(wantShed) {
		t.Errorf("breaker shed = %d, want %d", m.BreakerShed, wantShed)
	}
	if m.Successes != int64(wantOK) {
		t.Errorf("successes = %d, want %d", m.Successes, wantOK)
	}
	// Shed fetches never reach the wire: actual connection failures are the
	// dead-week fetches that were attempted, and the page-level failure
	// count seen by the caller includes both.
	if m.ConnFailures != int64(wantFail-wantShed) {
		t.Errorf("wire-level failures = %d, want %d", m.ConnFailures, wantFail-wantShed)
	}
	if pageFails != wantFail {
		t.Errorf("page-level failures = %d, want %d", pageFails, wantFail)
	}
	if m.Attempts != int64(wantOK+wantFail-wantShed) {
		t.Errorf("attempts = %d, want %d", m.Attempts, wantOK+wantFail-wantShed)
	}
}

// A shed fetch's error wraps ErrHostSuspended, so callers can tell breaker
// sheds from wire failures if they care (observations treat both as
// connection failures).
func TestBreakerShedErrorIsRecognizable(t *testing.T) {
	base, _ := startRefusingServer(t)
	c := New(Config{
		BaseURL: base, Retries: NoRetries, Timeout: time.Second,
		Backoff:    Backoff{Base: time.Millisecond},
		Resilience: Resilience{Enabled: true, BreakerThreshold: 1, BreakerCooldown: time.Hour},
	})
	if page := c.Fetch(context.Background(), 0, "down.example"); page.Err == nil {
		t.Fatal("refused connection should error")
	}
	page := c.Fetch(context.Background(), 0, "down.example")
	if !errors.Is(page.Err, ErrHostSuspended) {
		t.Errorf("second fetch should be shed by the breaker, got %v", page.Err)
	}
	if page.Status != 0 || page.Body != "" {
		t.Errorf("shed page must look like a connection failure: status=%d body=%q", page.Status, page.Body)
	}
}

// TestRetryBudgetSharedAcrossWeek crawls a globally-dead week with a small
// shared budget: total retries stop at the budget instead of multiplying
// per domain, and the shortfall is visible in the counters.
func TestRetryBudgetSharedAcrossWeek(t *testing.T) {
	base, attempts := startRefusingServer(t)
	const nDomains, perFetchRetries, budget = 20, 3, 5
	domains := make([]string, nDomains)
	for i := range domains {
		domains[i] = "dead" + string(rune('a'+i)) + ".example"
	}
	c := New(Config{
		BaseURL: base, Workers: 4, Retries: perFetchRetries, Timeout: time.Second,
		Backoff: Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		Resilience: Resilience{
			Enabled:          true,
			MinGap:           time.Microsecond,
			BreakerThreshold: 1000, // keep the breaker out of this test
			RetryBudget:      budget,
		},
	})
	if err := c.CrawlWeek(context.Background(), 0, domains, func(Page) {}); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Retries != budget {
		t.Errorf("retries = %d, want exactly the budget %d", m.Retries, budget)
	}
	wantAttempts := int64(nDomains + budget)
	if m.Attempts != wantAttempts {
		t.Errorf("attempts = %d, want %d (one per domain plus the budget)", m.Attempts, wantAttempts)
	}
	if got := int64(attempts.Load()); got != wantAttempts {
		t.Errorf("server saw %d connections, want %d", got, wantAttempts)
	}
	if m.BudgetExhausted == 0 {
		t.Error("budget exhaustion went uncounted")
	}
	// A later, healthier week gets a fresh budget.
	if err := c.CrawlWeek(context.Background(), 1, domains[:2], func(Page) {}); err != nil {
		t.Fatal(err)
	}
	if m2 := c.Metrics(); m2.Retries != budget+budget {
		t.Errorf("week 2 retries = %d, want a refreshed budget spent (%d)", m2.Retries-budget, budget)
	}
}
