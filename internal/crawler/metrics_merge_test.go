package crawler

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"clientres/internal/metrics"
	"clientres/internal/webgen"
	"clientres/internal/webserver"
)

// randomSnapshot fabricates a snapshot with every counter populated and
// quantiles consistent with its buckets, the invariant Merge maintains.
func randomSnapshot(r *rand.Rand) MetricsSnapshot {
	s := MetricsSnapshot{
		Attempts:        int64(r.Intn(1000)),
		Retries:         int64(r.Intn(100)),
		Successes:       int64(r.Intn(900)),
		ConnFailures:    int64(r.Intn(50)),
		BreakerTrips:    int64(r.Intn(10)),
		BreakerShed:     int64(r.Intn(20)),
		BudgetExhausted: int64(r.Intn(5)),
		Bytes:           int64(r.Intn(1 << 20)),
		Waited:          time.Duration(r.Intn(1 << 30)),
	}
	for i := 0; i < 5+r.Intn(20); i++ {
		s.Latency[r.Intn(metrics.NumBuckets)] += int64(1 + r.Intn(40))
	}
	s.FetchP50 = metrics.QuantileOf(s.Latency, 0.50)
	s.FetchP99 = metrics.QuantileOf(s.Latency, 0.99)
	return s
}

// Merge-equivalence property: splitting a set of snapshots into any
// grouping and merging group-wise equals merging them all into one —
// order and association don't matter (the PR 1 collector-suite property,
// applied to crawl metrics).
func TestMetricsSnapshotMergeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(6)
		parts := make([]MetricsSnapshot, n)
		for i := range parts {
			parts[i] = randomSnapshot(r)
		}

		var all MetricsSnapshot
		for _, p := range parts {
			all.Merge(p)
		}

		// Random split point, merge each half, then merge the halves.
		cut := 1 + r.Intn(n-1)
		var left, right MetricsSnapshot
		for _, p := range parts[:cut] {
			left.Merge(p)
		}
		for _, p := range parts[cut:] {
			right.Merge(p)
		}
		left.Merge(right)
		if !reflect.DeepEqual(all, left) {
			t.Fatalf("trial %d: grouped merge diverges\n all: %+v\nsplit: %+v", trial, all, left)
		}

		// Reversed order.
		var rev MetricsSnapshot
		for i := n - 1; i >= 0; i-- {
			rev.Merge(parts[i])
		}
		if !reflect.DeepEqual(all, rev) {
			t.Fatalf("trial %d: reversed merge diverges", trial)
		}
	}
}

// Merging a snapshot into a zero value must reproduce it exactly —
// including the quantiles re-resolved from buckets.
func TestMetricsSnapshotMergeIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s := randomSnapshot(r)
	var z MetricsSnapshot
	z.Merge(s)
	if !reflect.DeepEqual(z, s) {
		t.Fatalf("zero.Merge(s) != s:\n got %+v\nwant %+v", z, s)
	}
}

// Merged per-worker snapshots must equal the snapshot one crawler doing
// all the work would report: split a domain list across two crawlers
// against the same server, merge, and compare against one crawler
// fetching everything (counters only — latency buckets are timing-
// dependent, so assert bucket totals instead of exact bins).
func TestMetricsSnapshotMergeMatchesSingleCrawler(t *testing.T) {
	eco := webgen.New(webgen.Config{Domains: 40, Seed: 9})
	ts := httptest.NewServer(webserver.New(eco))
	defer ts.Close()

	domains := make([]string, len(eco.Sites))
	for i := range eco.Sites {
		domains[i] = eco.Sites[i].Domain.Name
	}
	cfg := Config{BaseURL: ts.URL, Workers: 4, Timeout: 5 * time.Second, Retries: NoRetries}

	one := New(cfg)
	if err := one.CrawlWeek(context.Background(), 0, domains, func(Page) {}); err != nil {
		t.Fatal(err)
	}
	whole := one.Metrics()

	a, b := New(cfg), New(cfg)
	if err := a.CrawlWeek(context.Background(), 0, domains[:20], func(Page) {}); err != nil {
		t.Fatal(err)
	}
	if err := b.CrawlWeek(context.Background(), 0, domains[20:], func(Page) {}); err != nil {
		t.Fatal(err)
	}
	merged := a.Metrics()
	merged.Merge(b.Metrics())

	if merged.Attempts != whole.Attempts || merged.Successes != whole.Successes ||
		merged.ConnFailures != whole.ConnFailures || merged.Bytes != whole.Bytes {
		t.Errorf("merged counters diverge from single crawler:\nmerged: %+v\n whole: %+v", merged, whole)
	}
	var mtot, wtot int64
	for i := range merged.Latency {
		mtot += merged.Latency[i]
		wtot += whole.Latency[i]
	}
	if mtot != wtot {
		t.Errorf("merged latency samples %d, single crawler %d", mtot, wtot)
	}
}

// A FetchTimeout shorter than the server latency must surface as a
// Status-0 page (Err set) without the deadline leaking into subsequent
// fetches, and a FetchTimeout that also covers the retry backoff must cap
// the whole fetch, not just one attempt.
func TestFetchTimeoutDeadline(t *testing.T) {
	eco := webgen.New(webgen.Config{Domains: 30, Seed: 6})
	srv := webserver.New(eco)
	// Latency injected here rather than via webserver.Latency: the test
	// flips it off while the timed-out fetch's abandoned handler may still
	// be running, so the knob must be synchronized.
	var delay atomic.Int64
	delay.Store(int64(200 * time.Millisecond))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d := delay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var healthy string
	for i := range eco.Sites {
		if eco.Truth(i, 0).Accessible {
			healthy = eco.Sites[i].Domain.Name
			break
		}
	}
	if healthy == "" {
		t.Skip("no healthy site")
	}

	// Generous per-attempt Timeout, tight FetchTimeout: the fetch must
	// fail within roughly the FetchTimeout even though each attempt would
	// be allowed 5s, and retries may not extend it.
	c := New(Config{BaseURL: ts.URL, Timeout: 5 * time.Second, FetchTimeout: 60 * time.Millisecond, Retries: 3})
	start := time.Now()
	page := c.Fetch(context.Background(), 0, healthy)
	if page.Err == nil {
		t.Fatal("sub-latency FetchTimeout should fail")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("FetchTimeout did not cap retries: fetch took %v", el)
	}

	// The deadline must not leak: a fresh fetch with no timeout pressure
	// on the same crawler still succeeds once latency is removed.
	delay.Store(0)
	page = c.Fetch(context.Background(), 0, healthy)
	if page.Err != nil || page.Status != 200 {
		t.Errorf("post-timeout fetch should succeed: status %d err %v", page.Status, page.Err)
	}
}
