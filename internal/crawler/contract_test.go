package crawler

// Contract tests: the retry semantics of Config.Retries (including the
// NoRetries sentinel) counted against a real listener, the single-goroutine
// callback delivery CrawlWeek documents, and the inaccessible-domain filter
// edge cases.

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startRefusingServer listens on loopback and closes every accepted
// connection immediately, counting them — each crawler attempt costs
// exactly one connection, so the count is the attempt count.
func startRefusingServer(t *testing.T) (baseURL string, attempts *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	attempts = new(atomic.Int32)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			attempts.Add(1)
			_ = conn.Close()
		}
	}()
	return "http://" + ln.Addr().String(), attempts
}

func TestRetryAttemptCounts(t *testing.T) {
	cases := []struct {
		name    string
		retries int
		want    int32
	}{
		{"NoRetries means exactly one attempt", NoRetries, 1},
		{"zero value defaults to one retry", 0, 2},
		{"explicit retries add attempts", 2, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base, attempts := startRefusingServer(t)
			cr := New(Config{BaseURL: base, Retries: c.retries, Timeout: 2 * time.Second})
			page := cr.Fetch(context.Background(), 0, "refused.example")
			if page.Err == nil {
				t.Fatalf("fetch against a refusing server should error, got status %d", page.Status)
			}
			if got := attempts.Load(); got != c.want {
				t.Errorf("Retries=%d: %d connection attempts, want %d", c.retries, got, c.want)
			}
		})
	}
}

// TestCrawlWeekCallbackSingleGoroutine asserts CrawlWeek's documented
// contract: fn runs on a single goroutine, never concurrently with itself,
// and every completed fetch is delivered before CrawlWeek returns. The
// callback mutates a plain (unsynchronized) map and checks callback overlap
// by CAS — under -race either violation fails the test.
func TestCrawlWeekCallbackSingleGoroutine(t *testing.T) {
	eco, srv := startServer(t, 200)
	c := New(Config{BaseURL: srv.URL, Workers: 16})
	domains := make([]string, len(eco.Sites))
	for i, s := range eco.Sites {
		domains[i] = s.Domain.Name
	}
	var inCallback atomic.Int32
	seen := map[string]int{} // deliberately unsynchronized
	err := c.CrawlWeek(context.Background(), 1, domains, func(p Page) {
		if !inCallback.CompareAndSwap(0, 1) {
			t.Error("callback invoked concurrently with itself")
		}
		seen[p.Domain]++
		inCallback.Store(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(domains) {
		t.Errorf("delivered %d domains before return, want %d", len(seen), len(domains))
	}
	for d, n := range seen {
		if n != 1 {
			t.Errorf("%s delivered %d times", d, n)
		}
	}
}

// TestCrawlWeekCancelMidCrawl cancels the context from inside the callback
// after a few results: CrawlWeek must surface the cancellation and return
// without deadlocking (workers still mid-fetch must not block delivery).
func TestCrawlWeekCancelMidCrawl(t *testing.T) {
	eco, srv := startServer(t, 300)
	c := New(Config{BaseURL: srv.URL, Workers: 8})
	domains := make([]string, len(eco.Sites))
	for i, s := range eco.Sites {
		domains[i] = s.Domain.Name
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := 0
	done := make(chan error, 1)
	go func() {
		done <- c.CrawlWeek(ctx, 0, domains, func(Page) {
			delivered++
			if delivered == 10 {
				cancel()
			}
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled crawl should surface an error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("CrawlWeek deadlocked after mid-crawl cancellation")
	}
}

// TestCrawlWeekRaceWithSharedState mirrors how core's sharded pipeline uses
// the callback — pushing into per-shard channels — while a separate
// goroutine drains them. Run under -race this guards the feeder pattern.
func TestCrawlWeekRaceWithSharedState(t *testing.T) {
	eco, srv := startServer(t, 120)
	c := New(Config{BaseURL: srv.URL, Workers: 16})
	domains := make([]string, len(eco.Sites))
	for i, s := range eco.Sites {
		domains[i] = s.Domain.Name
	}
	ch := make(chan Page, 64)
	var wg sync.WaitGroup
	counts := make([]int, 2)
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for range ch {
				counts[s]++ // per-goroutine slot; no sharing
			}
		}(s)
	}
	err := c.CrawlWeek(context.Background(), 2, domains, func(p Page) { ch <- p })
	close(ch)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := counts[0] + counts[1]; got != len(domains) {
		t.Errorf("drained %d pages, want %d", got, len(domains))
	}
}
