package crawler

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"clientres/internal/webgen"
	"clientres/internal/webserver"
)

func startServer(t *testing.T, n int) (*webgen.Ecosystem, *httptest.Server) {
	t.Helper()
	eco := webgen.New(webgen.Config{Domains: n, Seed: 5})
	srv := httptest.NewServer(webserver.New(eco))
	t.Cleanup(srv.Close)
	return eco, srv
}

func TestFetchAccessibleSite(t *testing.T) {
	eco, srv := startServer(t, 100)
	c := New(Config{BaseURL: srv.URL, Timeout: 5 * time.Second})
	for i := range eco.Sites {
		tr := eco.Truth(i, 0)
		if !tr.Accessible {
			continue
		}
		page := c.Fetch(context.Background(), 0, eco.Sites[i].Domain.Name)
		if page.Err != nil || page.Status != 200 {
			t.Fatalf("fetch %s: status %d err %v", page.Domain, page.Status, page.Err)
		}
		if !strings.Contains(page.Body, "<!DOCTYPE html>") {
			t.Fatalf("fetch %s: body does not look like a page", page.Domain)
		}
		return // one healthy site is enough here
	}
	t.Fatal("no accessible site found")
}

func TestFetchDeadSiteFailsAtConnectionLevel(t *testing.T) {
	eco, srv := startServer(t, 300)
	c := New(Config{BaseURL: srv.URL, Timeout: 2 * time.Second})
	for i := range eco.Sites {
		s := eco.Sites[i]
		if s.DeadFromWeek < 0 {
			continue
		}
		page := c.Fetch(context.Background(), s.DeadFromWeek, s.Domain.Name)
		if page.Err == nil {
			t.Fatalf("dead site %s returned status %d without error", s.Domain.Name, page.Status)
		}
		if page.Status != 0 {
			t.Fatalf("dead site status = %d, want 0", page.Status)
		}
		return
	}
	t.Skip("no dead site in sample")
}

func TestFetchTransientStatusIsData(t *testing.T) {
	eco, srv := startServer(t, 400)
	c := New(Config{BaseURL: srv.URL})
	for i := range eco.Sites {
		tr := eco.Truth(i, 7)
		if tr.Status >= 400 {
			page := c.Fetch(context.Background(), 7, eco.Sites[i].Domain.Name)
			if page.Err != nil {
				t.Fatalf("HTTP error page should not be a fetch error: %v", page.Err)
			}
			if page.Status != tr.Status {
				t.Fatalf("status = %d, want %d", page.Status, tr.Status)
			}
			return
		}
	}
	t.Skip("no transient failure in sample")
}

func TestCrawlWeekVisitsEveryDomain(t *testing.T) {
	eco, srv := startServer(t, 250)
	c := New(Config{BaseURL: srv.URL, Workers: 16})
	domains := make([]string, len(eco.Sites))
	for i, s := range eco.Sites {
		domains[i] = s.Domain.Name
	}
	var mu sync.Mutex
	seen := map[string]Page{}
	err := c.CrawlWeek(context.Background(), 3, domains, func(p Page) {
		mu.Lock()
		seen[p.Domain] = p
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(domains) {
		t.Fatalf("visited %d of %d domains", len(seen), len(domains))
	}
	// Spot-check consistency with ground truth.
	okCount := 0
	for i := range eco.Sites {
		tr := eco.Truth(i, 3)
		p := seen[eco.Sites[i].Domain.Name]
		if tr.Accessible {
			if p.Status != 200 || p.Err != nil {
				t.Errorf("%s: accessible but crawl got status %d err %v", p.Domain, p.Status, p.Err)
			}
			okCount++
		}
	}
	if okCount == 0 {
		t.Fatal("no accessible domains in week 3")
	}
}

func TestCrawlWeekContextCancel(t *testing.T) {
	eco, srv := startServer(t, 50)
	c := New(Config{BaseURL: srv.URL, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	domains := []string{eco.Sites[0].Domain.Name}
	err := c.CrawlWeek(ctx, 0, domains, func(Page) {})
	if err == nil {
		t.Error("cancelled context should surface an error")
	}
}

func TestPrunedRateMatchesPaper(t *testing.T) {
	// End-to-end accessibility: crawl the last four weeks of a small
	// ecosystem, apply the paper's filter, and expect roughly the paper's
	// ~78 % retention. The filter keeps a domain whose landing page was, in
	// at least one of the four weeks, neither an error (non-200) nor empty
	// (under 400 bytes).
	eco, srv := startServer(t, 400)
	c := New(Config{BaseURL: srv.URL, Workers: 32})
	kept := map[string]bool{}
	lastWeeks := []int{eco.Cfg.Weeks - 4, eco.Cfg.Weeks - 3, eco.Cfg.Weeks - 2, eco.Cfg.Weeks - 1}
	domains := make([]string, len(eco.Sites))
	for i, s := range eco.Sites {
		domains[i] = s.Domain.Name
	}
	for _, w := range lastWeeks {
		err := c.CrawlWeek(context.Background(), w, domains, func(p Page) {
			if p.Status == 200 && len(p.Body) >= 400 {
				kept[p.Domain] = true
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	frac := float64(len(kept)) / float64(len(domains))
	if frac < 0.60 || frac > 0.92 {
		t.Errorf("retention after filter = %.3f, want ~0.78", frac)
	}
}
