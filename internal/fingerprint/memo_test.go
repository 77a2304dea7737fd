package fingerprint

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"clientres/internal/webgen"
)

// TestMemoMatchesPageOnRenderedPages is the semantics-preservation
// property: over randomized generator-rendered pages — including many
// repeats, the cache-hit case — the memoized path must return Detections
// deep-equal to the uncached Page for every single call, through Page and
// through PageWithScripts with no scripts (the crawl's one call).
func TestMemoMatchesPageOnRenderedPages(t *testing.T) {
	e := webgen.New(webgen.Config{Domains: 120, Seed: 11})
	memo := NewMemo(0)
	r := rand.New(rand.NewSource(7))
	calls, hitsSeen := 0, false
	for i := 0; i < 2000; i++ {
		site := r.Intn(len(e.Sites))
		// Cluster weeks so unchanged pages recur, exercising cache hits.
		week := r.Intn(8) * 25
		html, status := e.PageHTML(site, week)
		if status != 200 {
			continue
		}
		host := e.Sites[site].Domain.Name
		want := Page(html, host)
		var got Detection
		if i%2 == 0 {
			got = memo.Page(html, host)
		} else {
			got = memo.PageWithScripts(html, host, nil)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("site %d week %d: memoized detection differs\n got %+v\nwant %+v",
				site, week, got, want)
		}
		calls++
	}
	hits, misses := memo.Stats()
	hitsSeen = hits > 0
	if !hitsSeen {
		t.Error("property run never hit the cache — repeats not exercised")
	}
	if int(hits+misses) != calls {
		t.Errorf("stats %d+%d don't add up to %d calls", hits, misses, calls)
	}
}

// TestMemoHostSensitivity: the same content fetched from two hosts must
// not share a cache entry — internal/external classification depends on
// the serving host.
func TestMemoHostSensitivity(t *testing.T) {
	html := `<html><head><script src="https://cdn.example/jquery-1.12.4.min.js"></script></head></html>`
	memo := NewMemo(0)
	fromCDN := memo.Page(html, "cdn.example")
	fromSite := memo.Page(html, "other.example")
	if len(fromCDN.Libraries) != 1 || len(fromSite.Libraries) != 1 {
		t.Fatalf("detection failed: %+v / %+v", fromCDN, fromSite)
	}
	if fromCDN.Libraries[0].External {
		t.Error("same-host inclusion classified external")
	}
	if !fromSite.Libraries[0].External {
		t.Error("cross-host inclusion classified internal — stale cache entry across hosts")
	}
}

// TestMemoEpochEviction: the cache stays bounded and stays correct
// across the wholesale reset.
func TestMemoEpochEviction(t *testing.T) {
	memo := NewMemo(8)
	for i := 0; i < 100; i++ {
		html := `<html><script src="/js/jquery-1.` + string(rune('0'+i%10)) + `.js"></script></html>`
		want := Page(html, "h.example")
		if got := memo.Page(html, "h.example"); !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: detection differs after eviction", i)
		}
		if len(memo.m) > 8 {
			t.Fatalf("cache grew to %d entries past its cap of 8", len(memo.m))
		}
	}
}

// TestMemoConcurrentPerShard models the deployment: one memo per shard,
// shards running concurrently over overlapping page content. Run under
// -race by scripts/check.sh, this pins that per-shard caches share no
// state through the package.
func TestMemoConcurrentPerShard(t *testing.T) {
	e := webgen.New(webgen.Config{Domains: 60, Seed: 13})
	type page struct{ html, host string }
	var pages []page
	for i := range e.Sites {
		if html, status := e.PageHTML(i, 40); status == 200 {
			pages = append(pages, page{html, e.Sites[i].Domain.Name})
		}
	}
	if len(pages) < 10 {
		t.Fatal("too few accessible pages")
	}
	var wg sync.WaitGroup
	for shard := 0; shard < 8; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			memo := NewMemo(0) // private to this goroutine, as in core
			for round := 0; round < 3; round++ {
				for _, p := range pages {
					got := memo.Page(p.html, p.host)
					want := Page(p.html, p.host)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("shard %d: concurrent memoized detection differs", shard)
						return
					}
				}
			}
		}(shard)
	}
	wg.Wait()
}
