package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
)

func TestLRUEviction(t *testing.T) {
	c := newLRUCache(2)
	k := func(i int) cacheKey { return cacheKey{hash: uint64(i), n: i, host: "h"} }
	if ev := c.add(k(1), audited{body: []byte("a")}); ev != 0 {
		t.Fatalf("evicted %d from empty cache", ev)
	}
	c.add(k(2), audited{body: []byte("b")})
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("entry 1 missing before capacity reached")
	}
	// Entry 1 is now most recent; inserting 3 must evict 2.
	if ev := c.add(k(3), audited{body: []byte("c")}); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if _, ok := c.get(k(2)); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("recently-used entry 1 evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// Re-adding an existing key updates in place, no eviction.
	if ev := c.add(k(1), audited{body: []byte("a2")}); ev != 0 {
		t.Fatalf("update evicted %d", ev)
	}
	if b, _ := c.get(k(1)); string(b.body) != "a2" {
		t.Fatalf("update lost: %q", b.body)
	}
}

// TestConcurrentAuditCacheCorrectness is the satellite race test: many
// goroutines hammer POST /v1/audit with overlapping page bodies; every
// response for the same input must be byte-identical, and the cache
// counters must reconcile exactly with the request count. Run under -race
// (scripts/check.sh does).
func TestConcurrentAuditCacheCorrectness(t *testing.T) {
	const (
		goroutines = 8
		perG       = 50
		pages      = 6
	)
	// QueueDepth covers every request at once so nothing sheds and the
	// reconciliation below is exact.
	s := newTestServer(t, Config{Workers: 4, QueueDepth: goroutines * perG, CacheEntries: 1024})

	page := func(i int) string {
		return fmt.Sprintf(`<html><head>
<script src="https://code.jquery.com/jquery-1.%d.4.min.js"></script>
<script src="/assets/v%d/moment-2.10.6.min.js"></script>
</head></html>`, 8+i, i)
	}

	// One canonical response per page, computed single-threaded first.
	want := make([][]byte, pages)
	for i := 0; i < pages; i++ {
		rec := postAudit(s, page(i), "")
		if rec.Code != http.StatusOK {
			t.Fatalf("seed audit %d status %d", i, rec.Code)
		}
		want[i] = append([]byte(nil), rec.Body.Bytes()...)
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				p := rng.Intn(pages)
				rec := postAudit(s, page(p), "")
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d: status %d", g, rec.Code)
					return
				}
				if !bytes.Equal(rec.Body.Bytes(), want[p]) {
					errs <- fmt.Errorf("goroutine %d: page %d response diverged", g, p)
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

	total := int64(pages + goroutines*perG)
	em := s.met.endpoint("audit")
	if em.total.Load() != total {
		t.Fatalf("request counter = %d, want %d", em.total.Load(), total)
	}
	hits, misses := s.met.cacheHits.Load(), s.met.cacheMisses.Load()
	if hits+misses != total {
		t.Fatalf("hits(%d)+misses(%d) != requests(%d)", hits, misses, total)
	}
	// Every page was seeded once, so exactly `pages` misses and no sheds.
	if misses != pages {
		t.Fatalf("misses = %d, want %d", misses, pages)
	}
	if s.met.shedQueue.Load() != 0 || s.met.shedRate.Load() != 0 {
		t.Fatalf("unexpected sheds: queue=%d rate=%d", s.met.shedQueue.Load(), s.met.shedRate.Load())
	}
	if got := s.cache.len(); got != pages {
		t.Fatalf("cache entries = %d, want %d", got, pages)
	}
	if s.met.cacheEvictions.Load() != 0 {
		t.Fatalf("evictions = %d, want 0", s.met.cacheEvictions.Load())
	}
}

// TestConcurrentAuditCacheDisabled runs the same hammer with the cache off:
// every request takes the full audit path and responses must still be
// byte-identical for identical input (JSON marshaling of a deterministic
// audit), proving determinism does not lean on the cache.
func TestConcurrentAuditCacheDisabled(t *testing.T) {
	const goroutines, perG = 4, 25
	s := newTestServer(t, Config{Workers: 4, QueueDepth: goroutines * perG, CacheEntries: -1})
	body := `<script src="https://code.jquery.com/jquery-1.12.4.min.js"></script>`
	ref := postAudit(s, body, "")
	if ref.Code != http.StatusOK {
		t.Fatalf("seed status %d", ref.Code)
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rec := postAudit(s, body, "")
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), ref.Body.Bytes()) {
					errs <- fmt.Errorf("goroutine %d request %d diverged (status %d)", g, i, rec.Code)
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
	if hits := s.met.cacheHits.Load(); hits != 0 {
		t.Fatalf("cache disabled but %d hits", hits)
	}
}
