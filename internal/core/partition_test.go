package core

// A distributed worker's assignment is a configuration of the engine:
// CrawlPartition's partition p of n writes exactly what segment p of an
// in-process crawl stored in n segments holds, its week barrier is the
// caller's commit, and the merge that replays those stores counts every
// domain-week.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"clientres/internal/analysis"
	"clientres/internal/crawler"
	"clientres/internal/store"
	"clientres/internal/webgen"
	"clientres/internal/webserver"
)

func TestCrawlPartitionWritesItsSegment(t *testing.T) {
	cfg := Config{Domains: 36, Weeks: 4, Seed: 4, Mode: ModeCrawl, Workers: 8, SkipPoC: true,
		Bundling: webgen.Bundling{Fraction: 0.5, BannerP: 1}, BundleScan: true}
	eco := webgen.New(webgen.Config{Domains: cfg.Domains, Weeks: cfg.Weeks, Seed: cfg.Seed, Bundling: cfg.Bundling})
	url, stop, err := webserver.New(eco).Start()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for _, n := range []int{1, 3} {
		ref := cfg
		ref.StorePath, ref.StoreSegments = filepath.Join(t.TempDir(), "ref"), n
		if _, err := Run(context.Background(), ref); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < n; p++ {
			segment := observationsOf(t, store.SegmentPath(ref.StorePath, p))
			for _, start := range []int{0, cfg.Weeks / 2} {
				t.Run(fmt.Sprintf("partition-%d-of-%d-from-week-%d", p, n, start), func(t *testing.T) {
					want := make(map[string]string)
					for key, obs := range segment {
						var week int
						if _, err := fmt.Sscanf(key, "%d/", &week); err != nil {
							t.Fatal(err)
						}
						if week >= start {
							want[key] = obs
						}
					}
					if len(want) == 0 {
						t.Fatal("the reference segment holds nothing to compare")
					}
					dir := filepath.Join(t.TempDir(), "gen")
					sw, err := store.CreateSegmentedWith(dir, 1, store.SegmentedOptions{Checkpoint: true})
					if err != nil {
						t.Fatal(err)
					}
					var committed []int
					err = CrawlPartition(context.Background(), cfg, eco, p, n, start, url, sw,
						func(week int, _ crawler.MetricsSnapshot) error {
							committed = append(committed, week)
							return sw.CommitWeek(week)
						})
					if err != nil {
						t.Fatal(err)
					}
					if len(committed) != cfg.Weeks-start || committed[0] != start {
						t.Errorf("committed weeks %v, want %d through %d", committed, start, cfg.Weeks-1)
					}
					if got := observationsOf(t, dir); !reflect.DeepEqual(got, want) {
						t.Errorf("partition wrote %d observations, segment %d holds %d from week %d; they differ",
							len(got), p, len(want), start)
					}
				})
			}
		}
	}
}

// TestCrawlPartitionCommitFailureStopsAtItsWeek: a commit that fails at
// week k ends the crawl there — no page of a later week is fetched — and
// leaves the generation unsealed at its last successful commit.
func TestCrawlPartitionCommitFailureStopsAtItsWeek(t *testing.T) {
	const k, part, parts = 2, 1, 2
	cfg := Config{Domains: 30, Weeks: 5, Seed: 3, Mode: ModeCrawl, Workers: 8}
	eco := webgen.New(webgen.Config{Domains: cfg.Domains, Weeks: cfg.Weeks, Seed: cfg.Seed})
	domains := 0
	for _, s := range eco.Sites {
		if store.ShardOf(s.Domain.Name, parts) == part {
			domains++
		}
	}
	var mu sync.Mutex
	fetched := make(map[int]bool) // weeks the web was asked for
	web := webserver.New(eco)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var week int
		if _, err := fmt.Sscanf(r.URL.Path, "/w/%d/", &week); err == nil {
			mu.Lock()
			fetched[week] = true
			mu.Unlock()
		}
		web.ServeHTTP(w, r)
	}))
	defer srv.Close()

	dir := filepath.Join(t.TempDir(), "gen")
	sw, err := store.CreateSegmentedWith(dir, 1, store.SegmentedOptions{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	refused := errors.New("commit refused")
	var last crawler.MetricsSnapshot
	err = CrawlPartition(context.Background(), cfg, eco, part, parts, 0, srv.URL, sw,
		func(week int, m crawler.MetricsSnapshot) error {
			last = m
			if week == k {
				return refused
			}
			return sw.CommitWeek(week)
		})
	if !errors.Is(err, refused) {
		t.Fatalf("crawl returned %v, want the commit's error", err)
	}
	// Every fetch is one attempt plus its retries: the metrics the failing
	// commit saw are cumulative over exactly weeks 0..k of the partition.
	if fetches := last.Attempts - last.Retries; fetches != int64((k+1)*domains) {
		t.Errorf("%d fetches (%d attempts, %d retries) by the week-%d commit, want (k+1) × %d domains = %d",
			fetches, last.Attempts, last.Retries, k, domains, (k+1)*domains)
	}
	mu.Lock()
	for week := range fetched {
		if week > k {
			t.Errorf("week %d fetched after the week-%d commit failed", week, k)
		}
	}
	mu.Unlock()
	if store.IsSegmented(dir) {
		t.Error("a failed partition crawl sealed its store")
	}
	ck, err := store.ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.CommittedWeeks != k {
		t.Errorf("store committed %d weeks, want %d", ck.CommittedWeeks, k)
	}
}

// TestMergeCountsEveryDomainWeek: the merge's exact-count check is not
// optional — it needs one domain count per partition — and a generation
// short of one domain-week fails it.
func TestMergeCountsEveryDomainWeek(t *testing.T) {
	const weeks, domains = 3, 12
	eco := webgen.New(webgen.Config{Domains: domains, Weeks: weeks, Seed: 5})
	dir := filepath.Join(t.TempDir(), "gen")
	sw, err := store.CreateSegmentedWith(dir, 1, store.SegmentedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < weeks; w++ {
		for i := range eco.Sites {
			if w == 1 && i == 0 {
				continue // the missing domain-week
			}
			if err := sw.Write(analysis.ObservationFromTruth(eco.Sites[i].Domain, eco.Truth(i, w))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	spans := []ReplaySpan{{Path: dir, Partition: 0, FromWeek: 0, ToWeek: weeks}}
	mc := MergeConfig{Weeks: weeks, Domains: domains, Partitions: 1, SkipPoC: true}
	for _, per := range [][]int{nil, {domains, 0}} {
		mc.DomainsPerPartition = per
		if _, err := MergeWorkerStores(spans, mc); err == nil || !strings.Contains(err.Error(), "per-partition domain counts") {
			t.Errorf("DomainsPerPartition %v: %v", per, err)
		}
	}
	mc.DomainsPerPartition = []int{domains}
	want := fmt.Sprintf("partition 0 replayed %d observations, expected %d", weeks*domains-1, weeks*domains)
	if _, err := MergeWorkerStores(spans, mc); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("generation missing a domain-week: %v, want %q", err, want)
	}
}
