package core

// Whole-pipeline shard equivalence: a sharded run must render a report that
// is byte-for-byte identical to the serial run of the same configuration.
// Every collector aggregate is an integer count keyed by week/library/
// domain, and all derived floats are computed at report time from merged
// integers, so equality holds exactly — not approximately.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clientres/internal/store"
)

func reportOf(t *testing.T, res *Results) string {
	t.Helper()
	var b strings.Builder
	res.WriteReport(&b)
	return b.String()
}

func TestShardedDirectRunByteIdenticalReport(t *testing.T) {
	base := Config{Domains: 260, Weeks: 18, Seed: 12}
	serial, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	want := reportOf(t, serial)
	if !strings.Contains(want, "Table 1:") {
		t.Fatal("serial report looks empty")
	}
	for _, shards := range []int{2, 4, 9} {
		cfg := base
		cfg.Shards = shards
		sharded, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := reportOf(t, sharded); got != want {
			t.Errorf("shards=%d: report differs from serial run", shards)
		}
	}
}

func TestShardedCrawlRunByteIdenticalReport(t *testing.T) {
	base := Config{Domains: 120, Weeks: 8, Seed: 5, Mode: ModeCrawl, Workers: 16, SkipPoC: true}
	serial, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Shards = 3
	sharded, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reportOf(t, sharded) != reportOf(t, serial) {
		t.Error("sharded crawl report differs from serial crawl report")
	}
}

// TestShardedStoreRoundTrip checks the two store-facing halves of the
// sharded pipeline: a sharded run persists a complete observation file
// (rows may interleave across domains, but per-domain week order is kept),
// and a sharded replay of that file equals a serial replay byte-for-byte.
func TestShardedStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl.gz")
	cfg := Config{Domains: 130, Weeks: 10, Seed: 9, Shards: 3, StorePath: path, SkipPoC: true}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	serial, err := RunFromStore(path, cfg.Weeks, cfg.Domains, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := RunFromStore(path, cfg.Weeks, cfg.Domains, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reportOf(t, sharded) != reportOf(t, serial) {
		t.Error("sharded replay report differs from serial replay")
	}
}

// TestSegmentedStoreByteIdenticalReports is the tentpole equivalence
// test: a segmented store must replay to a byte-identical report versus
// the single-file store of the same run, at every segment count, and at
// replay shard counts that hit all three replay shapes — serial, the
// aligned one-decoder-per-segment fast path (shards == segments), and
// the misaligned re-routing path (shards != segments).
func TestSegmentedStoreByteIdenticalReports(t *testing.T) {
	dir := t.TempDir()
	base := Config{Domains: 180, Weeks: 12, Seed: 21, SkipPoC: true}

	single := filepath.Join(dir, "obs.jsonl.gz")
	cfg := base
	cfg.StorePath = single
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	ref, err := RunFromStore(single, base.Weeks, base.Domains, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := reportOf(t, ref)
	if !strings.Contains(want, "Table 1:") {
		t.Fatal("reference report looks empty")
	}

	for _, segments := range []int{1, 2, 4, 8} {
		segDir := filepath.Join(dir, fmt.Sprintf("store-%d", segments))
		cfg := base
		cfg.StorePath = segDir
		cfg.StoreSegments = segments
		if _, err := Run(context.Background(), cfg); err != nil {
			t.Fatalf("segments=%d: %v", segments, err)
		}
		for _, shards := range []int{1, 2, segments, segments + 3} {
			res, err := RunFromStore(segDir, base.Weeks, base.Domains, shards)
			if err != nil {
				t.Fatalf("segments=%d shards=%d: %v", segments, shards, err)
			}
			if got := reportOf(t, res); got != want {
				t.Errorf("segments=%d shards=%d: report differs from single-file replay",
					segments, shards)
			}
		}
	}
}

// TestSegmentedCrawlStoreRoundTrip drives the segmented writer through
// the sharded crawl path — concurrent writers, memoized fingerprinting —
// and checks the archive replays identically to a single-file archive of
// the same crawl.
func TestSegmentedCrawlStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := Config{Domains: 90, Weeks: 6, Seed: 4, Mode: ModeCrawl,
		Workers: 16, Shards: 3, SkipPoC: true}

	single := filepath.Join(dir, "obs.jsonl.gz")
	cfg := base
	cfg.StorePath = single
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	segDir := filepath.Join(dir, "obs.store")
	cfg = base
	cfg.StorePath = segDir
	cfg.StoreSegments = 3
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	fromSingle, err := RunFromStore(single, base.Weeks, base.Domains, 1)
	if err != nil {
		t.Fatal(err)
	}
	fromSeg, err := RunFromStore(segDir, base.Weeks, base.Domains, 3)
	if err != nil {
		t.Fatal(err)
	}
	if reportOf(t, fromSeg) != reportOf(t, fromSingle) {
		t.Error("segmented crawl archive replays differently from single-file archive")
	}
}

// TestCrawlMemoByteIdenticalReport pins that the fingerprint memo is
// semantics-preserving end-to-end: the memoized crawl, serial and sharded,
// renders the same report as direct collection from generator truth, which
// fingerprints nothing.
func TestCrawlMemoByteIdenticalReport(t *testing.T) {
	base := Config{Domains: 100, Weeks: 7, Seed: 6, Mode: ModeCrawl,
		Workers: 16, SkipPoC: true}
	direct := base
	direct.Mode = ModeDirect
	truth, err := Run(context.Background(), direct)
	if err != nil {
		t.Fatal(err)
	}
	want := reportOf(t, truth)
	for _, shards := range []int{1, 4} {
		crawl := base
		crawl.Shards = shards
		res, err := Run(context.Background(), crawl)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := reportOf(t, res); got != want {
			t.Errorf("shards=%d: memoized crawl report differs from the direct report", shards)
		}
	}
}

// TestRunReportsWriterCloseError is the regression test for the dropped
// Close error: the store writer buffers 64 KiB and gzips, so on a full disk
// the data loss may only surface at Close — Run must return it, not a
// report over an archive nobody can read. The close that fails here is the
// manifest's: its temp file's name is taken by a directory once the run
// is under way.
func TestRunReportsWriterCloseError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cfg := Config{Domains: 30, Weeks: 3, Seed: 1, SkipPoC: true, StorePath: dir}
	cfg.Progress = func(string, ...any) {
		_ = os.Mkdir(filepath.Join(dir, store.ManifestName+".tmp"), 0o755)
	}
	if _, err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), store.ManifestName) {
		t.Errorf("Run with an unsealable store must report the close error, got %v", err)
	}
	if store.IsSegmented(dir) {
		t.Error("the store whose close failed reads as sealed")
	}
}
