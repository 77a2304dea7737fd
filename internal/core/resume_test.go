package core

// Crash/resume equivalence: killing a checkpointed run after week k and
// resuming it must produce a report byte-identical to an uninterrupted run
// of the same configuration — for k early, middle, and last-but-one, on
// every collection path (direct/crawl × serial/sharded). The "crash" is a
// context cancellation fired the moment week k commits, plus deliberate
// torn-tail garbage appended to a segment, so the resume also proves the
// committed-offset amputation. The reference run is NOT checkpointed,
// which simultaneously proves journaling changes no observation.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"clientres/internal/store"
	"clientres/internal/webgen"
	"clientres/internal/wexbundle"
)

// crashAfter returns a Progress hook that cancels the run's context as soon
// as the k-th week commit is reported.
func crashAfter(k int, cancel context.CancelFunc) func(string, ...any) {
	var committed atomic.Int32
	return func(format string, _ ...any) {
		if strings.Contains(format, "committed") && int(committed.Add(1)) == k {
			cancel()
		}
	}
}

func TestResumeCrashEquivalence(t *testing.T) {
	cases := []struct {
		name string
		base Config
	}{
		{"direct-serial", Config{Domains: 60, Weeks: 8, Seed: 12, StoreSegments: 3, SkipPoC: true}},
		{"direct-sharded", Config{Domains: 60, Weeks: 8, Seed: 12, Shards: 3, StoreSegments: 3, SkipPoC: true}},
		{"crawl-serial", Config{Domains: 40, Weeks: 6, Seed: 5, Mode: ModeCrawl, Workers: 16, StoreSegments: 2, SkipPoC: true}},
		{"crawl-sharded", Config{Domains: 40, Weeks: 6, Seed: 5, Mode: ModeCrawl, Workers: 16, Shards: 2, StoreSegments: 2, SkipPoC: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := Run(context.Background(), tc.base)
			if err != nil {
				t.Fatal(err)
			}
			want := reportOf(t, ref)
			if !strings.Contains(want, "Table 1:") {
				t.Fatal("reference report looks empty")
			}
			for _, k := range []int{1, tc.base.Weeks / 2, tc.base.Weeks - 1} {
				dir := filepath.Join(t.TempDir(), "store")
				cfg := tc.base
				cfg.StorePath = dir
				cfg.Checkpoint = true
				ctx, cancel := context.WithCancel(context.Background())
				cfg.Progress = crashAfter(k, cancel)
				if _, err := Run(ctx, cfg); err == nil {
					t.Fatalf("k=%d: crashed run returned no error", k)
				}
				cancel()
				if store.IsSegmented(dir) {
					t.Fatalf("k=%d: crashed run left a manifest — reads as complete", k)
				}
				ck, err := store.ReadCheckpoint(dir)
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if ck.CommittedWeeks != k {
					t.Fatalf("k=%d: checkpoint committed %d weeks", k, ck.CommittedWeeks)
				}
				// Worst-case torn tail: garbage past the committed offset.
				f, err := os.OpenFile(store.SegmentPath(dir, 0), os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte("torn tail \x1f\x8b garbage")); err != nil {
					t.Fatal(err)
				}
				_ = f.Close()

				resumed := tc.base
				resumed.StorePath = dir
				resumed.Resume = true
				res, err := Run(context.Background(), resumed)
				if err != nil {
					t.Fatalf("k=%d: resume: %v", k, err)
				}
				if got := reportOf(t, res); got != want {
					t.Errorf("k=%d: resumed report differs from uninterrupted run", k)
				}
				if _, err := store.Verify(dir); err != nil {
					t.Errorf("k=%d: resumed store fails verify: %v", k, err)
				}
			}
		})
	}
}

// TestResumeCompletedRun: resuming a run whose checkpoint already covers
// every week re-derives the full result from the store without collecting
// anything, and the report still matches.
func TestResumeCompletedRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	base := Config{Domains: 50, Weeks: 5, Seed: 7, Shards: 2, StoreSegments: 2, SkipPoC: true}
	cfg := base
	cfg.StorePath = dir
	cfg.Checkpoint = true
	ref, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed := base
	resumed.StorePath = dir
	resumed.Resume = true
	res, err := Run(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if reportOf(t, res) != reportOf(t, ref) {
		t.Error("resume of a completed run changed the report")
	}
	if _, err := store.Verify(dir); err != nil {
		t.Errorf("store after completed-run resume fails verify: %v", err)
	}
}

// TestResumeRefusesForeignCheckpoint: a journal written under one study
// configuration must not resume under another.
func TestResumeRefusesForeignCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cfg := Config{Domains: 30, Weeks: 4, Seed: 3, StorePath: dir, StoreSegments: 2,
		Checkpoint: true, SkipPoC: true}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Checkpoint = false
	other.Resume = true
	other.Seed = 4
	if _, err := Run(context.Background(), other); err == nil ||
		!strings.Contains(err.Error(), "different run") {
		t.Fatalf("resume under a different seed: %v", err)
	}
}

// TestCheckpointedStoreReplaysIdentically: the store a crashed-and-resumed
// run leaves behind replays to the same report as the store of an
// uninterrupted checkpointed run.
func TestCheckpointedStoreReplaysIdentically(t *testing.T) {
	base := Config{Domains: 50, Weeks: 6, Seed: 9, Shards: 2, StoreSegments: 2, SkipPoC: true}
	refDir := filepath.Join(t.TempDir(), "ref")
	cfg := base
	cfg.StorePath = refDir
	cfg.Checkpoint = true
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "crashed")
	crash := base
	crash.StorePath = dir
	crash.Checkpoint = true
	ctx, cancel := context.WithCancel(context.Background())
	crash.Progress = crashAfter(3, cancel)
	if _, err := Run(ctx, crash); err == nil {
		t.Fatal("crashed run returned no error")
	}
	cancel()
	resumed := base
	resumed.StorePath = dir
	resumed.Resume = true
	if _, err := Run(context.Background(), resumed); err != nil {
		t.Fatal(err)
	}

	want, err := RunFromStore(refDir, base.Weeks, base.Domains, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunFromStore(dir, base.Weeks, base.Domains, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reportOf(t, got) != reportOf(t, want) {
		t.Error("resumed store replays to a different report")
	}
}

// dirFiles maps every file of dir to its bytes.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// bundledCrawl is a bundled, bundle-scanning crawl: the study whose resume
// under another bundler adoption or without the scan would splice two
// populations into one store.
var bundledCrawl = Config{Domains: 40, Weeks: 6, Seed: 5, Mode: ModeCrawl, Workers: 16, StoreSegments: 2,
	Bundling: webgen.DefaultBundling(0.8), BundleScan: true, SkipPoC: true}

// otherStudies are bundledCrawl's resumes as another study.
var otherStudies = map[string]func(*Config){
	"Bundling{}":       func(c *Config) { c.Bundling = webgen.Bundling{} },
	"BundleScan false": func(c *Config) { c.BundleScan = false },
}

// TestResumeRefusesAnotherBundling: a bundled, bundle-scanning
// checkpointed crawl killed at week k resumes only as itself. Resumed with
// no bundling or without the script scan it is refused, and the store stays
// byte-for-byte what the crash left; resumed as itself it reports as the
// uninterrupted run.
func TestResumeRefusesAnotherBundling(t *testing.T) {
	ref, err := Run(context.Background(), bundledCrawl)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	dir := filepath.Join(t.TempDir(), "store")
	cfg := bundledCrawl
	cfg.StorePath = dir
	cfg.Checkpoint = true
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Progress = crashAfter(k, cancel)
	if _, err := Run(ctx, cfg); err == nil {
		t.Fatal("crashed run returned no error")
	}
	cancel()
	crashed := dirFiles(t, dir)

	for name, other := range otherStudies {
		resumed := bundledCrawl
		other(&resumed)
		resumed.StorePath = dir
		resumed.Resume = true
		if _, err := Run(context.Background(), resumed); err == nil || !strings.Contains(err.Error(), "different run") {
			t.Errorf("resume with %s: error %v, want a different-run refusal", name, err)
		}
		if !reflect.DeepEqual(dirFiles(t, dir), crashed) {
			t.Fatalf("the refused resume with %s changed the store", name)
		}
	}

	resumed := bundledCrawl
	resumed.StorePath = dir
	resumed.Resume = true
	res, err := Run(context.Background(), resumed)
	if err != nil {
		t.Fatalf("resume as the journaled study: %v", err)
	}
	if reportOf(t, res) != reportOf(t, ref) {
		t.Error("the resumed bundled crawl reports differently from the uninterrupted run")
	}
}

// TestRecordResumeRefusesAnotherBundling is the same for a recording: a
// bundled, bundle-scanning recording killed at week k is refused as
// another study, through core and through the bundle's own journal, with
// the store and the bundle unchanged.
func TestRecordResumeRefusesAnotherBundling(t *testing.T) {
	const k = 3
	bundle := filepath.Join(t.TempDir(), "rec.bundle")
	dir := filepath.Join(t.TempDir(), "store")
	cfg := bundledCrawl
	cfg.StorePath = dir
	cfg.RecordBundle = bundle
	cfg.Checkpoint = true
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Progress = crashAfter(k, cancel)
	if _, err := Run(ctx, cfg); err == nil {
		t.Fatal("crashed recording returned no error")
	}
	cancel()
	crashedStore, crashedBundle := dirFiles(t, dir), dirFiles(t, bundle)

	for name, other := range otherStudies {
		resumed := bundledCrawl
		other(&resumed)
		resumed.StorePath = dir
		resumed.RecordBundle = bundle
		resumed.Resume = true
		if _, err := Run(context.Background(), resumed); err == nil || !strings.Contains(err.Error(), "different run") {
			t.Errorf("resume with %s: error %v, want a different-run refusal", name, err)
		}
		if _, _, err := wexbundle.Resume(bundle, wexbundle.Options{Run: resumed.RunID()}); err == nil ||
			!strings.Contains(err.Error(), "different run") {
			t.Errorf("bundle resume with %s: error %v, want a different-run refusal", name, err)
		}
		if !reflect.DeepEqual(dirFiles(t, dir), crashedStore) || !reflect.DeepEqual(dirFiles(t, bundle), crashedBundle) {
			t.Fatalf("the refused resume with %s changed the store or the bundle", name)
		}
	}

	resumed := cfg
	resumed.Progress = nil
	resumed.Resume = true
	if _, err := Run(context.Background(), resumed); err != nil {
		t.Fatalf("resume as the recorded study: %v", err)
	}
}
