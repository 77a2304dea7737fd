package core

// A replayed crawl takes nothing from the clock and nothing from the
// archive it is not about to use: no backoff sleep, no wall-clock
// resilience layer, one week of the bundle resident at a time — and still
// reproduces its recording byte for byte, fails as a run when the archive
// is bad, and leaves nothing behind when abandoned.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"clientres/internal/crawler"
	"clientres/internal/store"
	"clientres/internal/wexbundle"
)

// observationsOf reads a store into a map from (week, domain) to the
// observation's JSON: the order pages complete in is not part of a run's
// identity, what was observed is.
func observationsOf(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := store.ForEach(dir, func(obs store.Observation) error {
		data, err := json.Marshal(obs)
		out[fmt.Sprintf("%d/%s", obs.Week, obs.Domain)] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReplayWithResilienceByteIdenticalReport: a recording taken with the
// resilience layer on replays, under the identical configuration, to the
// same report and the same observations. The breaker's one-second cooldown
// elapses between the live weeks (chaos stalls hold them past it) and
// would not at replay speed: a replay that mounted the layer again shed
// fetches the recording holds (at PR 22's commit, 533 successes replayed
// of 1,081 recorded on the CLI twin of this test).
func TestReplayWithResilienceByteIdenticalReport(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			t.Parallel() // the live runs mostly sit in two-second chaos stalls
			tmp := t.TempDir()
			cfg := Config{
				Domains: 80, Weeks: 5, Seed: 3, Mode: ModeCrawl, Workers: 16, Shards: shards, SkipPoC: true,
				ChaosRate: 0.35, ChaosSeed: 1,
				Resilience: crawler.Resilience{Enabled: true, BreakerThreshold: 1, BreakerCooldown: time.Second, RetryBudget: -1},
			}
			rec := cfg
			rec.RecordBundle = filepath.Join(tmp, "bundle")
			rec.StorePath = filepath.Join(tmp, "live.store")
			live, err := Run(context.Background(), rec)
			if err != nil {
				t.Fatal(err)
			}
			if live.Crawl.BreakerShed == 0 {
				t.Fatal("the live run shed nothing: the drill does not exercise the breaker")
			}
			rep := cfg
			rep.ReplayBundle = rec.RecordBundle
			rep.StorePath = filepath.Join(tmp, "replay.store")
			replayed, err := Run(context.Background(), rep)
			if err != nil {
				t.Fatal(err)
			}
			if reportOf(t, replayed) != reportOf(t, live) {
				t.Error("replayed report differs from the live run that recorded it")
			}
			if replayed.Crawl.Successes != live.Crawl.Successes {
				t.Errorf("replay succeeded on %d fetches, the recording on %d", replayed.Crawl.Successes, live.Crawl.Successes)
			}
			if replayed.Crawl.BreakerShed != 0 || replayed.Crawl.BreakerTrips != 0 {
				t.Errorf("replay mounted a breaker: %d trips, %d sheds", replayed.Crawl.BreakerTrips, replayed.Crawl.BreakerShed)
			}
			want, got := observationsOf(t, rec.StorePath), observationsOf(t, rep.StorePath)
			if len(got) != len(want) {
				t.Fatalf("replay stored %d observations, the live run %d", len(got), len(want))
			}
			differ := 0
			for k, w := range want {
				if got[k] == w {
					continue
				}
				if differ++; differ <= 3 {
					t.Errorf("observation %s:\n  live   %s\n  replay %s", k, w, got[k])
				}
			}
			if differ > 3 {
				t.Errorf("… and %d more of %d observations differ", differ-3, len(want))
			}
		})
	}
}

// TestReplayWaitsForNothing: dead hosts are retried on replay exactly as
// they were live — same attempts, same observations — but the live run
// waits out every backoff and the replay none of them.
func TestReplayWaitsForNothing(t *testing.T) {
	base := Config{Domains: 120, Weeks: 3, Seed: 5, Mode: ModeCrawl, Workers: 16, SkipPoC: true}
	rec := base
	rec.RecordBundle = filepath.Join(t.TempDir(), "bundle")
	live, err := Run(context.Background(), rec)
	if err != nil {
		t.Fatal(err)
	}
	rep := base
	rep.ReplayBundle = rec.RecordBundle
	replayed, err := Run(context.Background(), rep)
	if err != nil {
		t.Fatal(err)
	}
	retries := time.Duration(live.Crawl.Retries)
	if retries == 0 {
		t.Fatal("the population has no dead host: nothing was retried")
	}
	// The default schedule's first retry waits 25–50 ms.
	if live.Crawl.Waited < retries*25*time.Millisecond {
		t.Errorf("live run waited %v over %d retries, want at least 25ms each", live.Crawl.Waited, retries)
	}
	if replayed.Crawl.Retries != live.Crawl.Retries || replayed.Crawl.Attempts != live.Crawl.Attempts {
		t.Errorf("replay made %d attempts (%d retries), the recording %d (%d)",
			replayed.Crawl.Attempts, replayed.Crawl.Retries, live.Crawl.Attempts, live.Crawl.Retries)
	}
	if replayed.Crawl.Waited >= retries*time.Millisecond {
		t.Errorf("replay waited %v over %d retries, want under 1ms each", replayed.Crawl.Waited, retries)
	}
	if reportOf(t, replayed) != reportOf(t, live) {
		t.Error("replayed report differs from the live run")
	}
}

// TestReplayDecodeErrorFailsTheRun: an archive that passes the open (its
// member tables match its bytes) but breaks the reader's invariant further
// in is the run's error at the week that reaches it — not a status-0 page —
// and the output store stays unsealed. The week-1 record sits behind week
// 3's, so it is the Advance to week 3 that meets it.
func TestReplayDecodeErrorFailsTheRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	w, err := wexbundle.Create(dir, wexbundle.Options{Segments: 1,
		Meta: wexbundle.Meta{Domains: 10, Weeks: 4, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, week := range []int{0, 3, 1} {
		rec := wexbundle.Record{Week: week, Domain: "a.example", Key: fmt.Sprintf("/w/%d/a.example/", week), Status: 200, Body: "x"}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "replay.store")
	var progress []string
	_, err = Run(context.Background(), Config{Domains: 10, Weeks: 4, Seed: 1, Mode: ModeCrawl, SkipPoC: true,
		ReplayBundle: dir, StorePath: out,
		Progress: func(format string, args ...any) { progress = append(progress, fmt.Sprintf(format, args...)) }})
	if err == nil || !strings.Contains(err.Error(), "week 1 follows week 3") {
		t.Fatalf("Run = %v, want the reader's week-order error", err)
	}
	if len(progress) != 3 {
		t.Errorf("weeks reported before the failure: %q, want weeks 1-3 (weeks 0-2)", progress)
	}
	if _, err := store.ReadManifest(out); err == nil {
		t.Error("the failed replay sealed its store with a manifest")
	}
}

// openFDs counts the process's open descriptors (Linux; -1 elsewhere).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestCancelledReplayLeavesNothingBehind: a replay cancelled mid-archive
// returns with no goroutine still running and no segment file still open.
func TestCancelledReplayLeavesNothingBehind(t *testing.T) {
	base := Config{Domains: 40, Weeks: 6, Seed: 5, Mode: ModeCrawl, Workers: 8, StoreSegments: 3, SkipPoC: true}
	rec := base
	rec.RecordBundle = filepath.Join(t.TempDir(), "bundle")
	if _, err := Run(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	// The recording's HTTP client and server wind down asynchronously; the
	// baseline is taken once their goroutine count has stopped falling.
	goroutines := runtime.NumGoroutine()
	for prev := goroutines + 1; goroutines < prev; goroutines = runtime.NumGoroutine() {
		prev = goroutines
		time.Sleep(50 * time.Millisecond)
	}
	fds := openFDs()

	rep := base
	rep.ReplayBundle = rec.RecordBundle
	rep.StorePath = filepath.Join(t.TempDir(), "replay.store")
	rep.Checkpoint = true
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep.Progress = crashAfter(2, cancel)
	if _, err := Run(ctx, rep); err == nil {
		t.Fatal("cancelled replay reported success")
	}
	// Run waits for everything it starts, so nothing needs settling here.
	if g := runtime.NumGoroutine(); g > goroutines {
		t.Errorf("%d goroutines after the cancelled replay, %d before", g, goroutines)
	}
	if f := openFDs(); f > fds {
		t.Errorf("%d open files after the cancelled replay, %d before", f, fds)
	}
}
