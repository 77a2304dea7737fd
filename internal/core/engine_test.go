package core

// Tests of the collection engine as one thing: a seeded matrix over every
// configuration axis at once, and the failure paths only reachable through
// the engine's own functions.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clientres/internal/store"
	"clientres/internal/webgen"
)

// matrixTuple is one drawn configuration. Every tuple must render the
// report of its mode's serial, uncheckpointed, store-less reference run.
type matrixTuple struct {
	crawl            bool
	shards, segments int
	checkpoint       bool
	// bundle (crawl only): the run records a bundle, and a second run of
	// the same tuple replays it.
	bundle bool
	// kill > 0: the run is cancelled when week kill commits, then resumed.
	kill int
	// replayShards is the shard count the tuple's store is replayed at.
	replayShards int
}

func (tc matrixTuple) String() string {
	mode := "direct"
	if tc.crawl {
		mode = "crawl"
	}
	return fmt.Sprintf("%s-shards%d-segments%d-checkpoint%v-bundle%v-kill%d-replay%d",
		mode, tc.shards, tc.segments, tc.checkpoint, tc.bundle, tc.kill, tc.replayShards)
}

func TestConfigMatrixByteIdenticalReports(t *testing.T) {
	bases := map[bool]Config{
		false: {Domains: 60, Weeks: 6, Seed: 12, SkipPoC: true},
		true:  {Domains: 24, Weeks: 4, Seed: 5, Mode: ModeCrawl, Workers: 16, SkipPoC: true},
	}
	want := map[bool]string{}
	for crawl, base := range bases {
		ref, err := Run(context.Background(), base)
		if err != nil {
			t.Fatal(err)
		}
		want[crawl] = reportOf(t, ref)
		if !strings.Contains(want[crawl], "Table 1:") {
			t.Fatal("reference report looks empty")
		}
	}

	// The combinations no hand-written test covers; the seed is chosen so
	// that the draw holds each at least once.
	var resumeMisaligned, replayResume, singleFileSharded int
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 24; i++ {
		tc := matrixTuple{
			crawl:        rng.Intn(2) == 1,
			shards:       1 + rng.Intn(4),
			segments:     1 + rng.Intn(4),
			checkpoint:   rng.Intn(2) == 1,
			bundle:       rng.Intn(2) == 1,
			replayShards: 1 + rng.Intn(4),
		}
		base := bases[tc.crawl]
		if rng.Intn(2) == 1 {
			tc.kill = 1 + rng.Intn(base.Weeks-1)
			tc.checkpoint = true
		}
		tc.bundle = tc.bundle && tc.crawl
		if tc.kill > 0 && tc.shards != tc.segments {
			resumeMisaligned++
		}
		if tc.kill > 0 && tc.bundle {
			replayResume++
		}
		singleFile := !tc.checkpoint && tc.segments == 1
		if singleFile && tc.replayShards > 1 {
			singleFileSharded++
		}

		t.Run(tc.String(), func(t *testing.T) {
			cfg := base
			cfg.Shards, cfg.StoreSegments, cfg.Checkpoint = tc.shards, tc.segments, tc.checkpoint
			tmp := t.TempDir()
			bundle := filepath.Join(tmp, "bundle")
			passes := []func(*Config){func(*Config) {}}
			if tc.bundle {
				passes = []func(*Config){
					func(c *Config) { c.RecordBundle = bundle },
					func(c *Config) { c.ReplayBundle = bundle },
				}
			}
			for p, transport := range passes {
				cfg := cfg
				transport(&cfg)
				cfg.StorePath = filepath.Join(tmp, fmt.Sprintf("store-%d", p))
				if singleFile {
					cfg.StorePath += ".jsonl.gz"
				}
				if tc.kill > 0 {
					ctx, cancel := context.WithCancel(context.Background())
					killed := cfg
					killed.Progress = crashAfter(tc.kill, cancel)
					if _, err := Run(ctx, killed); err == nil {
						t.Fatalf("pass %d: killed run returned no error", p)
					}
					cancel()
					cfg.Resume = true
				}
				res, err := Run(context.Background(), cfg)
				if err != nil {
					t.Fatalf("pass %d: %v", p, err)
				}
				if reportOf(t, res) != want[tc.crawl] {
					t.Errorf("pass %d: report differs from the serial reference", p)
				}
				stored, err := replayStore(cfg.StorePath, cfg.Weeks, cfg.Domains, tc.replayShards)
				if err != nil {
					t.Fatalf("pass %d: replaying the store: %v", p, err)
				}
				if reportOf(t, stored) != want[tc.crawl] {
					t.Errorf("pass %d: the store replays to a different report", p)
				}
			}
		})
	}
	if resumeMisaligned == 0 || replayResume == 0 || singleFileSharded == 0 {
		t.Errorf("the draw misses a required combination: %d resumes at shards != segments, %d bundle replays with resume, %d single-file stores replayed sharded",
			resumeMisaligned, replayResume, singleFileSharded)
	}
}

// failingSink is a store whose every Write fails.
type failingSink struct{ err error }

func (f failingSink) Write(store.Observation) error { return f.err }
func (f failingSink) CommitWeek(int) error          { return nil }
func (f failingSink) Close() error                  { return nil }
func (f failingSink) Abort() error                  { return nil }

// TestShardWriteErrorStopsAtItsWeek: a store write that fails in a shard
// worker ends the run at that week's barrier, checkpointed or not — not
// after every remaining week has been crawled. The sink is handed to the
// engine directly because no real store fails before Close: 64 KiB of
// buffer sit in front of the file.
func TestShardWriteErrorStopsAtItsWeek(t *testing.T) {
	crawled := 0
	cfg := Config{Domains: 20, Weeks: 4, Seed: 3, Mode: ModeCrawl, Workers: 8, Shards: 2,
		Progress: func(format string, _ ...any) {
			if strings.Contains(format, "crawled") {
				crawled++
			}
		}}
	eco := webgen.New(webgen.Config{Domains: cfg.Domains, Weeks: cfg.Weeks, Seed: cfg.Seed})
	diskFull := errors.New("disk full")
	_, err := collectByCrawl(context.Background(), cfg, eco,
		newShards(cfg.Weeks, cfg.Domains, cfg.Shards), 0, failingSink{diskFull})
	if !errors.Is(err, diskFull) {
		t.Fatalf("run returned %v, want the sink's write error", err)
	}
	if crawled != 1 {
		t.Errorf("%d weeks crawled before the week-0 write error surfaced, want 1", crawled)
	}
}

// TestResumeRefusesInconsistentPrefix: the resume checks hold on the shared
// parallel reader — a segment holding a week the journal never committed,
// or replaying a record count the journal disagrees with, refuses the
// resume. Shards differ from segments so that the prefix is re-routed.
func TestResumeRefusesInconsistentPrefix(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cfg := Config{Domains: 40, Weeks: 5, Seed: 8, Shards: 3, StorePath: dir, StoreSegments: 2,
		Checkpoint: true, SkipPoC: true, Progress: func(string, ...any) {}}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	ck, err := store.ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	resume := func(ck store.Checkpoint) error {
		return resumePrefix(cfg, ck, newShards(cfg.Weeks, cfg.Domains, cfg.Shards))
	}
	if err := resume(ck); err != nil {
		t.Fatalf("the untouched journal must resume: %v", err)
	}

	early := ck
	early.CommittedWeeks--
	if err := resume(early); err == nil || !strings.Contains(err.Error(),
		fmt.Sprintf("holds week %d past the %d committed", cfg.Weeks-1, cfg.Weeks-1)) {
		t.Errorf("segment holding an uncommitted week: %v", err)
	}

	short := ck
	short.Counts = append([]int(nil), ck.Counts...)
	short.Counts[1]++
	if err := resume(short); err == nil || !strings.Contains(err.Error(),
		fmt.Sprintf("segment 1 replays %d records, checkpoint committed %d", ck.Counts[1], ck.Counts[1]+1)) {
		t.Errorf("segment count disagreeing with the checkpoint: %v", err)
	}
}

// TestRunFromStoreUnsealedDirectory: a store directory a killed crawl left
// behind is refused with the store's explanation, not a gzip read error on
// a directory.
func TestRunFromStoreUnsealedDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Config{Domains: 30, Weeks: 4, Seed: 2, StorePath: dir, StoreSegments: 2,
		Checkpoint: true, SkipPoC: true}
	cfg.Progress = crashAfter(2, cancel)
	if _, err := Run(ctx, cfg); err == nil {
		t.Fatal("killed run returned no error")
	}
	cancel()
	_, err := RunFromStore(dir, cfg.Weeks, cfg.Domains, 2)
	if err == nil || !strings.Contains(err.Error(), "no "+store.ManifestName) ||
		!strings.Contains(err.Error(), "crawl -resume") {
		t.Errorf("unsealed directory: %v", err)
	}
}

// TestReplayRefusesMisplacedDomain: when segments and shards are the same
// partition, replay feeds segment s straight into shard s — so a segment
// holding another partition's domains must be refused, not folded into the
// wrong collectors. The same store still replays at a shard count that
// re-routes every observation by hash.
func TestReplayRefusesMisplacedDomain(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cfg := Config{Domains: 40, Weeks: 3, Seed: 6, StorePath: dir, StoreSegments: 2, SkipPoC: true}
	ref, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b, tmp := store.SegmentPath(dir, 0), store.SegmentPath(dir, 1), filepath.Join(dir, "swap")
	for _, mv := range [][2]string{{a, tmp}, {b, a}, {tmp, b}} {
		if err := os.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := replayStore(dir, cfg.Weeks, cfg.Domains, 2); err == nil ||
		!strings.Contains(err.Error(), "belongs to partition") {
		t.Errorf("aligned replay of swapped segments: %v", err)
	}
	rerouted, err := replayStore(dir, cfg.Weeks, cfg.Domains, 3)
	if err != nil {
		t.Fatal(err)
	}
	if reportOf(t, rerouted) != reportOf(t, ref) {
		t.Error("hash-routed replay of swapped segments differs from the run's report")
	}
}
