package core

// Record/replay equivalence: a crawl recorded into a web-execution bundle
// must (a) produce a report byte-identical to the same crawl without
// recording, and (b) replay from the bundle — with zero network, no
// loopback server, and an unresolvable base URL — to that same report.
// The matrix covers serial and sharded runs, plain and bundled-
// fingerprinting populations, and crash/resume of a checkpointed
// recording.

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clientres/internal/webgen"
	"clientres/internal/wexbundle"
)

func TestReplayByteIdenticalReport(t *testing.T) {
	plain := Config{Domains: 60, Weeks: 6, Seed: 9, Mode: ModeCrawl, Workers: 16, SkipPoC: true}
	bundled := plain
	bundled.Seed = 11
	bundled.Bundling = webgen.Bundling{Fraction: 0.6, MinifyP: 0.5, BannerP: 1, SourceMapP: 0.3}
	bundled.BundleScan = true

	cases := []struct {
		name string
		base Config
	}{
		{"serial-plain", plain},
		{"sharded-plain", withShards(plain, 3)},
		{"serial-bundled", bundled},
		{"sharded-bundled", withShards(bundled, 3)},
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

			dir := filepath.Join(t.TempDir(), "bundle")
			rec := tc.base
			rec.RecordBundle = dir
			recorded, err := Run(context.Background(), rec)
			if err != nil {
				t.Fatal(err)
			}
			if got := reportOf(t, recorded); got != want {
				t.Error("recording changed the report")
			}

			// The replayed run opens no listener and serves no web: every
			// byte comes from the archive. Its report must equal the live
			// run that recorded it.
			rep := tc.base
			rep.ReplayBundle = dir
			replayed, err := Run(context.Background(), rep)
			if err != nil {
				t.Fatal(err)
			}
			if got := reportOf(t, replayed); got != want {
				t.Error("replayed report differs from the live run that recorded it")
			}

			// Shard-flip on replay: the bundle carries no shard structure,
			// so replaying at a different shard count still matches.
			flip := tc.base
			flip.ReplayBundle = dir
			if flip.Shards > 1 {
				flip.Shards = 1
			} else {
				flip.Shards = 4
			}
			flipped, err := Run(context.Background(), flip)
			if err != nil {
				t.Fatal(err)
			}
			if got := reportOf(t, flipped); got != want {
				t.Errorf("replay at %d shards differs from the recorded run", flip.Shards)
			}
		})
	}
}

func withShards(cfg Config, n int) Config {
	cfg.Shards = n
	return cfg
}

// TestReplayRefusesRecordingConflicts covers the mode guards: replay and
// record are mutually exclusive, and neither makes sense off the crawl
// path.
func TestReplayRefusesRecordingConflicts(t *testing.T) {
	if _, err := Run(context.Background(), Config{Domains: 5, Weeks: 1, SkipPoC: true,
		RecordBundle: t.TempDir()}); err == nil {
		t.Error("RecordBundle accepted on the direct path")
	}
	if _, err := Run(context.Background(), Config{Domains: 5, Weeks: 1, SkipPoC: true, Mode: ModeCrawl,
		RecordBundle: filepath.Join(t.TempDir(), "a"), ReplayBundle: filepath.Join(t.TempDir(), "b")}); err == nil {
		t.Error("RecordBundle+ReplayBundle accepted together")
	}
}

// TestReplayMissingRecordFails: a replay of a study its bundle did not
// record would ask for fetches the archive never held. The bundle records a
// 4-week run; a 6-week replay is refused before anything is generated or
// created, so its store directory never appears.
func TestReplayMissingRecordFails(t *testing.T) {
	base := Config{Domains: 20, Weeks: 4, Seed: 3, Mode: ModeCrawl, Workers: 8, SkipPoC: true}
	dir := filepath.Join(t.TempDir(), "bundle")
	rec := base
	rec.RecordBundle = dir
	if _, err := Run(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	rep := base
	rep.Weeks = 6
	rep.ReplayBundle = dir
	rep.StorePath = filepath.Join(t.TempDir(), "replay.store")
	_, err := Run(context.Background(), rep)
	if err == nil || !strings.Contains(err.Error(), "weeks 6 asked, the bundle recorded 4") {
		t.Fatalf("Run = %v, want the refusal naming 6 and 4 weeks", err)
	}
	if _, err := os.Stat(rep.StorePath); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the refused replay created its store directory (stat: %v)", err)
	}
}

// TestReplayTakesTheRecordedStudy: a replay whose study fields are all zero
// crawls the study its bundle recorded — domains, weeks, seed and bundle
// scan — and renders the recorded run's report. A study field set to
// another value, and a bundle.json a study cannot be taken from (corrupt,
// missing, or naming no shape), are refused before the store is created.
func TestReplayTakesTheRecordedStudy(t *testing.T) {
	rec := Config{Domains: 30, Weeks: 3, Seed: 4, Mode: ModeCrawl, Workers: 8, SkipPoC: true,
		Bundling:   webgen.Bundling{Fraction: 0.6, MinifyP: 0.5, BannerP: 1, SourceMapP: 0.3},
		BundleScan: true, RecordBundle: filepath.Join(t.TempDir(), "bundle")}
	recorded, err := Run(context.Background(), rec)
	if err != nil {
		t.Fatal(err)
	}
	zero := Config{Mode: ModeCrawl, Workers: 8, SkipPoC: true, ReplayBundle: rec.RecordBundle}
	replayed, err := Run(context.Background(), zero)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Weeks != 3 || len(replayed.Eco.Sites) != 30 {
		t.Errorf("replayed a %d-domain × %d-week study, recorded 30 × 3", len(replayed.Eco.Sites), replayed.Weeks)
	}
	if reportOf(t, replayed) != reportOf(t, recorded) {
		t.Error("the zero-study replay's report differs from the recorded run's")
	}

	meta := filepath.Join(rec.RecordBundle, wexbundle.MetaName)
	for _, tc := range []struct {
		name string
		edit func(*Config)
		// meta, when set, replaces bundle.json first; "-" removes it.
		meta, want string
	}{
		{name: "domains", edit: func(c *Config) { c.Domains = 31 }, want: "domains 31 asked, the bundle recorded 30"},
		{name: "weeks", edit: func(c *Config) { c.Weeks = 201 }, want: "weeks 201 asked, the bundle recorded 3"},
		{name: "seed", edit: func(c *Config) { c.Seed = 1 }, want: "seed 1 asked, the bundle recorded 4"},
		{name: "bundle scan", edit: func(c *Config) { c.BundleScan = true },
			meta: `{"version":1,"domains":30,"weeks":3,"seed":4}`, want: "bundle-scan true asked, the bundle recorded false"},
		{name: "no shape", meta: `{"version":1}`, want: "bundle.json records no study shape"},
		{name: "corrupt", meta: `{"version":1,"domains":3`, want: "corrupt bundle.json"},
		{name: "missing", meta: "-", want: "no such file"},
	} {
		switch tc.meta {
		case "":
		case "-":
			err = os.Remove(meta)
		default:
			err = os.WriteFile(meta, []byte(tc.meta), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		cfg := zero
		cfg.StorePath = filepath.Join(t.TempDir(), "replay.store")
		if tc.edit != nil {
			tc.edit(&cfg)
		}
		if _, err := WriteStore(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: WriteStore = %v, want an error containing %q", tc.name, err, tc.want)
		}
		if _, err := os.Stat(cfg.StorePath); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: the refused replay created its store directory (stat: %v)", tc.name, err)
		}
	}
}

// TestRecordCrashResumeEquivalence: kill a checkpointed recording after
// week k, resume it, and the finished bundle must (a) replay to the
// uninterrupted run's report and (b) hold exactly the records of an
// uninterrupted recording — committed weeks were not re-fetched on
// resume (their per-week record counts match the uninterrupted archive).
func TestRecordCrashResumeEquivalence(t *testing.T) {
	base := Config{Domains: 40, Weeks: 6, Seed: 5, Mode: ModeCrawl, Workers: 16, StoreSegments: 2, SkipPoC: true}

	ref, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	want := reportOf(t, ref)

	// An uninterrupted recording's per-week profile is the no-refetch
	// reference.
	refDir := filepath.Join(t.TempDir(), "ref-bundle")
	refCfg := base
	refCfg.RecordBundle = refDir
	refCfg.StorePath = filepath.Join(t.TempDir(), "ref-store")
	refCfg.Checkpoint = true
	if _, err := Run(context.Background(), refCfg); err != nil {
		t.Fatal(err)
	}
	refStats, err := wexbundle.Stats(refDir)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 3, 5} {
		dir := filepath.Join(t.TempDir(), "bundle")
		cfg := base
		cfg.RecordBundle = dir
		cfg.StorePath = filepath.Join(t.TempDir(), "store")
		cfg.Checkpoint = true
		ctx, cancel := context.WithCancel(context.Background())
		cfg.Progress = crashAfter(k, cancel)
		if _, err := Run(ctx, cfg); err == nil {
			t.Fatalf("k=%d: crashed run reported success", k)
		}
		cancel()

		cfg.Progress = nil
		cfg.Resume = true
		if _, err := Run(context.Background(), cfg); err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}

		stats, err := wexbundle.Stats(dir)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(stats) != len(refStats) {
			t.Fatalf("k=%d: resumed bundle covers %d weeks, want %d", k, len(stats), len(refStats))
		}
		for i := range stats {
			if stats[i] != refStats[i] {
				t.Errorf("k=%d week %d: resumed recording %+v, uninterrupted %+v — committed weeks were re-fetched or lost",
					k, stats[i].Week, stats[i], refStats[i])
			}
		}

		rep := base
		rep.ReplayBundle = dir
		replayed, err := Run(context.Background(), rep)
		if err != nil {
			t.Fatalf("k=%d: replay: %v", k, err)
		}
		if got := reportOf(t, replayed); got != want {
			t.Errorf("k=%d: replay of the resumed bundle differs from the uninterrupted run", k)
		}
	}
}
