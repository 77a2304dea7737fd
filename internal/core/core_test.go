package core

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"clientres/internal/store"
)

func TestRunRefusesNegativeShape(t *testing.T) {
	for _, cfg := range []Config{
		{Domains: -3, Weeks: 2, SkipPoC: true},
		{Domains: 5, Weeks: -1, SkipPoC: true},
		{Domains: -1, Weeks: -1, SkipPoC: true, StorePath: filepath.Join(t.TempDir(), "neg.store")},
	} {
		res, err := Run(context.Background(), cfg)
		if err == nil || res != nil {
			t.Errorf("Run(%d domains x %d weeks) = %v, %v; want an error", cfg.Domains, cfg.Weeks, res, err)
		} else if !strings.Contains(err.Error(), "negative") {
			t.Errorf("Run(%d domains x %d weeks) error = %v; want it to name the negative shape", cfg.Domains, cfg.Weeks, err)
		}
	}
}

func TestRunDirect(t *testing.T) {
	res, err := Run(context.Background(), Config{Domains: 300, Weeks: 25, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coll.MeanCollected() <= 0 {
		t.Error("nothing collected")
	}
	if len(res.Findings) != 27 {
		t.Errorf("findings = %d, want 27", len(res.Findings))
	}
	var b strings.Builder
	res.WriteReport(&b)
	out := b.String()
	// ("case study" only appears when the study spans the Flash EOL week,
	// which a 25-week test run does not.)
	for _, want := range []string{"Table 1:", "Headline findings", "Extensions"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestCrawlDirectEquivalence is the pipeline-fidelity gate: collecting via
// the real HTTP crawler + fingerprint engine must produce exactly the same
// aggregates as direct ground-truth collection.
func TestCrawlDirectEquivalence(t *testing.T) {
	cfg := Config{Domains: 220, Weeks: 16, Seed: 12, SkipPoC: true}
	direct, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = ModeCrawl
	cfg.Workers = 32
	crawled, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(direct.Coll.CollectedSeries(), crawled.Coll.CollectedSeries()) {
		t.Errorf("collected series differ:\n direct %v\n crawled %v",
			direct.Coll.CollectedSeries(), crawled.Coll.CollectedSeries())
	}
	if !reflect.DeepEqual(direct.Libs.Table1(), crawled.Libs.Table1()) {
		t.Error("Table 1 differs between crawl and direct collection")
	}
	for _, useTVV := range []bool{false, true} {
		d := direct.Vuln.MeanVulnerableShare(useTVV)
		c := crawled.Vuln.MeanVulnerableShare(useTVV)
		if d != c {
			t.Errorf("vulnerable share (tvv=%v): direct %.6f crawled %.6f", useTVV, d, c)
		}
	}
	if direct.SRI.MissingSRIShare() != crawled.SRI.MissingSRIShare() {
		t.Error("SRI share differs")
	}
	dAll, _, _ := direct.Flash.UsageSeries()
	cAll, _, _ := crawled.Flash.UsageSeries()
	if !reflect.DeepEqual(dAll, cAll) {
		t.Error("Flash series differ")
	}
	dDelay := direct.Delay.Result(false, false)
	cDelay := crawled.Delay.Result(false, false)
	if dDelay.Updated != cDelay.Updated || dDelay.MeanDays != cDelay.MeanDays {
		t.Errorf("delay results differ: direct %+v crawled %+v", dDelay, cDelay)
	}
}

func TestRunPersistsAndReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl.gz")
	cfg := Config{Domains: 150, Weeks: 12, Seed: 3, StorePath: path, SkipPoC: true}
	orig, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := store.ForEach(path, func(store.Observation) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 150*12 {
		t.Errorf("stored observations = %d, want %d", n, 150*12)
	}
	replayed, err := RunFromStore(path, 12, 150, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig.Libs.Table1(), replayed.Libs.Table1()) {
		t.Error("replayed Table 1 differs from original run")
	}
	if orig.Vuln.MeanVulnerableShare(false) != replayed.Vuln.MeanVulnerableShare(false) {
		t.Error("replayed prevalence differs")
	}
}

// TestDefaultStoreShape pins what the shipped commands write when no store
// flag is given — the configurations cmd/gendata and cmd/crawl build from
// their flag defaults: one delta-encoded, checksummed segment behind a
// manifest, which replays to the run's own report.
func TestDefaultStoreShape(t *testing.T) {
	for name, cfg := range map[string]Config{
		"gendata": {Domains: 60, Weeks: 6, Seed: 1, StoreSegments: 1, SkipPoC: true},
		"crawl": {Domains: 24, Weeks: 4, Seed: 1, Mode: ModeCrawl, Workers: 64, Shards: 1,
			StoreSegments: 1, SkipPoC: true},
	} {
		dir := filepath.Join(t.TempDir(), name+".store")
		cfg.StorePath = dir
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := reportOf(t, res)
		in, err := store.Verify(dir)
		if err != nil {
			t.Fatalf("%s: the default store fails verify: %v", name, err)
		}
		if in.Manifest.Version != store.FormatDelta || in.Manifest.Segments != 1 ||
			in.Manifest.Total != cfg.Domains*cfg.Weeks {
			t.Errorf("%s: manifest %+v", name, in.Manifest)
		}
		replayed, err := replayStore(dir, cfg.Weeks, cfg.Domains, 1)
		if err != nil {
			t.Fatalf("%s: replaying the store: %v", name, err)
		}
		if reportOf(t, replayed) != want {
			t.Errorf("%s: the store replays to a different report than the run's", name)
		}
	}
}

// TestCancelledRunLeavesNoArchive: a run that fails or is cancelled — here
// with every default, so no journal either — must not leave something that
// reads as a complete, shorter dataset. Every reader refuses the directory
// and says why; salvage turns what reached the disk into a store that
// verifies.
func TestCancelledRunLeavesNoArchive(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "obs.store")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Domains: 600, Weeks: 4, Seed: 2, StorePath: dir, SkipPoC: true,
		Progress: func(string, ...any) { cancel() }} // after week 1
	if _, err := Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	_, replayErr := RunFromStore(dir, cfg.Weeks, cfg.Domains, 1)
	for reader, err := range map[string]error{
		"ForEach":      store.ForEach(dir, func(store.Observation) error { return nil }),
		"RunFromStore": replayErr,
	} {
		if err == nil || !strings.HasPrefix(err.Error(), "store:") || !strings.Contains(err.Error(), "never sealed") {
			t.Errorf("%s of the cancelled run's directory: %v", reader, err)
		}
	}
	if _, err := store.Salvage(dir); err != nil {
		t.Fatalf("salvage: %v", err)
	}
	in, err := store.Verify(dir)
	if err != nil {
		t.Fatalf("the salvaged store fails verify: %v", err)
	}
	if !in.Manifest.Salvaged || in.TotalRecords > cfg.Domains {
		t.Errorf("salvaged store: %d records of a run cancelled after %d, manifest %+v",
			in.TotalRecords, cfg.Domains, in.Manifest)
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{Domains: 50, Weeks: 5, Seed: 1, SkipPoC: true}); err == nil {
		t.Error("cancelled context should error")
	}
}

func TestProgressCallback(t *testing.T) {
	lines := 0
	_, err := Run(context.Background(), Config{
		Domains: 40, Weeks: 6, Seed: 2, SkipPoC: true,
		Progress: func(string, ...any) { lines++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if lines != 6 {
		t.Errorf("progress lines = %d, want 6", lines)
	}
}
