package core

// WriteStore is Run's collection without the collectors: what the shipped
// writers (cmd/gendata, cmd/crawl) store must be what Run stores, and must
// analyse to Run's report.

import (
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"clientres/internal/store"
	"clientres/internal/webgen"
)

// filesOf reads every file of a store directory by name.
func filesOf(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestWriteStoreGendataShape: cmd/gendata's configuration — direct mode,
// one shard per segment — writes a store byte-identical to a serial Run's,
// and RunFromStore renders that Run's report from it.
func TestWriteStoreGendataShape(t *testing.T) {
	for _, segments := range []int{1, 4} {
		t.Run(fmt.Sprintf("segments-%d", segments), func(t *testing.T) {
			tmp := t.TempDir()
			cfg := Config{Domains: 90, Weeks: 8, Seed: 6, Bundling: webgen.DefaultBundling(0.3),
				StoreSegments: segments}
			ref := cfg
			ref.StorePath, ref.Shards = filepath.Join(tmp, "run.store"), 1
			res, err := Run(context.Background(), ref)
			if err != nil {
				t.Fatal(err)
			}
			cfg.StorePath, cfg.Shards = filepath.Join(tmp, "write.store"), segments
			m, err := WriteStore(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m != nil {
				t.Errorf("a direct write returned crawl metrics %+v", *m)
			}
			if got, want := filesOf(t, cfg.StorePath), filesOf(t, ref.StorePath); !reflect.DeepEqual(got, want) {
				t.Errorf("WriteStore's store differs from Run's (%d files against %d)", len(got), len(want))
			}
			replayed, err := RunFromStore(cfg.StorePath, cfg.Weeks, cfg.Domains, 1)
			if err != nil {
				t.Fatal(err)
			}
			if reportOf(t, replayed) != reportOf(t, res) {
				t.Error("the written store replays to a different report than Run's")
			}
		})
	}
}

// TestWriteStoreCrawlShape: cmd/crawl's configuration stores the
// observations Run stores (the order pages complete in is not part of a
// crawl's identity) and returns the crawler's metrics.
func TestWriteStoreCrawlShape(t *testing.T) {
	tmp := t.TempDir()
	cfg := Config{Domains: 40, Weeks: 4, Seed: 2, Mode: ModeCrawl, Workers: 16, SkipPoC: true}
	ref := cfg
	ref.StorePath, ref.Shards = filepath.Join(tmp, "run.store"), 1
	if _, err := Run(context.Background(), ref); err != nil {
		t.Fatal(err)
	}
	cfg.StorePath, cfg.Shards = filepath.Join(tmp, "write.store"), 2
	m, err := WriteStore(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.Attempts < int64(cfg.Domains*cfg.Weeks) {
		t.Errorf("crawl metrics %+v, want at least one attempt per page", m)
	}
	if got, want := observationsOf(t, cfg.StorePath), observationsOf(t, ref.StorePath); !reflect.DeepEqual(got, want) {
		t.Errorf("WriteStore stored %d observations, Run %d; they differ", len(got), len(want))
	}
}

// TestWriteStoreRequiresStorePath: a write with nowhere to write is refused
// before the population is generated.
func TestWriteStoreRequiresStorePath(t *testing.T) {
	weeks := 0
	m, err := WriteStore(context.Background(), Config{Domains: 10, Weeks: 2,
		Progress: func(string, ...any) { weeks++ }})
	if err == nil || m != nil || !strings.Contains(err.Error(), "StorePath") {
		t.Errorf("WriteStore without a StorePath = %v, %v; want a refusal naming StorePath", m, err)
	}
	if weeks != 0 {
		t.Errorf("the refused write collected %d weeks", weeks)
	}
}

// TestRunFromStoreRefusesAnotherStudy: a store replayed as a study it does
// not hold used to render a report of that study from the wrong data — a
// 300 × 20 store asked as the default 20,000 × 201 printed a "201 weeks"
// report with every prevalence a tenth of the truth. The manifest's total,
// every record's week and the replayed count are checked against the asked
// shape.
func TestRunFromStoreRefusesAnotherStudy(t *testing.T) {
	cfg := Config{Domains: 300, Weeks: 20, Seed: 5, SkipPoC: true,
		StorePath: filepath.Join(t.TempDir(), "s.store")}
	if _, err := WriteStore(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	split := cfg
	split.StorePath, split.StoreSegments, split.Shards = filepath.Join(t.TempDir(), "split.store"), 3, 3
	if _, err := WriteStore(context.Background(), split); err != nil {
		t.Fatal(err)
	}
	part, err := store.ReadManifest(split.StorePath)
	if err != nil {
		t.Fatal(err)
	}
	// A segment emptied behind its manifest: the total still reads right,
	// the replayed count does not.
	emptySegment(t, store.SegmentPath(split.StorePath, 1))
	for _, tc := range []struct {
		path           string
		weeks, domains int
		want           string
	}{
		{cfg.StorePath, 201, 20000, "holds 6000 observations, not the 4020000 of a 20000-domain × 201-week study"},
		{cfg.StorePath, 20, 299, "holds 6000 observations, not the 5980 of a 299-domain × 20-week study"},
		{cfg.StorePath, 10, 600, "holds week 10, past the 10 weeks of the study"},
		{split.StorePath, 20, 300,
			fmt.Sprintf("holds %d observations, not the 6000 of a 300-domain × 20-week study", 6000-part.Counts[1])},
	} {
		if _, err := replayStore(tc.path, tc.weeks, tc.domains, 2); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("replay of %s as %d × %d = %v, want %q", filepath.Base(tc.path), tc.domains, tc.weeks, err, tc.want)
		}
	}

	ref := cfg
	ref.StorePath = ""
	res, err := Run(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := replayStore(cfg.StorePath, cfg.Weeks, cfg.Domains, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reportOf(t, replayed) != reportOf(t, res) {
		t.Error("the store replays to a different report than the run that wrote it")
	}
}

// emptySegment replaces a segment file with an empty gzip stream: a
// segment that holds no records.
func emptySegment(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gzip.NewWriter(f).Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRunFromStoreRefusesSegmentFile: a segment file is not a store. Once
// its directory's manifest was gone — a run that never sealed, which every
// reader refuses — the segment file alone still replayed to the full
// report. It is refused, sealed or not, and the refusal names the store
// directory to pass instead.
func TestRunFromStoreRefusesSegmentFile(t *testing.T) {
	cfg := Config{Domains: 60, Weeks: 8, Seed: 7, StoreSegments: 1, SkipPoC: true,
		StorePath: filepath.Join(t.TempDir(), "s.store")}
	if _, err := WriteStore(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	seg := store.SegmentPath(cfg.StorePath, 0)
	for _, sealed := range []bool{true, false} {
		if !sealed {
			if err := os.Remove(filepath.Join(cfg.StorePath, store.ManifestName)); err != nil {
				t.Fatal(err)
			}
		}
		_, err := RunFromStore(seg, cfg.Weeks, cfg.Domains, 1)
		if err == nil || !strings.Contains(err.Error(), "not a store directory") ||
			!strings.Contains(err.Error(), "pass its store "+cfg.StorePath) {
			t.Errorf("sealed=%v: replay of the segment file: %v", sealed, err)
		}
	}
	if _, err := RunFromStore(cfg.StorePath, cfg.Weeks, cfg.Domains, 1); err == nil ||
		!strings.Contains(err.Error(), "never sealed") {
		t.Errorf("replay of the unsealed directory: %v", err)
	}
}
