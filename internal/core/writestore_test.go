package core

// WriteStore is Run's collection without the collectors: what the shipped
// writers (cmd/gendata, cmd/crawl) store must be what Run stores, and must
// analyse to Run's report.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

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
