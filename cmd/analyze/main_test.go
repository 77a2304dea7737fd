package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clientres/internal/core"
	"clientres/internal/wexbundle"
)

// TestRunBundleRefusesCorruptMeta: -bundle takes the study's shape from
// bundle.json. A truncated one used to be read as absent, and the replay
// then ran the flags' defaults — a 201-week, 20,000-domain report of
// status-0 pages, exit 0 — instead of the recorded 30 × 3 study.
func TestRunBundleRefusesCorruptMeta(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "b.bundle")
	if _, err := core.Run(context.Background(), core.Config{Domains: 30, Weeks: 3, Seed: 4,
		Mode: core.ModeCrawl, Workers: 8, SkipPoC: true, RecordBundle: dir}); err != nil {
		t.Fatal(err)
	}
	// Intact, the recorded shape overrides the flags' defaults.
	res, err := runBundle(dir, 201, 20000, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weeks != 3 || len(res.Eco.Sites) != 30 {
		t.Errorf("replayed a %d-domain × %d-week study, recorded 30 × 3", len(res.Eco.Sites), res.Weeks)
	}

	if err := os.WriteFile(filepath.Join(dir, wexbundle.MetaName), []byte(`{"version":1,"domains":3`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Explicit-looking arguments, so that a regression fails fast instead
	// of replaying the default 20,000 × 201 study.
	_, err = runBundle(dir, 3, 30, 4, 1, false)
	if err == nil || !strings.HasPrefix(err.Error(), "wexbundle: ") || !strings.Contains(err.Error(), "corrupt bundle.json") {
		t.Fatalf("runBundle = %v, want the wexbundle: … corrupt bundle.json error", err)
	}
}
