package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clientres/internal/core"
	"clientres/internal/store"
)

// TestStudyComesFromTheManifest: analyze reads the study's shape from the
// manifest the store was sealed with, and refuses a manifest that records
// none, naming the store.
func TestStudyComesFromTheManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "obs.store")
	if _, err := core.WriteStore(context.Background(), core.Config{Domains: 6, Weeks: 3, Seed: 2, StorePath: dir}); err != nil {
		t.Fatal(err)
	}
	run, err := store.ReadStudy(dir)
	if err != nil {
		t.Fatal(err)
	}
	if run.Domains != 6 || run.Weeks != 3 || run.Seed != 2 {
		t.Errorf("study = %v, want the written 6 domains × 3 weeks, seed 2", run)
	}

	path := filepath.Join(dir, store.ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if _, ok := man["run"]; !ok {
		t.Fatalf("the sealed manifest has no run: %s", data)
	}
	delete(man, "run")
	if data, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.ReadManifest(dir); err != nil {
		t.Fatalf("the manifest without its run no longer reads: %v", err)
	}
	_, err = store.ReadStudy(dir)
	if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "records no study") {
		t.Errorf("manifest without a run: error = %v, want one naming %s and that it records no study", err, dir)
	}
}
