package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clientres/internal/core"
	"clientres/internal/wexbundle"
)

// TestReplayStudyRefusesExplicitZeroFlags pins the replay's study check to
// the flags the user gave: a flag set to its zero value is a request like any
// other, refused with both values named when the recording differs, while an
// unset flag takes the recorded value.
func TestReplayStudyRefusesExplicitZeroFlags(t *testing.T) {
	dir := t.TempDir()
	meta, err := json.Marshal(wexbundle.Meta{Version: wexbundle.MetaVersion, Domains: 60, Weeks: 40, Seed: 11, BundleScan: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, wexbundle.MetaName), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	// cfg holds the flag defaults, as main builds it.
	cfg := core.Config{Domains: 2000, Weeks: 201, Seed: 1, ReplayBundle: dir}

	got, err := replayStudy(cfg, map[string]bool{})
	if err != nil {
		t.Fatalf("no study flags: %v", err)
	}
	if got.Domains != 60 || got.Weeks != 40 || got.Seed != 11 || !got.BundleScan {
		t.Errorf("no study flags: study = %d × %d seed %d bundle-scan %v, want the recorded 60 × 40 seed 11 bundle-scan true",
			got.Domains, got.Weeks, got.Seed, got.BundleScan)
	}

	matching := cfg
	matching.Seed, matching.Weeks, matching.BundleScan = 11, 40, true
	if _, err := replayStudy(matching, map[string]bool{"seed": true, "weeks": true, "bundle-scan": true}); err != nil {
		t.Errorf("flags naming the recorded study: %v", err)
	}

	for name, tc := range map[string]struct {
		cfg  func(*core.Config)
		flag string
		want string
	}{
		"seed 0":             {func(c *core.Config) { c.Seed = 0 }, "seed", "seed 0 asked, the bundle recorded 11"},
		"bundle-scan=false":  {func(c *core.Config) { c.BundleScan = false }, "bundle-scan", "bundle-scan false asked, the bundle recorded true"},
		"weeks 201":          {func(c *core.Config) {}, "weeks", "weeks 201 asked, the bundle recorded 40"},
		"domains 2000 (set)": {func(c *core.Config) {}, "domains", "domains 2000 asked, the bundle recorded 60"},
	} {
		c := cfg
		tc.cfg(&c)
		_, err := replayStudy(c, map[string]bool{tc.flag: true})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want one containing %q", name, err, tc.want)
		}
	}
}
