package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clientres/internal/core"
	"clientres/internal/store"
	"clientres/internal/webgen"
	"clientres/internal/wexbundle"
)

// sealedBundle seals an empty recording of the study rec in a new bundle
// directory: its bundle.json and its manifest, stamped with the study.
func sealedBundle(t *testing.T, rec core.Config) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "r.bundle")
	w, err := wexbundle.Create(dir, wexbundle.Options{Segments: 1, Run: rec.RunID(),
		Meta: wexbundle.Meta{Domains: rec.Domains, Weeks: rec.Weeks, Seed: rec.Seed, BundleScan: rec.BundleScan}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestReplayStudyRefusesExplicitZeroFlags pins the replay's study check to
// the flags the user gave: a flag set to its zero value is a request like any
// other, refused with both values named when the recording differs, while an
// unset flag takes the recorded value.
func TestReplayStudyRefusesExplicitZeroFlags(t *testing.T) {
	dir := sealedBundle(t, core.Config{Domains: 60, Weeks: 40, Seed: 11, BundleScan: true, Mode: core.ModeCrawl})
	// cfg holds the flag defaults, as main builds it.
	cfg := core.Config{Domains: 2000, Weeks: 201, Seed: 1, ReplayBundle: dir}

	got, err := recordedStudy(cfg, map[string]bool{})
	if err != nil {
		t.Fatalf("no study flags: %v", err)
	}
	if got.Domains != 60 || got.Weeks != 40 || got.Seed != 11 || !got.BundleScan {
		t.Errorf("no study flags: study = %d × %d seed %d bundle-scan %v, want the recorded 60 × 40 seed 11 bundle-scan true",
			got.Domains, got.Weeks, got.Seed, got.BundleScan)
	}

	matching := cfg
	matching.Seed, matching.Weeks, matching.BundleScan = 11, 40, true
	if _, err := recordedStudy(matching, map[string]bool{"seed": true, "weeks": true, "bundle-scan": true}); err != nil {
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
		_, err := recordedStudy(c, map[string]bool{tc.flag: true})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want one containing %q", name, err, tc.want)
		}
	}
}

// TestReplayStudyTakesTheRecordedBundling: a bundle.json records no
// bundler adoption, so a replay takes it from the bundle's sealed manifest:
// an unset -bundle-frac becomes the recorded one, an explicit one that
// differs is refused, and a manifest that records no study is refused.
func TestReplayStudyTakesTheRecordedBundling(t *testing.T) {
	cfg := core.Config{Domains: 2000, Weeks: 201, Seed: 1, Bundling: webgen.DefaultBundling(0), Mode: core.ModeCrawl}
	for name, recorded := range map[string]webgen.Bundling{
		"plain":   {},
		"bundled": webgen.DefaultBundling(0.8),
	} {
		rec := core.Config{Domains: 60, Weeks: 40, Seed: 11, Bundling: recorded, Mode: core.ModeCrawl}
		c := cfg
		c.ReplayBundle = sealedBundle(t, rec)
		got, err := recordedStudy(c, map[string]bool{"replay": true})
		if err != nil {
			t.Fatalf("%s: no study flags: %v", name, err)
		}
		if got.RunID() != rec.RunID() {
			t.Errorf("%s: no study flags: study %v, want the recorded %v", name, got.RunID(), rec.RunID())
		}
		c.Bundling = recorded
		if _, err := recordedStudy(c, map[string]bool{"bundle-frac": true}); err != nil {
			t.Errorf("%s: -bundle-frac naming the recorded adoption: %v", name, err)
		}
		c.Bundling = webgen.DefaultBundling(0.5)
		want := fmt.Sprintf("replay %s: bundle-frac 0.5 asked, the bundle recorded %v", c.ReplayBundle, recorded.Fraction)
		if _, err := recordedStudy(c, map[string]bool{"bundle-frac": true}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: -bundle-frac 0.5: error = %v, want one containing %q", name, err, want)
		}
	}

	// A manifest without a study — sealed by a writer that had none — is
	// refused, naming the bundle.
	dir := filepath.Join(t.TempDir(), "old.bundle")
	w, err := wexbundle.Create(dir, wexbundle.Options{Segments: 1, Meta: wexbundle.Meta{Domains: 60, Weeks: 40, Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.ReplayBundle = dir
	if _, err := recordedStudy(c, map[string]bool{}); err == nil || !strings.Contains(err.Error(), "records no study") {
		t.Errorf("manifest without a study: error = %v", err)
	}
}

// TestResumeStudyTakesTheJournaledStudy is the same rule for a resume: the
// study comes from the store's checkpoint journal, bundler adoption
// included, and a study flag the user gave — at its zero value too — must
// name the journaled value or the resume is refused, naming both.
func TestResumeStudyTakesTheJournaledStudy(t *testing.T) {
	dir := t.TempDir()
	journaled := core.Config{Domains: 60, Weeks: 40, Seed: 11, Bundling: webgen.DefaultBundling(0.8),
		BundleScan: true, Mode: core.ModeCrawl}
	ck, err := json.Marshal(store.Checkpoint{Version: store.CheckpointVersion, Format: store.FormatDelta,
		CommittedWeeks: 9, Segments: 1, Offsets: []int64{10}, Counts: []int{2}, Total: 2,
		Members: [][]store.Member{{{Len: 10, Records: 2}}}, Run: journaled.RunID()})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.CheckpointPath(dir), ck, 0o644); err != nil {
		t.Fatal(err)
	}
	// cfg holds the flag defaults, as main builds it.
	cfg := core.Config{Domains: 2000, Weeks: 201, Seed: 1, Bundling: webgen.DefaultBundling(0),
		Mode: core.ModeCrawl, StorePath: dir, Resume: true}

	got, err := recordedStudy(cfg, map[string]bool{"resume": true, "out": true})
	if err != nil {
		t.Fatalf("no study flags: %v", err)
	}
	if got.RunID() != journaled.RunID() {
		t.Errorf("no study flags: study %v, want the journaled %v", got.RunID(), journaled.RunID())
	}

	matching := cfg
	matching.Domains, matching.Weeks, matching.Seed = 60, 40, 11
	matching.Bundling, matching.BundleScan = webgen.DefaultBundling(0.8), true
	if _, err := recordedStudy(matching, map[string]bool{"domains": true, "weeks": true, "seed": true,
		"bundle-frac": true, "bundle-scan": true}); err != nil {
		t.Errorf("flags naming the journaled study: %v", err)
	}

	for name, tc := range map[string]struct {
		cfg  func(*core.Config)
		flag string
		want string
	}{
		"bundle-frac 0":      {func(c *core.Config) {}, "bundle-frac", "bundle-frac 0 asked, the journal recorded 0.8"},
		"bundle-frac 0.5":    {func(c *core.Config) { c.Bundling = webgen.DefaultBundling(0.5) }, "bundle-frac", "bundle-frac 0.5 asked, the journal recorded 0.8"},
		"bundle-scan=false":  {func(c *core.Config) {}, "bundle-scan", "bundle-scan false asked, the journal recorded true"},
		"seed 0":             {func(c *core.Config) { c.Seed = 0 }, "seed", "seed 0 asked, the journal recorded 11"},
		"weeks 201":          {func(c *core.Config) {}, "weeks", "weeks 201 asked, the journal recorded 40"},
		"domains 2000 (set)": {func(c *core.Config) {}, "domains", "domains 2000 asked, the journal recorded 60"},
	} {
		c := cfg
		tc.cfg(&c)
		_, err := recordedStudy(c, map[string]bool{tc.flag: true})
		if err == nil || !strings.Contains(err.Error(), "resume "+dir+": "+tc.want) {
			t.Errorf("%s: error = %v, want one containing %q", name, err, tc.want)
		}
	}

	// A store with no journal has no study to resume.
	none := cfg
	none.StorePath = t.TempDir()
	if _, err := recordedStudy(none, map[string]bool{}); err == nil {
		t.Error("resume of a store without a checkpoint journal: no error")
	}
	// A fresh run records nothing yet: its flags are its study.
	fresh := cfg
	fresh.Resume = false
	if got, err := recordedStudy(fresh, map[string]bool{"domains": true}); err != nil || got.RunID() != fresh.RunID() {
		t.Errorf("fresh run: study %v, err %v; want its own flags", got.RunID(), err)
	}
}
