package main

import (
	"strings"
	"testing"
	"time"

	"clientres/internal/distcrawl"
	"clientres/internal/webgen"
)

// TestRestartTakesTheRunFromItsState: a coordinator restarted over a
// directory with only -dir continues the run coordinator.json persisted,
// whatever the other flags default to; a run flag the user set — at its
// zero value too — must name the persisted value or the restart is
// refused, naming both.
func TestRestartTakesTheRunFromItsState(t *testing.T) {
	dir := t.TempDir()
	persisted := distcrawl.RunSpec{Domains: 20, Weeks: 4, Seed: 3, Bundling: webgen.DefaultBundling(0.8),
		BundleScan: true, Partitions: 2, Dir: dir, LeaseTTL: 3 * time.Second}
	if _, err := distcrawl.NewCoordinator(persisted); err != nil {
		t.Fatal(err)
	}
	// flags holds the flag defaults, as main builds them.
	flags := distcrawl.RunSpec{Domains: 2000, Weeks: webgen.StudyWeeks, Seed: 1, Bundling: webgen.DefaultBundling(0),
		Partitions: 4, Dir: dir, LeaseTTL: 10 * time.Second}

	got, err := restartSpec(flags, map[string]bool{"dir": true, "addr": true, "out": true})
	if err != nil {
		t.Fatalf("restart with only -dir: %v", err)
	}
	if got != persisted {
		t.Fatalf("restart with only -dir: run %+v, want the persisted %+v", got, persisted)
	}
	if _, err := distcrawl.NewCoordinator(got); err != nil {
		t.Fatalf("restart with only -dir does not rehydrate: %v", err)
	}

	for name, tc := range map[string]struct {
		spec func(*distcrawl.RunSpec)
		flag string
		want string
	}{
		"weeks 9":           {func(s *distcrawl.RunSpec) { s.Weeks = 9 }, "weeks", "weeks 9 asked, coordinator.json recorded 4"},
		"bundle-scan=false": {func(s *distcrawl.RunSpec) {}, "bundle-scan", "bundle-scan false asked, coordinator.json recorded true"},
		"bundle-frac 0":     {func(s *distcrawl.RunSpec) {}, "bundle-frac", "bundle-frac 0 asked, coordinator.json recorded 0.8"},
		"seed 0":            {func(s *distcrawl.RunSpec) { s.Seed = 0 }, "seed", "seed 0 asked, coordinator.json recorded 3"},
		"partitions 4":      {func(s *distcrawl.RunSpec) {}, "partitions", "partitions 4 asked, coordinator.json recorded 2"},
	} {
		s := flags
		tc.spec(&s)
		_, err := restartSpec(s, map[string]bool{"dir": true, tc.flag: true})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want one containing %q", name, err, tc.want)
		}
	}

	// A directory without state is a new run: its flags are the run.
	fresh := flags
	fresh.Dir = t.TempDir()
	if got, err := restartSpec(fresh, map[string]bool{}); err != nil || got != fresh {
		t.Errorf("fresh directory: run %+v, err %v; want the flags' run", got, err)
	}
}
