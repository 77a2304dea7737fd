package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
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

// TestRestartOverAMovedDirKeepsItsRun: -dir names where a run is, not which
// run it is. A coordinator restarted over a directory that was moved
// continues the run persisted there, with its accepted spans and its next
// epoch, and writes nothing at the old path.
func TestRestartOverAMovedDirKeepsItsRun(t *testing.T) {
	root := t.TempDir()
	from, to := filepath.Join(root, "a"), filepath.Join(root, "b")
	c, err := distcrawl.NewCoordinator(distcrawl.RunSpec{Domains: 20, Weeks: 4, Seed: 3,
		Partitions: 2, Dir: from, LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	l := c.Lease("w0")
	if resp := c.Commit(distcrawl.CommitRequest{Worker: "w0", Partition: l.Partition, Epoch: l.Epoch, Week: l.StartWeek}); !resp.OK {
		t.Fatalf("commit refused: %+v", resp)
	}
	spans := c.Spans()
	if err := os.Rename(from, to); err != nil {
		t.Fatal(err)
	}

	flags := distcrawl.RunSpec{Domains: 2000, Weeks: webgen.StudyWeeks, Seed: 1, Bundling: webgen.DefaultBundling(0),
		Partitions: 4, Dir: to, LeaseTTL: 10 * time.Second}
	got, err := restartSpec(flags, map[string]bool{"dir": true})
	if err != nil {
		t.Fatalf("restart over the moved directory: %v", err)
	}
	if got.Dir != to {
		t.Errorf("restart over %s serves the run at %s", to, got.Dir)
	}
	moved, err := distcrawl.NewCoordinator(got)
	if err != nil {
		t.Fatalf("restart over the moved directory does not rehydrate: %v", err)
	}
	if !reflect.DeepEqual(moved.Spans(), spans) {
		t.Errorf("rehydrated spans %+v, want the persisted %+v", moved.Spans(), spans)
	}
	if next := moved.Lease("w1"); !next.Assigned || next.Epoch != l.Epoch+1 {
		t.Errorf("first lease after the move: %+v, want epoch %d", next, l.Epoch+1)
	}
	if _, err := os.Stat(from); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the restart wrote at the old path %s (stat: %v)", from, err)
	}
}
