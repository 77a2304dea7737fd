package store

// Filesystem fault injection: the write-path counterpart of the crawler's
// chaos schedules. A faultFS wraps the real filesystem and fails a chosen
// operation — short write, ENOSPC mid-segment, fsync error, crash-before-
// rename — at a deterministic byte budget. The schedule tests then prove
// the durability contract: whatever the fault, the on-disk store is either
// fully committed through the last checkpointed week or salvageable to
// exactly that state. No committed week may ever be lost.

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var (
	errInjectedWrite  = errors.New("injected: no space left on device")
	errInjectedSync   = errors.New("injected: fsync failed")
	errInjectedRename = errors.New("injected: crash before rename")
)

// faultFS injects write-path faults at a byte budget. All segment and
// journal writes share one budget, so a schedule deterministically places
// the fault at a byte offset of the run.
type faultFS struct {
	mu sync.Mutex
	os osFS
	// budget is the bytes allowed before the write fault fires; -1 means
	// unlimited.
	budget int
	// shortWrite makes the faulting Write persist a partial prefix first —
	// a torn write — instead of failing cleanly like ENOSPC.
	shortWrite bool
	failSync   bool
	failRename bool
	wrote      int
	// faulted records that the budget fault actually fired.
	faulted bool
}

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, File: file}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	fail := f.failRename
	f.mu.Unlock()
	if fail {
		return errInjectedRename
	}
	return f.os.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(name string) error { return f.os.Remove(name) }

func (f *faultFS) SyncDir(dir string) error {
	f.mu.Lock()
	fail := f.failSync
	f.mu.Unlock()
	if fail {
		return errInjectedSync
	}
	return f.os.SyncDir(dir)
}

type faultFile struct {
	fs *faultFS
	File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	ff.fs.wrote += len(p)
	if ff.fs.budget < 0 {
		return ff.File.Write(p)
	}
	if len(p) <= ff.fs.budget {
		ff.fs.budget -= len(p)
		return ff.File.Write(p)
	}
	// The fault point: optionally tear the write, then fail.
	n := 0
	if ff.fs.shortWrite && ff.fs.budget > 0 {
		n, _ = ff.File.Write(p[:ff.fs.budget])
	}
	ff.fs.budget = 0
	ff.fs.faulted = true
	return n, errInjectedWrite
}

func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	fail := ff.fs.failSync
	ff.fs.mu.Unlock()
	if fail {
		return errInjectedSync
	}
	return ff.File.Sync()
}

// byWeek splits an observation stream into per-week groups.
func byWeek(obs []Observation, weeks int) [][]Observation {
	out := make([][]Observation, weeks)
	for _, o := range obs {
		out[o.Week] = append(out[o.Week], o)
	}
	return out
}

// runCheckpointedWrite drives a checkpointed segmented write week by week
// on fsys until a fault aborts it, simulating the crash with Abort (user-
// space buffers lost, OS-reached bytes kept). It returns the number of
// weeks whose CommitWeek succeeded.
func runCheckpointedWrite(t *testing.T, dir string, fsys FS, weeks [][]Observation, segments int, run RunID) (committed int) {
	t.Helper()
	w, err := CreateSegmentedWith(dir, segments, SegmentedOptions{Checkpoint: true, Run: run, FS: fsys})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for wk, obs := range weeks {
		for _, o := range obs {
			if err := w.Write(o); err != nil {
				_ = w.Abort()
				return committed
			}
		}
		if err := w.CommitWeek(wk); err != nil {
			_ = w.Abort()
			return committed
		}
		committed = wk + 1
	}
	if err := w.Close(); err != nil {
		_ = w.Abort()
		return committed
	}
	return committed
}

// checkSalvagedState asserts the durability contract on a salvaged store:
// every record of every committed week is present, and each segment's
// recovered records are an exact prefix of the records routed to it.
func checkSalvagedState(t *testing.T, dir string, weeks [][]Observation, segments, committedWeeks int) {
	t.Helper()
	perSeg := make([][]Observation, segments)
	committedPerSeg := make([]int, segments)
	for wk, obs := range weeks {
		for _, o := range obs {
			s := ShardOf(o.Domain, segments)
			perSeg[s] = append(perSeg[s], o)
			if wk < committedWeeks {
				committedPerSeg[s]++
			}
		}
	}
	for s := 0; s < segments; s++ {
		got := readSegment(t, dir, s)
		if len(got) < committedPerSeg[s] {
			t.Fatalf("segment %d: %d records recovered, committed weeks held %d — committed data lost",
				s, len(got), committedPerSeg[s])
		}
		checkPrefix(t, s, got, perSeg[s])
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("salvaged store fails verify: %v", err)
	}
}

// TestFaultScheduleCommitsOrSalvages sweeps the write fault across the two
// writes a store can get — several byte budgets each, as clean ENOSPC and
// as torn short writes. v3: a checkpointed run; every crash point leaves a
// store Salvage restores to all committed weeks. scan: `fsck -repair`
// rewriting, segment by segment, a torn store that has no journal; a
// repair the disk cuts short must seal nothing and cost the next repair no
// record. (The bundle codec has its sweep in wexbundle.)
func TestFaultScheduleCommitsOrSalvages(t *testing.T) {
	const segments = 3
	run := RunID{Seed: 77, Domains: 15, Weeks: 6}
	weeks := byWeek(genObs(15, 6), 6)

	// write runs on an unlimited probe first, which measures the fault-free
	// byte volume to place the budgets by.
	sweep := func(tag string, write func(t *testing.T, fsys *faultFS)) {
		probe := &faultFS{budget: -1}
		write(t, probe)
		if probe.wrote == 0 {
			t.Fatal("probe measured zero bytes")
		}
		for _, shortWrite := range []bool{false, true} {
			name := "enospc"
			if shortWrite {
				name = "short-write"
			}
			for _, frac := range []int{5, 25, 45, 65, 85, 99} {
				t.Run(tag+"/"+name+"/"+itoa(frac)+"pct", func(t *testing.T) {
					fsys := &faultFS{budget: probe.wrote * frac / 100, shortWrite: shortWrite}
					write(t, fsys)
					if !fsys.faulted {
						t.Fatalf("%d%% of %d bytes did not fault", frac, probe.wrote)
					}
				})
			}
		}
	}
	sweep("v3", func(t *testing.T, fsys *faultFS) {
		dir := filepath.Join(t.TempDir(), "store")
		// committed may reach 6 when the fault lands past the last
		// CommitWeek (e.g. inside the manifest write): all weeks are then
		// committed and salvage must restore the full archive.
		committed := runCheckpointedWrite(t, dir, fsys, weeks, segments, run)
		if !fsys.faulted && committed != 6 {
			t.Fatalf("fault-free run committed %d weeks, want 6", committed)
		}
		res, err := Salvage(dir)
		if err != nil {
			t.Fatalf("salvage after %d committed weeks: %v", committed, err)
		}
		if fsys.faulted && committed > 0 && !res.FromCheckpoint {
			t.Errorf("checkpoint present but salvage ignored it: %+v", res)
		}
		checkSalvagedState(t, dir, weeks, segments, committed)
	})
	kept := -1 // records the fault-free repair recovers
	sweep("scan", func(t *testing.T, fsys *faultFS) {
		dir := tornFixture(t, "v3.store")
		if err := os.Remove(CheckpointPath(dir)); err != nil {
			t.Fatal(err)
		}
		res, err := salvageOn(fsys, dir)
		if kept < 0 {
			kept = res.Total
		}
		if (err != nil) != fsys.faulted || IsSegmented(dir) != (err == nil) {
			t.Fatalf("repair: %v (faulted=%v, sealed=%v)", err, fsys.faulted, IsSegmented(dir))
		}
		if res, err = Salvage(dir); err != nil || res.Total != kept {
			t.Fatalf("repair after the cut-short one: %d of %d records, %v", res.Total, kept, err)
		}
		checkSalvagedState(t, dir, byWeek(fixtureStream(), 8), 2, 0)
		if man, err := ReadManifest(dir); err != nil || man.Version != FormatDelta {
			t.Errorf("repaired manifest: %+v, %v", man, err)
		}
	})
}

// TestFaultFsyncAbortsCommit: an fsync failure must fail CommitWeek (the
// week is not durable) and leave the previous commit salvageable.
func TestFaultFsyncAbortsCommit(t *testing.T) {
	const segments = 2
	run := RunID{Seed: 3, Domains: 10, Weeks: 4}
	weeks := byWeek(genObs(10, 4), 4)
	fsys := &faultFS{budget: -1}
	dir := filepath.Join(t.TempDir(), "store")
	w, err := CreateSegmentedWith(dir, segments, SegmentedOptions{Checkpoint: true, Run: run, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	for wk := 0; wk < 2; wk++ {
		for _, o := range weeks[wk] {
			if err := w.Write(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.CommitWeek(wk); err != nil {
			t.Fatal(err)
		}
	}
	fsys.mu.Lock()
	fsys.failSync = true
	fsys.mu.Unlock()
	for _, o := range weeks[2] {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.CommitWeek(2); !errors.Is(err, errInjectedSync) {
		t.Fatalf("CommitWeek with failing fsync: %v", err)
	}
	_ = w.Abort()
	if _, err := Salvage(dir); err != nil {
		t.Fatal(err)
	}
	checkSalvagedState(t, dir, weeks, segments, 2)
	if ck, err := ReadCheckpoint(dir); err != nil || ck.CommittedWeeks != 2 {
		t.Fatalf("checkpoint after failed commit: %+v, %v", ck, err)
	}
}

// TestFaultCrashBeforeRename: the checkpoint temp file is written but the
// rename never happens — the previous checkpoint must stay authoritative
// and the store salvageable to it.
func TestFaultCrashBeforeRename(t *testing.T) {
	const segments = 2
	run := RunID{Seed: 4, Domains: 12, Weeks: 4}
	weeks := byWeek(genObs(12, 4), 4)
	fsys := &faultFS{budget: -1}
	dir := filepath.Join(t.TempDir(), "store")
	w, err := CreateSegmentedWith(dir, segments, SegmentedOptions{Checkpoint: true, Run: run, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	commitThrough := func(from, to int) {
		t.Helper()
		for wk := from; wk < to; wk++ {
			for _, o := range weeks[wk] {
				if err := w.Write(o); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.CommitWeek(wk); err != nil {
				t.Fatal(err)
			}
		}
	}
	commitThrough(0, 3)
	fsys.mu.Lock()
	fsys.failRename = true
	fsys.mu.Unlock()
	for _, o := range weeks[3] {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.CommitWeek(3); !errors.Is(err, errInjectedRename) {
		t.Fatalf("CommitWeek with failing rename: %v", err)
	}
	_ = w.Abort()
	ck, err := ReadCheckpoint(dir)
	if err != nil {
		t.Fatalf("previous checkpoint must survive the torn commit: %v", err)
	}
	if ck.CommittedWeeks != 3 {
		t.Fatalf("checkpoint says %d weeks, want the pre-crash 3", ck.CommittedWeeks)
	}
	if _, err := Salvage(dir); err != nil {
		t.Fatal(err)
	}
	checkSalvagedState(t, dir, weeks, segments, 3)
}
