package store

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCheckpointCommitResumeRoundTrip is the core crash/resume cycle at the
// store layer: commit half the weeks, crash with a torn tail, resume —
// which must amputate the tail back to the committed offsets — finish the
// run, and read back the complete archive bit-for-bit.
func TestCheckpointCommitResumeRoundTrip(t *testing.T) {
	const segments, domains, weeks = 3, 19, 6
	run := RunID{Seed: 11, Domains: domains, Weeks: weeks}
	opt := SegmentedOptions{Checkpoint: true, Run: run}
	all := genObs(domains, weeks)
	perWeek := byWeek(all, weeks)
	dir := filepath.Join(t.TempDir(), "store")

	w, err := CreateSegmentedWith(dir, segments, opt)
	if err != nil {
		t.Fatal(err)
	}
	for wk := 0; wk < 3; wk++ {
		for _, o := range perWeek[wk] {
			if err := w.Write(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.CommitWeek(wk); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.CommittedWeeks(); got != 3 {
		t.Fatalf("CommittedWeeks = %d, want 3", got)
	}
	// Write part of week 3 without committing it, then crash.
	for _, o := range perWeek[3][:len(perWeek[3])/2] {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	// A real crash can also leave OS-level garbage past the committed
	// offset; simulate the worst torn tail directly.
	f, err := os.OpenFile(SegmentPath(dir, 0), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\x1f\x8b torn garbage")); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	w2, ck, err := ResumeSegmented(dir, opt)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if ck.CommittedWeeks != 3 || ck.Run != run {
		t.Fatalf("resumed checkpoint %+v", ck)
	}
	if got := w2.CommittedWeeks(); got != 3 {
		t.Fatalf("resumed CommittedWeeks = %d, want 3", got)
	}
	// Verify the committed prefix by replay, exactly as core's resume does.
	for s := 0; s < segments; s++ {
		n := 0
		if err := ForEachSegment(dir, s, func(o Observation) error {
			if o.Week >= 3 {
				t.Errorf("segment %d: uncommitted week %d survived resume", s, o.Week)
			}
			n++
			return nil
		}); err != nil {
			t.Fatalf("segment %d replay after resume: %v", s, err)
		}
		if n != ck.Counts[s] {
			t.Fatalf("segment %d: %d records, checkpoint committed %d", s, n, ck.Counts[s])
		}
	}
	// Re-collect week 3 onward and finish.
	for wk := 3; wk < weeks; wk++ {
		for _, o := range perWeek[wk] {
			if err := w2.Write(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := w2.CommitWeek(wk); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Salvaged || man.Total != len(all) || man.Version != FormatDelta {
		t.Fatalf("manifest after resumed run: %+v", man)
	}
	var got []Observation
	if err := ForEachSegmented(dir, func(o Observation) error {
		got = append(got, o.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	checkSameByDomain(t, byDomain(all), byDomain(got))
	if _, err := Verify(dir); err != nil {
		t.Fatalf("resumed archive fails verify: %v", err)
	}
}

// TestResumeRefusesDifferentRun: a checkpoint stamped by one run must not
// be resumable under a different configuration.
func TestResumeRefusesDifferentRun(t *testing.T) {
	run := RunID{Seed: 5, Domains: 8, Weeks: 3, Partition: 1, Epoch: 2}
	weeks := byWeek(genObs(8, 3), 3)
	dir := filepath.Join(t.TempDir(), "store")
	w, err := CreateSegmentedWith(dir, 2, SegmentedOptions{Checkpoint: true, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range weeks[0] {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.CommitWeek(0); err != nil {
		t.Fatal(err)
	}
	_ = w.Abort()

	other := run
	other.Seed = 6
	if _, _, err := ResumeSegmented(dir, SegmentedOptions{Run: other}); err == nil ||
		!strings.Contains(err.Error(), "different run") {
		t.Fatalf("resume with wrong RunID: %v", err)
	}
	// The zero RunID is a different run too; refused, nothing is touched.
	before := dirContents(t, dir)
	if _, _, err := ResumeSegmented(dir, SegmentedOptions{}); err == nil ||
		!strings.Contains(err.Error(), "different run") {
		t.Fatalf("resume with zero RunID: %v", err)
	}
	if got := dirContents(t, dir); !reflect.DeepEqual(got, before) {
		t.Fatal("refused resume with zero RunID changed the directory")
	}
}

// TestResumeRefusesStaleEpochAndForeignStudy: another lease epoch of the
// same study is another run, whichever way it differs, and so is another
// study under any epoch; each is refused with the directory untouched.
// The same epoch is the crash-restart of the lease holder and resumes.
func TestResumeRefusesStaleEpochAndForeignStudy(t *testing.T) {
	run := RunID{Seed: 7, Domains: 4, Weeks: 3, Mode: 1, Partition: 2, Epoch: 5}
	dir := filepath.Join(t.TempDir(), "store")
	w, err := CreateSegmentedWith(dir, 2, SegmentedOptions{Checkpoint: true, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range byWeek(genObs(4, 3), 3)[0] {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.CommitWeek(0); err != nil {
		t.Fatal(err)
	}
	_ = w.Abort()

	before := dirContents(t, dir)
	older, newer, foreign := run, run, run
	older.Epoch--
	newer.Epoch++
	foreign.Seed++
	for _, id := range []RunID{older, newer, foreign} {
		if _, _, err := ResumeSegmented(dir, SegmentedOptions{Run: id}); err == nil ||
			!strings.Contains(err.Error(), "different run") {
			t.Fatalf("resume with RunID %+v: %v", id, err)
		}
		if got := dirContents(t, dir); !reflect.DeepEqual(got, before) {
			t.Fatalf("refused resume with RunID %+v changed the directory", id)
		}
	}
	w2, ck, err := ResumeSegmented(dir, SegmentedOptions{Run: run})
	if err != nil {
		t.Fatalf("same-epoch resume: %v", err)
	}
	if ck.CommittedWeeks != 1 || ck.Run != run {
		t.Fatalf("same-epoch resume sees %+v", ck)
	}
	_ = w2.Abort()
}

// TestCommitWeekGuards: committing needs the checkpoint option, and week
// numbers must advance.
func TestCommitWeekGuards(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "plain")
	w, err := CreateSegmented(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CommitWeek(0); err == nil || !strings.Contains(err.Error(), "Checkpoint") {
		t.Fatalf("CommitWeek without checkpointing: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	dir2 := filepath.Join(t.TempDir(), "ck")
	w2, err := CreateSegmentedWith(dir2, 2, SegmentedOptions{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.CommitWeek(0); err != nil {
		t.Fatal(err)
	}
	if err := w2.CommitWeek(0); err == nil || !strings.Contains(err.Error(), "already committed") {
		t.Fatalf("re-committing week 0: %v", err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRefusesMissingCommittedData: if a segment file is shorter than
// its committed offset, committed weeks are gone — resume and salvage must
// both refuse rather than silently continue from a hole.
func TestResumeRefusesMissingCommittedData(t *testing.T) {
	run := RunID{Seed: 9, Domains: 10, Weeks: 4}
	weeks := byWeek(genObs(10, 4), 4)
	dir := filepath.Join(t.TempDir(), "store")
	w, err := CreateSegmentedWith(dir, 2, SegmentedOptions{Checkpoint: true, Run: run})
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
	_ = w.Abort()
	ck, err := ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(SegmentPath(dir, 0), ck.Offsets[0]-7); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResumeSegmented(dir, SegmentedOptions{Run: run}); err == nil ||
		!strings.Contains(err.Error(), "committed data is missing") {
		t.Fatalf("resume over a hole in committed data: %v", err)
	}
	if _, err := Salvage(dir); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Fatalf("salvage over a hole in committed data: %v", err)
	}
}

// TestCheckpointMissingJournal: resuming a directory without a journal is
// an error, not an empty restart.
func TestCheckpointMissingJournal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	writeSegmented(t, dir, genObs(5, 2), 2)
	if _, _, err := ResumeSegmented(dir, SegmentedOptions{}); err == nil {
		t.Fatal("resume without a checkpoint journal must error")
	}
}

// TestResumeAfterCleanClose: a completed, closed run can still be resumed
// (e.g. to extend it); the manifest is removed while the writer is open and
// rewritten on Close.
func TestResumeAfterCleanClose(t *testing.T) {
	run := RunID{Seed: 2, Domains: 7, Weeks: 2}
	weeks := byWeek(genObs(7, 2), 2)
	dir := filepath.Join(t.TempDir(), "store")
	w, err := CreateSegmentedWith(dir, 2, SegmentedOptions{Checkpoint: true, Run: run})
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
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, ck, err := ResumeSegmented(dir, SegmentedOptions{Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if ck.CommittedWeeks != 2 {
		t.Fatalf("CommittedWeeks = %d, want 2", ck.CommittedWeeks)
	}
	if IsSegmented(dir) {
		t.Error("open resumed writer must not leave the manifest in place")
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("reclosed archive fails verify: %v", err)
	}
}
