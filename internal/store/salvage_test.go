package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// splitBySegment routes a stream the way SegmentedWriter would.
func splitBySegment(obs []Observation, n int) [][]Observation {
	out := make([][]Observation, n)
	for _, o := range obs {
		s := ShardOf(o.Domain, n)
		out[s] = append(out[s], o)
	}
	return out
}

// readSegment collects one segment's records, copying the reused Libs.
func readSegment(t *testing.T, dir string, seg int) []Observation {
	t.Helper()
	var got []Observation
	if err := ForEachSegment(dir, seg, func(o Observation) error {
		got = append(got, o.Clone())
		return nil
	}); err != nil {
		t.Fatalf("segment %d: %v", seg, err)
	}
	return got
}

// checkPrefix asserts got is an exact prefix of want.
func checkPrefix(t *testing.T, seg int, got, want []Observation) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("segment %d: %d records, only %d written", seg, len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		if len(a.Libs) == 0 {
			a.Libs = nil
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("segment %d record %d mismatch\n got %+v\nwant %+v", seg, i, a, b)
		}
	}
}

// TestSalvageIntactNoop: a clean archive passes Verify and Salvage must not
// touch it.
func TestSalvageIntactNoop(t *testing.T) {
	obs := genObs(12, 3)
	dir := filepath.Join(t.TempDir(), "store")
	writeSegmented(t, dir, obs, 3)
	res, err := Salvage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Intact || res.Total != len(obs) || res.TornSegments != 0 {
		t.Fatalf("salvage of intact store: %+v", res)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Salvaged {
		t.Error("intact store must not be marked salvaged")
	}
}

// TestSalvageScanRebuildsTornStore: no manifest, no checkpoint — the legacy
// crash shape. Salvage must keep each segment's longest valid record prefix
// and rebuild a manifest marked salvaged.
func TestSalvageScanRebuildsTornStore(t *testing.T) {
	const segments = 4
	obs := genObs(25, 4)
	perSeg := splitBySegment(obs, segments)
	dir := filepath.Join(t.TempDir(), "store")
	writeSegmented(t, dir, obs, segments)

	// Crash shape: manifest gone, one segment cut mid-stream, one with
	// garbage appended past its final gzip member.
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(SegmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(SegmentPath(dir, 1), fi.Size()*2/3); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(SegmentPath(dir, 3), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("not gzip at all")); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	res, err := Salvage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Intact || res.FromCheckpoint {
		t.Fatalf("scan salvage took the wrong path: %+v", res)
	}
	if res.TornSegments != 2 {
		t.Errorf("TornSegments = %d, want 2", res.TornSegments)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !man.Salvaged || man.Version != FormatDelta {
		t.Fatalf("salvaged manifest: %+v", man)
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("salvaged store fails verify: %v", err)
	}
	for s := 0; s < segments; s++ {
		got := readSegment(t, dir, s)
		checkPrefix(t, s, got, perSeg[s])
		// Untouched segments keep everything; the garbage-suffixed one only
		// lost the garbage.
		if s != 1 && len(got) != len(perSeg[s]) {
			t.Errorf("segment %d: %d records after salvage, want all %d", s, len(got), len(perSeg[s]))
		}
		if s == 1 && len(got) == len(perSeg[s]) {
			t.Errorf("segment 1 was truncated mid-stream but lost nothing — suspicious")
		}
	}
}

// TestSalvageFromCheckpointDropsUncommittedTail: with a checkpoint, salvage
// must restore exactly the committed weeks — a durable-but-uncommitted tail
// is amputated, not kept.
func TestSalvageFromCheckpointDropsUncommittedTail(t *testing.T) {
	const segments, weeks = 2, 3
	run := RunID{Seed: 21, Domains: 14, Weeks: weeks}
	perWeek := byWeek(genObs(14, weeks), weeks)
	dir := filepath.Join(t.TempDir(), "store")
	w, err := CreateSegmentedWith(dir, segments, SegmentedOptions{Checkpoint: true, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	for wk := 0; wk < 2; wk++ {
		for _, o := range perWeek[wk] {
			if err := w.Write(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.CommitWeek(wk); err != nil {
			t.Fatal(err)
		}
	}
	// Week 2 reaches the disk (flushed, fsynced, member closed) but its
	// checkpoint is never written — a crash between segment commit and
	// journal commit.
	for _, o := range perWeek[2] {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	for i := range w.segs {
		if _, err := w.segs[i].commit(); err != nil {
			t.Fatal(err)
		}
	}
	_ = w.Abort()

	res, err := Salvage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FromCheckpoint || res.TornSegments == 0 || res.DroppedBytes == 0 {
		t.Fatalf("checkpoint salvage result: %+v", res)
	}
	var committed []Observation
	for wk := 0; wk < 2; wk++ {
		committed = append(committed, perWeek[wk]...)
	}
	perSeg := splitBySegment(committed, segments)
	for s := 0; s < segments; s++ {
		got := readSegment(t, dir, s)
		if len(got) != len(perSeg[s]) {
			t.Fatalf("segment %d: %d records, want exactly the %d committed", s, len(got), len(perSeg[s]))
		}
		checkPrefix(t, s, got, perSeg[s])
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("salvaged store fails verify: %v", err)
	}
}

// TestVerifyLyingManifest (satellite S2): ReadManifest only checks shape,
// so a manifest whose declared counts do not match the decodable data reads
// fine — Verify is the integrity mode that catches it.
func TestVerifyLyingManifest(t *testing.T) {
	obs := genObs(10, 2)
	dir := filepath.Join(t.TempDir(), "store")
	writeSegmented(t, dir, obs, 2)
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.Counts[0]++
	man.Total++
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err != nil {
		t.Fatalf("the lying manifest is shape-valid, ReadManifest must accept it: %v", err)
	}
	if _, err := Verify(dir); err == nil ||
		!strings.Contains(err.Error(), "seg-0000.jsonl.gz") ||
		!strings.Contains(err.Error(), "manifest declares") {
		t.Fatalf("Verify must name the lying segment: %v", err)
	}
}

// TestParallelReaderTruncatedSegment (satellite S3): one segment cut
// mid-gzip-stream. Its reader — each segment has its own, which is what
// core's replay lanes run side by side — must fail with a store: error
// naming it, the other segments read whole, and the callbacks must only
// ever have seen complete, checksum-valid records that were actually
// written.
func TestParallelReaderTruncatedSegment(t *testing.T) {
	const segments = 4
	obs := genObs(30, 3)
	perSeg := splitBySegment(obs, segments)
	dir := filepath.Join(t.TempDir(), "store")
	writeSegmented(t, dir, obs, segments)
	fi, err := os.Stat(SegmentPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(SegmentPath(dir, 2), fi.Size()*3/5); err != nil {
		t.Fatal(err)
	}

	got := make([][]Observation, segments)
	for seg := range got {
		err := ForEachSegment(dir, seg, func(o Observation) error {
			got[seg] = append(got[seg], o.Clone())
			return nil
		})
		switch {
		case seg != 2 && err != nil:
			t.Errorf("intact segment %d: %v", seg, err)
		case seg == 2 && err == nil:
			t.Fatal("read of a truncated segment must error")
		case seg == 2 && (!strings.HasPrefix(err.Error(), "store:") || !strings.Contains(err.Error(), "seg-0002.jsonl.gz")):
			t.Fatalf("error must carry the store prefix and name the torn segment: %v", err)
		}
		checkPrefix(t, seg, got[seg], perSeg[seg])
	}
	if len(got[2]) >= len(perSeg[2]) {
		t.Errorf("segment 2 delivered %d records from a truncated file holding %d", len(got[2]), len(perSeg[2]))
	}
}
