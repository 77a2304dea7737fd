package store

// The bytes a resume or a repair trusts before it truncates or rewrites
// anything: a checkpoint or manifest read back from disk must be safe to
// index and truncate by, and an archive of an earlier release must be
// refused with every one of its files left as it was.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCheckpointMemberOverflowRefused: four members of 2^62 bytes "sum" to
// offset 0 in int64 arithmetic. A journal that accepted them would have a
// resume or a checkpoint salvage truncate the segment to nothing before
// any member checksum is consulted; it must be refused, the refused resume
// must leave every byte in place, and a repair must keep every record.
func TestCheckpointMemberOverflowRefused(t *testing.T) {
	dir := copyFixture(t, "v3.store")
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	ck, err := ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	huge := Member{Len: 1 << 62, Sum: 1}
	ck.Offsets[0] = 0
	ck.Members[0] = []Member{huge, huge, huge, huge}
	ck.Members[0][0].Records = ck.Counts[0]
	data, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(CheckpointPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := ReadCheckpoint(dir); err == nil || !strings.HasPrefix(err.Error(), "store: ") {
		t.Errorf("ReadCheckpoint of members summing past the offset: %v", err)
	}
	before := dirContents(t, dir)
	if w, _, err := ResumeSegmented(dir, SegmentedOptions{}); err == nil {
		_ = w.Abort()
		t.Error("resume accepted the overflowing journal")
	}
	if !reflect.DeepEqual(dirContents(t, dir), before) {
		t.Error("the refused resume changed the directory")
	}
	res, err := Salvage(dir)
	if err != nil {
		t.Fatalf("repair with a refused journal: %v", err)
	}
	if res.FromCheckpoint || res.TornSegments != 0 || res.Total != len(fixtureStream()) {
		t.Errorf("repair with a refused journal kept %d of %d records: %+v", res.Total, len(fixtureStream()), res)
	}
}

// gzipFile writes each of data as one gzip member of a new file at path
// and returns the length of the first member.
func gzipFile(t *testing.T, path string, data ...string) int64 {
	t.Helper()
	var buf bytes.Buffer
	var first int64
	for i, d := range data {
		gz := gzip.NewWriter(&buf)
		if _, err := gz.Write([]byte(d)); err != nil {
			t.Fatal(err)
		}
		if err := gz.Close(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = int64(buf.Len())
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return first
}

// TestLegacyArchiveRefusedUntouched: the three shapes an archive of an
// earlier release takes on disk, built inline — a '{'-led v1 stream, a v1
// store behind a version-1 manifest, and a crashed '#'-framed v2 store
// whose journal has no format field and an uncommitted member past its
// offset. Every entry point refuses each with one message naming the
// format and the commit whose tools convert it, and no file changes: a
// repair or a resume that decoded nothing would otherwise truncate or
// rewrite the archive away.
func TestLegacyArchiveRefusedUntouched(t *testing.T) {
	record := func(week int) string {
		return fmt.Sprintf(`{"domain":"a.example","rank":1,"week":%d,"status":200,"bytes":4096}`, week)
	}
	frame := func(week int) string {
		rec := record(week)
		return fmt.Sprintf("#%d %x\n%s\n", len(rec), fnv1aUpdate(fnvOffset32, []byte(rec)), rec)
	}
	root := t.TempDir()
	file := filepath.Join(root, "v1.jsonl.gz")
	gzipFile(t, file, record(0)+"\n")

	v1 := filepath.Join(root, "v1.store")
	v2 := filepath.Join(root, "v2-crashed.store")
	for _, dir := range []string{v1, v2} {
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	gzipFile(t, SegmentPath(v1, 0), record(0)+"\n")
	manifest := `{"version": 1, "segments": 1, "partition": "fnv1a-domain", "counts": [1], "total": 1}`
	if err := os.WriteFile(filepath.Join(v1, ManifestName), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	committed := gzipFile(t, SegmentPath(v2, 0), frame(0), frame(1))
	journal := fmt.Sprintf(`{"version": 1, "committed_weeks": 1, "segments": 1, "offsets": [%d], "counts": [1], "total": 1, `+
		`"run": {"seed": 1, "domains": 1, "weeks": 2, "mode": 0}}`, committed)
	if err := os.WriteFile(CheckpointPath(v2), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}

	none := func(Observation) error { return nil }
	for _, tc := range []struct{ path, format string }{
		{file, "format v1"},
		{v1, "format v1"},
		{v2, "format v2"},
	} {
		name := filepath.Base(tc.path)
		errs := map[string]error{"ForEach": ForEach(tc.path, none)}
		if tc.path == file {
			_, errs["ReadAll"] = ReadAll(tc.path)
		} else {
			before := dirContents(t, tc.path)
			_, errs["Inspect"] = Inspect(tc.path)
			_, errs["Verify"] = Verify(tc.path)
			_, errs["Salvage"] = Salvage(tc.path)
			w, _, err := ResumeSegmented(tc.path, SegmentedOptions{})
			switch {
			case err == nil:
				_ = w.Abort()
				t.Errorf("%s: resumed", name)
			case HasCheckpoint(tc.path):
				errs["ResumeSegmented"] = err
			}
			if !reflect.DeepEqual(dirContents(t, tc.path), before) {
				t.Errorf("%s: the refusals changed the directory", name)
			}
		}
		for op, err := range errs {
			if !errors.Is(err, errLegacy) || !strings.HasPrefix(err.Error(), "store: ") ||
				!strings.Contains(err.Error(), tc.format) || !strings.Contains(err.Error(), "commit 9af76ff") {
				t.Errorf("%s of %s: %v", op, name, err)
			}
		}
	}
}

// journalSeeds returns the named journal file of the v3 fixture and of a
// freshly sealed bundle: the fuzz seeds of both journal readers.
func journalSeeds(f *testing.F, name string) [][]byte {
	bundle := filepath.Join(f.TempDir(), "b.bundle")
	writeBundle(f, bundle, RunID{Seed: 1, Domains: 6, Weeks: 8})
	var seeds [][]byte
	for _, dir := range []string{filepath.Join("testdata", "v3.store"), bundle} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// FuzzReadCheckpoint: no journal may panic the reader, every refusal is a
// "store:" error, and an accepted journal is one resume and checkpoint
// salvage can index and truncate by — per segment, the member lengths sum
// to the committed offset with no partial sum above it, the member record
// counts sum to the committed count, and the counts sum to the total.
func FuzzReadCheckpoint(f *testing.F) {
	for _, seed := range journalSeeds(f, CheckpointName) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := parseCheckpoint("fuzz", data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "store: ") {
				t.Fatalf("error without the store prefix: %v", err)
			}
			return
		}
		if len(ck.Offsets) != ck.Segments || len(ck.Counts) != ck.Segments || len(ck.Members) != ck.Segments {
			t.Fatalf("accepted %d segments with %d offsets, %d counts, %d member tables",
				ck.Segments, len(ck.Offsets), len(ck.Counts), len(ck.Members))
		}
		total := 0
		for i, members := range ck.Members {
			var bytes int64
			records := 0
			for _, m := range members {
				if m.Len <= 0 || m.Len > ck.Offsets[i]-bytes || m.Records < 0 || m.Records > ck.Counts[i]-records {
					t.Fatalf("segment %d: member %+v runs past offset %d or count %d", i, m, ck.Offsets[i], ck.Counts[i])
				}
				bytes += m.Len
				records += m.Records
			}
			if bytes != ck.Offsets[i] || records != ck.Counts[i] {
				t.Fatalf("segment %d: members sum to %d bytes, %d records; journal says %d, %d",
					i, bytes, records, ck.Offsets[i], ck.Counts[i])
			}
			total += ck.Counts[i]
		}
		if total != ck.Total {
			t.Fatalf("counts sum to %d, total says %d", total, ck.Total)
		}
	})
}

// FuzzReadManifest: no manifest may panic the reader, every refusal is a
// "store:" error, and an accepted manifest has the shape Verify indexes
// by — a current format and one count and one member table per segment.
func FuzzReadManifest(f *testing.F) {
	for _, seed := range journalSeeds(f, ManifestName) {
		f.Add(seed)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		man, err := ReadManifest(dir)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "store: ") {
				t.Fatalf("error without the store prefix: %v", err)
			}
			return
		}
		if man.Version != FormatDelta && man.Version != FormatBundle {
			t.Fatalf("accepted manifest version %d", man.Version)
		}
		if man.Segments < 1 || len(man.Counts) != man.Segments || len(man.Members) != man.Segments {
			t.Fatalf("accepted %d segments with %d counts, %d member tables",
				man.Segments, len(man.Counts), len(man.Members))
		}
	})
}
