package store

// Golden archives. testdata/ holds one small observation stream as every
// format and layout a release of this package ever wrote (README.md there
// says which commit wrote them). The v1/v2 decoders, the salvage upgrade
// and the byte encoding of v3 are tested against these files, not against
// a writer of the same tree.

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fixtureStream is what every fixture holds: 6 domains x 8 weeks in
// collection order, with an unchanged-page run, a changed page, Libs and
// Flash changing to other values and to nothing, and status-0 fetches.
func fixtureStream() []Observation {
	jq := func(v string) LibRecord { return LibRecord{Slug: "jquery", Version: v, Known: true} }
	boot := LibRecord{Slug: "bootstrap", Version: "3.3.7", Known: true, External: true,
		Host: "maxcdn.bootstrapcdn.com", SRI: true, Crossorigin: "anonymous"}
	var out []Observation
	for w := 0; w < 8; w++ {
		out = append(out, Observation{Domain: "steady.example", Rank: 1, Week: w, Status: 200,
			Bytes: 5120, Country: "US", HasJS: true, Libs: []LibRecord{jq("1.12.4")},
			Resources: ResourceFlags{JavaScript: true, CSS: true}})
		size := 2048
		if w >= 3 {
			size = 2300
		}
		out = append(out, Observation{Domain: "edited.example", Rank: 2, Week: w, Status: 200,
			Bytes: size, HasJS: true, Resources: ResourceFlags{JavaScript: true, Favicon: true}})
		libs := []LibRecord{jq("1.12.4")}
		switch {
		case w >= 6:
			libs = nil
		case w >= 4:
			libs = []LibRecord{jq("3.5.1"), boot}
		}
		out = append(out, Observation{Domain: "upgrade.example", Rank: 3, Week: w, Status: 200,
			Bytes: 4096, HasJS: true, Libs: libs, Resources: ResourceFlags{JavaScript: true, CSS: true, SVG: true}})
		var fl *FlashRecord
		switch {
		case w < 3:
			fl = &FlashRecord{ScriptAccessParam: true, Always: true, Visible: true}
		case w < 5:
			fl = &FlashRecord{ViaSWFObject: true}
		}
		out = append(out, Observation{Domain: "flash.example", Rank: 4, Week: w, Status: 200,
			Bytes: 3000, Country: "CN", Flash: fl, Resources: ResourceFlags{Flash: fl != nil, CSS: true}})
		o := Observation{Domain: "flaky.example", Rank: 5, Week: w, Status: 200, Bytes: 1500,
			HasJS: true, WordPress: "5.6", Libs: []LibRecord{jq("2.2.4")},
			Resources: ResourceFlags{JavaScript: true}}
		switch w {
		case 2, 3:
			o = Observation{Domain: "flaky.example", Rank: 5, Week: w}
		case 6:
			o = Observation{Domain: "flaky.example", Rank: 5, Week: w, Status: 404, Bytes: 312}
		case 7:
			o.WordPress = "5.7"
		}
		out = append(out, o)
		out = append(out, Observation{Domain: "bundled.example", Rank: 6, Week: w, Status: 200,
			Bytes: 9000, Country: "DE", HasJS: true,
			Libs:      []LibRecord{{Slug: "moment", Version: "2.18.1", Known: true, Sig: true}, {Slug: "lodash"}},
			Resources: ResourceFlags{JavaScript: true, ImportedHTML: true}})
	}
	return out
}

// copyFixture copies a fixture directory to where a test may damage or
// repair it, and returns the copy's path.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), name)
	if err := os.Mkdir(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for file, data := range dirContents(t, filepath.Join("testdata", name)) {
		if err := os.WriteFile(filepath.Join(dst, file), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// tornFixture is copyFixture of a sealed store, then the crash shape of the
// releases before checkpoints: no manifest, segment 1 cut in half.
func tornFixture(t *testing.T, name string) string {
	t.Helper()
	dir := copyFixture(t, name)
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(SegmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(SegmentPath(dir, 1), fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	return dir
}

// dirContents maps every file of dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// gunzip returns a segment's decompressed bytes, all members concatenated.
func gunzip(t testing.TB, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenV3Encoding pins the v3 byte encoding: the live writer, fed what
// the v3 fixture holds, must produce segments that decompress to the
// fixture's bytes. (Compressed bytes depend on the Go release's deflate
// and are not compared.)
func TestGoldenV3Encoding(t *testing.T) {
	golden := filepath.Join("testdata", "v3.store")
	obs, err := ReadAll(golden)
	if err != nil {
		t.Fatal(err)
	}
	live := filepath.Join(t.TempDir(), "live")
	writeSegmented(t, live, obs, 2)
	for s := 0; s < 2; s++ {
		want, got := gunzip(t, SegmentPath(golden, s)), gunzip(t, SegmentPath(live, s))
		if !bytes.Equal(got, want) {
			t.Errorf("segment %d: the v3 encoding changed\n got:\n%s\nwant:\n%s", s, got, want)
		}
	}
	if _, err := Verify(golden); err != nil {
		t.Errorf("the v3 fixture, journal and member tables included, fails verify: %v", err)
	}
}

// TestResumeRefusesOtherCodec: a resume pointed at the journal of another
// codec — the sealed bundle instead of the store recorded beside it, or a
// crashed v2 store of an earlier release — is refused before the manifest
// is removed or a segment truncated: the directory stays byte-for-byte
// what it was. (wexbundle's TestResumeRejectsObservationStore is the other
// direction.)
func TestResumeRefusesOtherCodec(t *testing.T) {
	run := RunID{Seed: 1, Domains: 6, Weeks: 8}
	bundle := filepath.Join(t.TempDir(), "b.bundle")
	w, err := CreateSegmentedWith(bundle, 2, SegmentedOptions{Checkpoint: true, Run: run, Format: FormatBundle})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range fixtureStream()[:12] {
		if err := w.WriteRaw(o.Domain, []byte("!"+o.Domain)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.CommitWeek(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{"bundle": bundle, "v2-journal": copyFixture(t, "v2-crashed.store")} {
		before := dirContents(t, dir)
		_, _, err := ResumeSegmented(dir, SegmentedOptions{Run: run})
		if err == nil || !strings.Contains(err.Error(), "nothing was changed") {
			t.Errorf("%s: resume as an observation store: %v", name, err)
		}
		if !reflect.DeepEqual(dirContents(t, dir), before) {
			t.Errorf("%s: the refused resume changed the directory", name)
		}
	}
	if _, err := Verify(bundle); err != nil {
		t.Errorf("the bundle no longer verifies: %v", err)
	}
}

// FuzzDecodeStream feeds arbitrary decompressed bytes — what a segment of
// any version, from any release or none, may hold — through the format
// sniff and the three decoders behind it. No input may panic; every
// failure is a "store:" error; and cutting a stream short may drop
// observations off the end but never changes or adds one before the cut,
// which is what lets salvage keep a torn segment's prefix.
func FuzzDecodeStream(f *testing.F) {
	for _, name := range []string{"v1-file.jsonl.gz", "v1.store/seg-0000.jsonl.gz",
		"v2.store/seg-0001.jsonl.gz", "v2-crashed.store/seg-0001.jsonl.gz", "v3.store/seg-0000.jsonl.gz", "v3.store/seg-0001.jsonl.gz"} {
		raw := gunzip(f, filepath.Join("testdata", name))
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:len(raw)-1])
	}
	decode := func(t *testing.T, data []byte) []Observation {
		var out []Observation
		err := decodeStream(bytes.NewReader(data), "fuzz", func(o Observation) error {
			out = append(out, o.Clone())
			return nil
		})
		if err != nil && !strings.HasPrefix(err.Error(), "store: fuzz: ") {
			t.Fatalf("error without the store prefix: %v", err)
		}
		return out
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		whole, cut := decode(t, data), decode(t, data[:len(data)/2])
		if len(cut) > len(whole) || (len(cut) > 0 && !reflect.DeepEqual(cut, whole[:len(cut)])) {
			t.Fatalf("half the stream decodes to %d observations that are no prefix of the whole stream's %d",
				len(cut), len(whole))
		}
	})
}
