package store

// Golden archive. testdata/v3.store holds one small observation stream as
// the live writer encoded it at the commit its README names. The byte
// encoding of v3 and the journal and manifest readers are tested against
// it, not only against a writer of the same tree.

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

// fixtureStream is what the fixture holds: 6 domains x 8 weeks in
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

// writeBundle seals a small two-segment bundle archive in dir: one raw
// '!' line per domain-week of the fixture's first two weeks, one commit.
func writeBundle(t testing.TB, dir string, run RunID) {
	t.Helper()
	w, err := CreateSegmentedWith(dir, 2, SegmentedOptions{Checkpoint: true, Run: run, Format: FormatBundle})
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
// codec — the sealed bundle instead of the store recorded beside it — is
// refused before the manifest is removed or a segment truncated: the
// directory stays byte-for-byte what it was. (wexbundle's
// TestResumeRejectsObservationStore is the other direction; a journal of
// an earlier release is TestLegacyArchiveRefusedUntouched's.)
func TestResumeRefusesOtherCodec(t *testing.T) {
	run := RunID{Seed: 1, Domains: 6, Weeks: 8}
	bundle := filepath.Join(t.TempDir(), "b.bundle")
	writeBundle(t, bundle, run)
	before := dirContents(t, bundle)
	_, _, err := ResumeSegmented(bundle, SegmentedOptions{Run: run})
	if err == nil || !strings.Contains(err.Error(), "nothing was changed") {
		t.Errorf("resume of a bundle as an observation store: %v", err)
	}
	if !reflect.DeepEqual(dirContents(t, bundle), before) {
		t.Error("the refused resume changed the directory")
	}
	if _, err := Verify(bundle); err != nil {
		t.Errorf("the bundle no longer verifies: %v", err)
	}
}

// FuzzDecodeStream feeds arbitrary decompressed bytes — what a segment
// from any release or none may hold — through the format dispatch and the
// delta decoder behind it. No input may panic; every failure is a
// "store:" error; and cutting a stream short may drop observations off the
// end but never changes or adds one before the cut, which is what lets
// salvage keep a torn segment's prefix. The seeds are the v3 fixture's
// segments, alone and back to back, and one stream led by each refused
// mark: a v1 JSON line, a v2 frame, a v4 bundle line.
func FuzzDecodeStream(f *testing.F) {
	seg0 := gunzip(f, SegmentPath(filepath.Join("testdata", "v3.store"), 0))
	seg1 := gunzip(f, SegmentPath(filepath.Join("testdata", "v3.store"), 1))
	const v1 = `{"domain":"a.example","rank":1,"week":0,"status":200,"bytes":4096}`
	for _, raw := range [][]byte{
		seg0,
		seg1,
		append(append([]byte(nil), seg0...), seg1...),
		[]byte(v1 + "\n"),
		[]byte("#68 9dc58d1e\n" + v1 + "\n"),
		[]byte(`!{"d":"a.example","w":0,"u":"/","s":200}` + "\n"),
	} {
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
