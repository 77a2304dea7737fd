package store

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sample(week int) Observation {
	return Observation{
		Domain: "news1.com", Rank: 1, Week: week, Status: 200, Bytes: 2048,
		Country: "US", HasJS: true, WordPress: "5.6",
		Libs: []LibRecord{
			{Slug: "jquery", Version: "3.5.1", Known: true},
			{Slug: "bootstrap", Version: "3.3.7", Known: true, External: true,
				Host: "maxcdn.bootstrapcdn.com", SRI: true, Crossorigin: "anonymous"},
		},
		Flash:     &FlashRecord{ScriptAccessParam: true, Always: true},
		Resources: ResourceFlags{JavaScript: true, CSS: true, Flash: true},
	}
}

// createStream opens a bare v3 stream: one segment file without a store
// directory around it, which is what the single-file readers take.
func createStream(t *testing.T, path string) *Writer {
	t.Helper()
	w, err := createFile(osFS{}, path, FormatDelta)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl.gz")
	w := createStream(t, path)
	var want []Observation
	for week := 0; week < 5; week++ {
		obs := sample(week)
		want = append(want, obs)
		if err := w.Write(obs); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 5 {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestForEachAbort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl.gz")
	w := createStream(t, path)
	for i := 0; i < 10; i++ {
		_ = w.Write(sample(i))
	}
	_ = w.Close()
	sentinel := errors.New("stop")
	n := 0
	err := ForEach(path, func(Observation) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || n != 3 {
		t.Errorf("abort: err %v after %d", err, n)
	}
}

func TestOpenErrors(t *testing.T) {
	if err := ForEach(filepath.Join(t.TempDir(), "missing.gz"), nil); err == nil {
		t.Error("missing file should error")
	}
}

func TestOK(t *testing.T) {
	cases := []struct {
		status, bytes int
		ok            bool
	}{
		{200, 2048, true},
		{200, 399, false}, // the paper's empty-page threshold
		{200, 400, true},
		{404, 2048, false},
		{0, 0, false},
		{503, 900, false},
	}
	for _, c := range cases {
		obs := Observation{Status: c.status, Bytes: c.bytes}
		if got := obs.OK(); got != c.ok {
			t.Errorf("OK(status=%d bytes=%d) = %v, want %v", c.status, c.bytes, got, c.ok)
		}
	}
}

func TestLibLookup(t *testing.T) {
	obs := sample(0)
	if l, ok := obs.Lib("bootstrap"); !ok || l.Host != "maxcdn.bootstrapcdn.com" {
		t.Errorf("Lib lookup = %+v ok %v", l, ok)
	}
	if _, ok := obs.Lib("prototype"); ok {
		t.Error("absent lib should not be found")
	}
}

// randomObs builds an arbitrary observation from a rand source.
func randomObs(r *rand.Rand) Observation {
	obs := Observation{
		Domain: "d" + string(rune('a'+r.Intn(26))) + ".com",
		Rank:   r.Intn(10000), Week: r.Intn(201),
		Status: []int{0, 200, 403, 404, 500, 503}[r.Intn(6)],
		Bytes:  r.Intn(5000),
		HasJS:  r.Intn(2) == 0,
	}
	for i := 0; i < r.Intn(4); i++ {
		obs.Libs = append(obs.Libs, LibRecord{
			Slug:    []string{"jquery", "bootstrap", "moment"}[r.Intn(3)],
			Version: []string{"1.12.4", "3.3.7", "", "2.18.1"}[r.Intn(4)],
			Known:   true, External: r.Intn(2) == 0,
		})
	}
	if r.Intn(5) == 0 {
		obs.Flash = &FlashRecord{Always: r.Intn(2) == 0}
	}
	return obs
}

// Property: arbitrary observations survive a write/read cycle.
func TestQuickRoundTrip(t *testing.T) {
	dir := t.TempDir()
	i := 0
	f := func(seed int64) bool {
		i++
		r := rand.New(rand.NewSource(seed))
		var want []Observation
		for j := 0; j < 1+r.Intn(5); j++ {
			want = append(want, randomObs(r))
		}
		path := filepath.Join(dir, "q"+itoa(i)+".gz")
		w := createStream(t, path)
		for _, obs := range want {
			if w.Write(obs) != nil {
				return false
			}
		}
		if w.Close() != nil {
			return false
		}
		got, err := ReadAll(path)
		return err == nil && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}

func TestCorruptFileErrors(t *testing.T) {
	dir := t.TempDir()
	// Not gzip at all.
	plain := filepath.Join(dir, "plain.gz")
	if err := os.WriteFile(plain, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(plain, func(Observation) error { return nil }); err == nil {
		t.Error("non-gzip file should error")
	}
	// Valid gzip, invalid JSON.
	bad := filepath.Join(dir, "bad.gz")
	f, err := os.Create(bad)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	if _, err := gz.Write([]byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(bad, func(Observation) error { return nil }); err == nil {
		t.Error("corrupt JSON should error")
	}
}

// failWriter fails every write after the first failAfter bytes.
type failWriter struct {
	wrote     int
	failAfter int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.wrote+len(p) > w.failAfter {
		return 0, errors.New("failWriter: write rejected")
	}
	w.wrote += len(p)
	return len(p), nil
}

// TestWriteCountsOnlySuccessfulWrites is the regression test for Count
// overcounting: a Write whose encode fails must not bump the counter —
// Count is the manifest's source of truth, so an overcount would record
// observations that never reached the file.
func TestWriteCountsOnlySuccessfulWrites(t *testing.T) {
	obs := sample(0)
	line, err := json.Marshal(obs)
	if err != nil {
		t.Fatal(err)
	}
	// Room for exactly two full records ('=' + JSON + '\n'), behind the
	// smallest buffer bufio has, so that the third record's bytes reach the
	// failing writer inside its own Write call.
	fw := &failWriter{failAfter: 2 * (len(line) + 2)}
	w := &Writer{format: FormatDelta, open: true, buf: bufio.NewWriterSize(fw, 16),
		prev: make(map[string]Observation)}
	w.enc = json.NewEncoder(w.buf)
	for i, domain := range []string{"news1.com", "news2.com"} {
		obs.Domain = domain
		if err := w.Write(obs); err != nil {
			t.Fatalf("write %d should succeed: %v", i, err)
		}
	}
	obs.Domain = "news3.com"
	if err := w.Write(obs); err == nil {
		t.Fatal("third write must fail")
	}
	if got := w.Count(); got != 2 {
		t.Errorf("Count = %d after 2 successful + 1 failed write, want 2", got)
	}
}

// TestTruncatedGzipFooter: a store file cut mid-stream — a crashed or
// killed writer — must surface as a wrapped store error marking the
// stream corrupt, not succeed short or leak a bare decoder error.
func TestTruncatedGzipFooter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl.gz")
	w := createStream(t, path)
	for i := 0; i < 50; i++ {
		if err := w.Write(sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Sever the gzip footer (8 bytes of CRC+length) and then some.
	if err := os.WriteFile(path, data[:len(data)-12], 0o644); err != nil {
		t.Fatal(err)
	}
	err = ForEach(path, func(Observation) error { return nil })
	if err == nil {
		t.Fatal("truncated gzip must error")
	}
	if !strings.Contains(err.Error(), "store:") {
		t.Errorf("error not store-wrapped: %v", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncation should surface io.ErrUnexpectedEOF, got: %v", err)
	}
}

// TestGarbageMidFile: flipped bytes inside the compressed stream must
// surface as a wrapped store error, whichever layer (flate, gzip CRC,
// JSON) catches them first.
func TestGarbageMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl.gz")
	w := createStream(t, path)
	for i := 0; i < 50; i++ {
		if err := w.Write(sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 2; i < len(data)/2+16 && i < len(data); i++ {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = ForEach(path, func(Observation) error { return nil })
	if err == nil {
		t.Fatal("corrupt gzip body must error")
	}
	if !strings.Contains(err.Error(), "store:") {
		t.Errorf("error not store-wrapped: %v", err)
	}
}

// TestWriterCloseReportsFlushFailure pins the property core.Run depends on:
// the writer buffers 64 KiB before the gzip stream, so a write failure on
// the underlying file may only surface at Close — and Close must report it
// rather than silently losing the gzip footer (which would make the file
// unreadable).
func TestWriterCloseReportsFlushFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl.gz")
	w := createStream(t, path)
	if err := w.Write(sample(0)); err != nil {
		t.Fatalf("buffered write should not fail: %v", err)
	}
	// Sabotage the underlying file: the buffered bytes can no longer be
	// flushed, exactly like a disk filling up mid-run.
	if err := w.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Error("Close must report the flush failure, not swallow it")
	}
}

// TestWriterCloseFullDisk exercises the same failure end-to-end against a
// real unwritable device rather than a sabotaged handle.
func TestWriterCloseFullDisk(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	w, err := createFile(osFS{}, "/dev/full", FormatDelta)
	if err != nil {
		t.Skip("cannot open /dev/full for writing")
	}
	if err := w.Write(sample(0)); err != nil {
		t.Fatalf("buffered write should not fail: %v", err)
	}
	if err := w.Close(); err == nil {
		t.Error("Close on a full disk must error")
	}
}
