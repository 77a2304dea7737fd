package wexbundle

import (
	"bytes"
	"compress/gzip"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"clientres/internal/store"
)

// drainStream decodes decompressed segment bytes through the reader's own
// cursor — the store's raw-line reader, the Record decoder and the
// week-order check — and returns what was delivered before the stream
// ended or failed.
func drainStream(t *testing.T, data []byte) (recs []Record, err error) {
	c := &cursor{path: "fuzz", lines: store.NewRawLines("fuzz", bytes.NewReader(data))}
	keep := func(rec Record) { recs = append(recs, rec) }
	err = c.read(math.MinInt, math.MaxInt, keep)
	if err != nil && !strings.HasPrefix(err.Error(), "store: ") && !strings.HasPrefix(err.Error(), "wexbundle: ") {
		t.Fatalf("error without its package prefix: %v", err)
	}
	delivered := len(recs)
	if again := c.read(math.MinInt, math.MaxInt, keep); again != nil || len(recs) != delivered {
		t.Fatalf("the cursor went on after its stream ended (%v): %d more records, err=%v", err, len(recs)-delivered, again)
	}
	return recs, err
}

// FuzzBundleStream feeds arbitrary decompressed bytes to the bundle
// reader's decode path: it never panics, every error is the store's or
// wexbundle's own, nothing is delivered after an error, and a stream cut
// anywhere yields a prefix of what the whole stream yields.
func FuzzBundleStream(f *testing.F) {
	dir := filepath.Join(f.TempDir(), "bundle")
	w, err := Create(dir, Options{Segments: 2})
	if err != nil {
		f.Fatal(err)
	}
	for wk := 0; wk < 3; wk++ {
		for _, dom := range []string{"a.example", "b.example", "c.example"} {
			rec := pageRec(wk, dom, "<html>"+dom+" week "+itoa(wk)+"</html>")
			rec.Header = map[string][]string{"Content-Type": {"text/html"}}
			if dom == "b.example" {
				rec = Record{Week: wk, Domain: dom, Key: rec.Key, Err: "connection refused", DurUS: 17}
			}
			if err := w.Append(rec); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		file, err := os.Open(store.SegmentPath(dir, s))
		if err != nil {
			f.Fatal(err)
		}
		gz, err := gzip.NewReader(file)
		if err != nil {
			f.Fatal(err)
		}
		data, err := io.ReadAll(gz)
		file.Close()
		if err != nil {
			f.Fatal(err)
		}
		for _, cut := range []int{len(data), len(data) - 1, len(data) / 2, 1, 0} {
			f.Add(data, uint(cut))
		}
	}
	f.Add([]byte("!{\"week\":5,\"key\":\"k\"}\n!{\"week\":2,\"key\":\"k\"}\n"), uint(30))
	f.Add([]byte("{\"week\":0}\n"), uint(3))

	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		whole, _ := drainStream(t, data)
		part, perr := drainStream(t, data[:cut%uint(len(data)+1)])
		if len(part) > len(whole) {
			t.Fatalf("cut stream delivered %d records, the whole stream %d", len(part), len(whole))
		}
		for i := range part {
			if !reflect.DeepEqual(part[i], whole[i]) {
				t.Fatalf("record %d of the cut stream is %+v (stream ended: %v), of the whole stream %+v", i, part[i], perr, whole[i])
			}
		}
	})
}
