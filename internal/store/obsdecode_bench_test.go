package store_test

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"

	"clientres/internal/analysis"
	"clientres/internal/store"
	"clientres/internal/webgen"
)

// recordBodies writes a generated study with bundled sites (300 domains ×
// 201 weeks) to a one-segment store and returns its '=' and '^' record
// lines, marks included — the records a replay decodes as JSON.
func recordBodies(b *testing.B) [][]byte {
	b.Helper()
	eco := webgen.New(webgen.Config{Domains: 300, Seed: 1, Bundling: webgen.DefaultBundling(0.3)})
	dir := filepath.Join(b.TempDir(), "obs.store")
	w, err := store.CreateSegmented(dir, 1)
	if err != nil {
		b.Fatal(err)
	}
	analysis.TruthSource{Eco: eco}.ForEach(func(o store.Observation) {
		if err == nil {
			err = w.Write(o)
		}
	})
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		b.Fatal(err)
	}
	f, err := os.Open(store.SegmentPath(dir, 0))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		b.Fatal(err)
	}
	data, err := io.ReadAll(gz)
	if err != nil {
		b.Fatal(err)
	}
	var lines [][]byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) > 0 && (line[0] == '=' || line[0] == '^') {
			lines = append(lines, line)
		}
	}
	if len(lines) == 0 {
		b.Fatal("the store holds no '=' or '^' record")
	}
	return lines
}

// BenchmarkDecodeObservation decodes the '=' and '^' records of a
// generated store with the store's decoder and, for comparison, with
// encoding/json.
func BenchmarkDecodeObservation(b *testing.B) {
	lines := recordBodies(b)
	size := 0
	for _, line := range lines {
		size += len(line)
	}
	b.Run("decoder", func(b *testing.B) {
		b.SetBytes(int64(size))
		b.ReportAllocs()
		var d store.ObsDecoder
		for i := 0; i < b.N; i++ {
			for _, line := range lines {
				if err := d.DecodeBody(line); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(size))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, line := range lines {
				if err := store.UnmarshalBody(line); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
