package core

import (
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clientres/internal/store"
)

// TestRunFromStoreRefusesLegacyArchive: a v1 store of an earlier release —
// its lone segment file, and the directory behind a version-1 manifest —
// is refused by the replay with the message naming the format and the
// commit whose tools convert it.
func TestRunFromStoreRefusesLegacyArchive(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "v1.store")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seg := store.SegmentPath(dir, 0)
	f, err := os.Create(seg)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	if _, err := gz.Write([]byte(`{"domain":"a.example","rank":1,"week":0,"status":200,"bytes":4096}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	manifest := `{"version": 1, "segments": 1, "partition": "fnv1a-domain", "counts": [1], "total": 1}`
	if err := os.WriteFile(filepath.Join(dir, store.ManifestName), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{seg, dir} {
		_, err := RunFromStore(path, 1, 1, 1)
		if err == nil || !strings.Contains(err.Error(), "format v1") || !strings.Contains(err.Error(), "commit 9af76ff") {
			t.Errorf("RunFromStore(%s): %v", filepath.Base(path), err)
		}
	}
}
