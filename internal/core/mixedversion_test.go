package core

// Cross-version replay equivalence: the same observation set stored in
// every on-disk format the store has ever written — v1 plain JSONL (as a
// file and as a store), v2 framed, v3 delta — must replay to byte-identical
// reports through RunFromStore's replay, serial and sharded. This is the
// compatibility contract that lets old archives keep feeding new analysis
// code. The old archives are the store package's checked-in fixtures; the
// v3 one is re-encoded by the live writer from what they hold.

import (
	"path/filepath"
	"strings"
	"testing"

	"clientres/internal/store"
)

func TestMixedVersionStoresReplayIdentically(t *testing.T) {
	const weeks, domains = 8, 6
	fixtures := filepath.Join("..", "store", "testdata")
	stores := map[string]string{
		"v1-file": filepath.Join(fixtures, "v1-file.jsonl.gz"),
		"v1-dir":  filepath.Join(fixtures, "v1.store"),
		"v2-dir":  filepath.Join(fixtures, "v2.store"),
		"v3-dir":  filepath.Join(t.TempDir(), "live.store"),
	}

	obs, err := store.ReadAll(stores["v1-file"])
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != weeks*domains {
		t.Fatalf("the v1 fixture holds %d observations, want %d", len(obs), weeks*domains)
	}
	w, err := store.CreateSegmented(stores["v3-dir"], 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	ref, err := replayStore(stores["v1-file"], weeks, domains, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := reportOf(t, ref)
	if !strings.Contains(want, "jquery") {
		t.Fatal("reference report looks empty")
	}
	for name, path := range stores {
		for _, shards := range []int{1, 3, 4} {
			res, err := replayStore(path, weeks, domains, shards)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			if got := reportOf(t, res); got != want {
				t.Errorf("%s shards=%d: report differs from v1 single-file replay", name, shards)
			}
		}
	}
}
