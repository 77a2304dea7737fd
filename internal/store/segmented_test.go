package store

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// genObs builds a deterministic multi-domain observation stream with
// per-domain week-ascending order — the shape collection produces.
func genObs(domains, weeks int) []Observation {
	r := rand.New(rand.NewSource(42))
	var out []Observation
	for w := 0; w < weeks; w++ {
		for d := 0; d < domains; d++ {
			obs := Observation{
				Domain: "site" + itoa(d) + ".example",
				Rank:   d + 1, Week: w,
				Status: []int{200, 200, 200, 404, 0}[r.Intn(5)],
				Bytes:  400 + r.Intn(4000),
				HasJS:  r.Intn(2) == 0,
			}
			// Vary every omitempty field record-to-record: the reuse
			// decoder must not leak a stale field from the previous
			// record's slot into one that omitted it.
			for i := 0; i < r.Intn(4); i++ {
				rec := LibRecord{
					Slug:    []string{"jquery", "bootstrap", "moment"}[r.Intn(3)],
					Version: []string{"1.12.4", "3.3.7", "2.18.1", ""}[r.Intn(4)],
					Known:   r.Intn(3) > 0,
				}
				if r.Intn(2) == 0 {
					rec.External = true
					rec.Host = "cdn" + itoa(r.Intn(3)) + ".example"
					rec.SRI = r.Intn(2) == 0
					if rec.SRI {
						rec.Crossorigin = "anonymous"
					}
				}
				obs.Libs = append(obs.Libs, rec)
			}
			if r.Intn(6) == 0 {
				obs.Flash = &FlashRecord{Always: r.Intn(2) == 0, Visible: r.Intn(2) == 0}
			}
			if r.Intn(4) == 0 {
				obs.WordPress = "5.6"
			}
			out = append(out, obs)
		}
	}
	return out
}

func writeSegmented(t *testing.T, dir string, obs []Observation, segments int) {
	t.Helper()
	w, err := CreateSegmented(dir, segments)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Count(); got != len(obs) {
		t.Fatalf("Count = %d, want %d", got, len(obs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// byDomain groups a stream per domain, preserving order.
func byDomain(obs []Observation) map[string][]Observation {
	m := make(map[string][]Observation)
	for _, o := range obs {
		m[o.Domain] = append(m[o.Domain], o)
	}
	return m
}

// TestSegmentedRoundTrip: every observation written comes back exactly
// once at every segment count, with per-domain order intact, through the
// sequential reader and the transparent ForEach.
func TestSegmentedRoundTrip(t *testing.T) {
	want := genObs(23, 7)
	wantBy := byDomain(want)
	for _, segments := range []int{1, 2, 4, 8} {
		dir := filepath.Join(t.TempDir(), "store")
		writeSegmented(t, dir, want, segments)

		man, err := ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if man.Segments != segments || man.Total != len(want) {
			t.Fatalf("segments=%d: manifest %+v", segments, man)
		}

		readers := map[string]func(fn func(Observation) error) error{
			"ForEachSegmented": func(fn func(Observation) error) error {
				return ForEachSegmented(dir, fn)
			},
			"ForEach": func(fn func(Observation) error) error {
				return ForEach(dir, fn)
			},
		}
		for name, read := range readers {
			var got []Observation
			if err := read(func(o Observation) error {
				got = append(got, o.Clone())
				return nil
			}); err != nil {
				t.Fatalf("segments=%d %s: %v", segments, name, err)
			}
			checkSameByDomain(t, wantBy, byDomain(got))
		}
	}
}

func checkSameByDomain(t *testing.T, want, got map[string][]Observation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("domains: got %d, want %d", len(got), len(want))
	}
	for d, w := range want {
		g := got[d]
		// Normalize nil vs empty Libs (the reuse decoder yields empty).
		for i := range g {
			if len(g[i].Libs) == 0 {
				g[i].Libs = nil
			}
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("domain %s: round-trip mismatch\n got %+v\nwant %+v", d, g, w)
		}
	}
}

// TestSegmentedPartitionMatchesShardOf pins the layout contract: segment
// files contain exactly the domains ShardOf assigns them.
func TestSegmentedPartitionMatchesShardOf(t *testing.T) {
	obs := genObs(40, 2)
	dir := filepath.Join(t.TempDir(), "store")
	writeSegmented(t, dir, obs, 4)
	for seg := 0; seg < 4; seg++ {
		if err := ForEachSegment(dir, seg, func(o Observation) error {
			if got := ShardOf(o.Domain, 4); got != seg {
				t.Errorf("segment %d holds %s (ShardOf=%d)", seg, o.Domain, got)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardOfAgreesWithFNV pins ShardOf's inlined hash to the stdlib
// hash/fnv implementation the pre-existing collection shards used — the
// partition function must never drift, or old archives stop aligning.
func TestShardOfAgreesWithFNV(t *testing.T) {
	for _, domain := range []string{"example.com", "site0.example", "a", "", "news1.com"} {
		for _, n := range []int{2, 3, 4, 8, 9} {
			h := fnv.New32a()
			_, _ = h.Write([]byte(domain))
			want := int(h.Sum32() % uint32(n))
			if got := ShardOf(domain, n); got != want {
				t.Errorf("ShardOf(%q,%d) = %d, want %d", domain, n, got, want)
			}
		}
	}
	// Degenerate n.
	if ShardOf("anything", 0) != 0 || ShardOf("anything", -3) != 0 {
		t.Error("n<=1 must map to shard 0")
	}
	// Stability: same domain, same shard, always.
	for i := 0; i < 100; i++ {
		if ShardOf("stable.example", 8) != ShardOf("stable.example", 8) {
			t.Fatal("ShardOf not deterministic")
		}
	}
}

// TestSegmentedNoManifestUnreadable: a directory without a manifest — a
// crashed writer — must refuse to read rather than return short data, and
// the error of every read entry point must name the missing manifest, say
// whether a checkpoint journal survives, and point at the tool that turns
// the directory into a readable store.
func TestSegmentedNoManifestUnreadable(t *testing.T) {
	for _, tc := range []struct {
		name       string
		checkpoint bool
		want       []string
	}{
		{"no-checkpoint", false, []string{"no " + ManifestName, "and no " + CheckpointName, "fsck -repair"}},
		{"checkpoint", true, []string{"no " + ManifestName, "but a " + CheckpointName, "crawl -resume", "fsck -repair"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			w, err := CreateSegmentedWith(dir, 2, SegmentedOptions{Checkpoint: tc.checkpoint})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Write(genObs(3, 1)[0]); err != nil {
				t.Fatal(err)
			}
			if tc.checkpoint {
				if err := w.CommitWeek(0); err != nil {
					t.Fatal(err)
				}
			}
			// Simulate a crash: segments exist, manifest never written.
			if err := w.Abort(); err != nil {
				t.Fatal(err)
			}
			if IsSegmented(dir) {
				t.Error("directory without manifest must not read as segmented")
			}
			none := func(Observation) error { return nil }
			for entry, read := range map[string]func() error{
				"ForEach":          func() error { return ForEach(dir, none) },
				"ForEachSegmented": func() error { return ForEachSegmented(dir, none) },
			} {
				err := read()
				if err == nil {
					t.Fatalf("%s: reading a manifest-less store must error", entry)
				}
				if !errors.Is(err, os.ErrNotExist) {
					t.Errorf("%s: error no longer wraps the missing file: %v", entry, err)
				}
				for _, want := range tc.want {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("%s: error %q does not mention %q", entry, err, want)
					}
				}
			}
		})
	}
}

// TestSegmentedBadManifest covers corrupt and inconsistent manifests.
func TestSegmentedBadManifest(t *testing.T) {
	for name, manifest := range map[string]string{
		"corrupt":        "{not json",
		"zero-segments":  `{"version":1,"segments":0,"partition":"fnv1a-domain","counts":[],"total":0}`,
		"count-mismatch": `{"version":1,"segments":2,"partition":"fnv1a-domain","counts":[1],"total":1}`,
		"bad-partition":  `{"version":1,"segments":1,"partition":"md5-url","counts":[0],"total":0}`,
	} {
		dir := filepath.Join(t.TempDir(), name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(dir); err == nil {
			t.Errorf("%s: ReadManifest must error", name)
		}
	}
}

// TestSegmentedWriterConcurrent hammers one SegmentedWriter from many
// goroutines (run under -race by scripts/check.sh) and verifies nothing
// is lost or corrupted.
func TestSegmentedWriterConcurrent(t *testing.T) {
	obs := genObs(32, 4)
	parts := make([][]Observation, 8)
	for _, o := range obs {
		s := ShardOf(o.Domain, 8)
		parts[s] = append(parts[s], o)
	}
	dir := filepath.Join(t.TempDir(), "store")
	w, err := CreateSegmented(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := range parts {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for _, o := range parts[s] {
				if err := w.Write(o); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if got := w.Count(); got != len(obs) {
		t.Errorf("Count = %d, want %d", got, len(obs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Observation
	if err := ForEach(dir, func(o Observation) error {
		got = append(got, o.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	checkSameByDomain(t, byDomain(obs), byDomain(got))
}

// TestSegmentedAbortPropagates: fn errors pass through the segmented
// readers unwrapped, like the single-file ForEach.
func TestSegmentedAbortPropagates(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	writeSegmented(t, dir, genObs(10, 3), 4)
	sentinel := errors.New("stop")
	if err := ForEachSegmented(dir, func(Observation) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("sequential: got %v", err)
	}
}

// TestSegmentedRecreateCleansStaleRun (satellite S1): recreating a store
// with fewer segments over a crashed wider run must remove the orphan
// partial segments and the stale checkpoint — not leave them to silently
// mix with (or be salvaged alongside) the new archive.
func TestSegmentedRecreateCleansStaleRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	old := genObs(20, 2)
	w, err := CreateSegmentedWith(dir, 4, SegmentedOptions{Checkpoint: true,
		Run: RunID{Seed: 1, Domains: 20, Weeks: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range old {
		if o.Week == 0 {
			if err := w.Write(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.CommitWeek(0); err != nil {
		t.Fatal(err)
	}
	_ = w.Abort() // crash: 4 partial segments + checkpoint.json left behind

	fresh := genObs(6, 1)
	writeSegmented(t, dir, fresh, 2)
	for _, name := range []string{"seg-0002.jsonl.gz", "seg-0003.jsonl.gz", CheckpointName} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("stale %s survived recreate", name)
		}
	}
	n := 0
	if err := ForEach(dir, func(Observation) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != len(fresh) {
		t.Errorf("recreated store holds %d observations, want %d", n, len(fresh))
	}
	// Salvage must also see a clean store — nothing of the old run to
	// resurrect.
	res, err := Salvage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Intact || res.Total != len(fresh) {
		t.Errorf("salvage after recreate: %+v", res)
	}
}

// TestSegmentedRecreateTruncates: recreating a store over an existing
// directory must not leak the old archive's contents.
func TestSegmentedRecreateTruncates(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	writeSegmented(t, dir, genObs(20, 4), 4)
	fresh := genObs(5, 1)
	writeSegmented(t, dir, fresh, 2)
	n := 0
	if err := ForEach(dir, func(Observation) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != len(fresh) {
		t.Errorf("recreated store holds %d observations, want %d", n, len(fresh))
	}
}
