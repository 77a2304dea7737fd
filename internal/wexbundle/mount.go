// Mounting and inspecting bundles: the read side of record/replay.

package wexbundle

import (
	"encoding/json"
	"fmt"
	"sort"

	"clientres/internal/store"
)

// Bundle is a mounted (fully loaded) bundle archive: an in-memory replay
// index over every recorded fetch. Mounting verifies the manifest's member
// tables against the raw segment bytes before trusting a single record —
// a bit flip anywhere in the archive fails the mount, not the replay.
//
// The whole archive is held in memory; at the study's synthetic-web scale
// (kilobyte pages) that is the right trade for O(1) replay lookups.
type Bundle struct {
	dir  string
	meta Meta
	// index maps Key -> the last record appended under that key: a fetch
	// retried live, or re-fetched by a resumed recording, is superseded by
	// its final attempt — exactly the attempt that determined the live
	// run's observation.
	index map[string]Record
	// records counts every archived line, including superseded duplicates.
	records int
}

// Mount loads and verifies a bundle directory for replay.
func Mount(dir string) (*Bundle, error) {
	man, err := store.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	if man.Version != store.FormatBundle {
		return nil, fmt.Errorf("wexbundle: %s: not a bundle archive (manifest v%d); record one with -record", dir, man.Version)
	}
	for s := 0; s < man.Segments; s++ {
		if err := store.VerifyMemberTable(store.SegmentPath(dir, s), man.Members[s]); err != nil {
			return nil, err
		}
	}
	b := &Bundle{dir: dir, index: make(map[string]Record)}
	for s := 0; s < man.Segments; s++ {
		err := store.ForEachRawLine(store.SegmentPath(dir, s), func(line []byte) error {
			var rec Record
			if err := json.Unmarshal(line[1:], &rec); err != nil {
				return fmt.Errorf("wexbundle: %s: corrupt record: %w", store.SegmentPath(dir, s), err)
			}
			b.index[rec.Key] = rec
			b.records++
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if b.records != man.Total {
		return nil, fmt.Errorf("wexbundle: %s: manifest declares %d records, segments hold %d", dir, man.Total, b.records)
	}
	b.meta, _ = ReadMeta(dir) // older bundles may lack bundle.json; replay still works
	return b, nil
}

// Dir returns the mounted directory.
func (b *Bundle) Dir() string { return b.dir }

// Meta returns the recorded run identity (zero when bundle.json is absent).
func (b *Bundle) Meta() Meta { return b.meta }

// Len returns the number of distinct replayable keys.
func (b *Bundle) Len() int { return len(b.index) }

// Get returns the record replayed for a key.
func (b *Bundle) Get(key string) (Record, bool) {
	rec, ok := b.index[key]
	return rec, ok
}

// Records returns every replayable record sorted by (week, key) — the
// deterministic iteration order offline re-audits (examples/vulndbdiff)
// need.
func (b *Bundle) Records() []Record {
	out := make([]Record, 0, len(b.index))
	for _, rec := range b.index {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Week != out[j].Week {
			return out[i].Week < out[j].Week
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// WeekStat aggregates one recorded week for fsck's bundle view.
type WeekStat struct {
	Week int
	// Records counts archived fetches (pages + scripts + URL audits,
	// including superseded duplicates); Pages the landing pages among them.
	Records int
	Pages   int
	// BodyBytes totals the raw recorded body bytes (uncompressed).
	BodyBytes int64
	// Failures counts records preserving a fetch error.
	Failures int
}

// Stats decodes a bundle (without mounting it whole) and aggregates
// per-week record/byte statistics, week-ascending.
func Stats(dir string) ([]WeekStat, error) {
	man, err := store.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	if man.Version != store.FormatBundle {
		return nil, fmt.Errorf("wexbundle: %s: not a bundle archive (manifest v%d)", dir, man.Version)
	}
	byWeek := make(map[int]*WeekStat)
	for s := 0; s < man.Segments; s++ {
		err := store.ForEachRawLine(store.SegmentPath(dir, s), func(line []byte) error {
			var rec Record
			if err := json.Unmarshal(line[1:], &rec); err != nil {
				return fmt.Errorf("wexbundle: %s: corrupt record: %w", store.SegmentPath(dir, s), err)
			}
			st := byWeek[rec.Week]
			if st == nil {
				st = &WeekStat{Week: rec.Week}
				byWeek[rec.Week] = st
			}
			st.Records++
			if rec.IsPage() {
				st.Pages++
			}
			st.BodyBytes += int64(len(rec.Body))
			if rec.Err != "" {
				st.Failures++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	out := make([]WeekStat, 0, len(byWeek))
	for _, st := range byWeek {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Week < out[j].Week })
	return out, nil
}
