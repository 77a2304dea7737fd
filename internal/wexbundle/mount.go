// Reading and inspecting bundles: the read side of record/replay.

package wexbundle

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"clientres/internal/store"
)

// Bundle is an open bundle archive: a replay index over its resident
// records. Open verifies the manifest's member tables against the raw
// bytes of every segment before trusting a single record — a bit flip
// anywhere in the archive fails the open, not the replay — and decodes
// nothing. Advance makes one week resident at a time, forward only: all a
// replayed crawl asks for, in one week of memory. Mount makes every week
// resident at once, for the callers that look up at random.
//
// Reading forward relies on record weeks never decreasing within a
// segment, which the reader checks on every record it decodes; DESIGN.md
// §15 says why a recorder, resumed or not, cannot write anything else.
type Bundle struct {
	dir   string
	meta  Meta
	total int // records the manifest declares
	segs  []*cursor
	// lo..hi are the resident weeks; none before the first Advance.
	lo, hi int
	// index maps Key -> the last resident record appended under that key:
	// a fetch retried live, or re-fetched by a resumed recording, is
	// superseded by its final attempt — exactly the attempt that determined
	// the live run's observation. Nothing writes to it between two Advance
	// calls, so lookups take no lock.
	index map[string]Record
	// err, once set — a decode or integrity failure, or Close — is every
	// later Advance's result.
	err error
}

// Open verifies a bundle directory and returns a forward-only reader over
// it with no week resident yet. The caller must Close it.
func Open(dir string) (*Bundle, error) {
	man, err := store.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	if man.Version != store.FormatBundle {
		return nil, fmt.Errorf("wexbundle: %s: not a bundle archive (manifest v%d); record one with -record", dir, man.Version)
	}
	b := &Bundle{dir: dir, total: man.Total, hi: -1}
	for s := 0; s < man.Segments; s++ {
		path := store.SegmentPath(dir, s)
		if err := store.VerifyMemberTable(path, man.Members[s]); err != nil {
			return nil, err
		}
		b.segs = append(b.segs, &cursor{path: path})
	}
	if b.meta, err = ReadMeta(dir); err != nil {
		return nil, err
	}
	return b, nil
}

// Mount is the reader drained to the end with every week kept, for random
// access (cmd/serve -bundle, examples/vulndbdiff): every integrity error
// surfaces here, before the first lookup.
func Mount(dir string) (*Bundle, error) {
	b, err := Open(dir)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	if err := b.load(math.MinInt, math.MaxInt); err != nil {
		return nil, err
	}
	return b, nil
}

// Advance makes week's records resident and drops the weeks before it.
// Weeks passed over are decoded and checked but not kept; a week past the
// end of the archive is resident and empty. It must not run concurrently
// with lookups: a replayed crawl calls it at the week barrier, where no
// fetch is in flight, so a failure is the run's error and never a fetch's.
func (b *Bundle) Advance(week int) error {
	if week <= b.hi {
		return fmt.Errorf("wexbundle: %s: week %d requested at week %d: the reader only moves forward", b.dir, week, b.hi)
	}
	return b.load(week, week)
}

// load replaces the resident records with weeks [lo, hi], the segments
// decoding concurrently on goroutines that end with the call.
func (b *Bundle) load(lo, hi int) error {
	if b.err != nil {
		return b.err
	}
	kept := make([][]Record, len(b.segs))
	errs := make([]error, len(b.segs))
	var wg sync.WaitGroup
	for s, c := range b.segs {
		wg.Add(1)
		go func(s int, c *cursor) {
			defer wg.Done()
			errs[s] = c.read(lo, hi, func(rec Record) { kept[s] = append(kept[s], rec) })
		}(s, c)
	}
	wg.Wait()
	n := 0
	for _, recs := range kept {
		n += len(recs)
	}
	b.lo, b.hi, b.index = lo, hi, make(map[string]Record, n)
	decoded, ended := 0, true
	for s, c := range b.segs {
		for _, rec := range kept[s] {
			b.index[rec.Key] = rec
		}
		decoded += c.n
		ended = ended && c.done
	}
	// The record count is known only once every segment has been read to
	// its end, so that is where it is compared.
	if b.err = errors.Join(errs...); b.err == nil && ended && decoded != b.total {
		b.err = fmt.Errorf("wexbundle: %s: manifest declares %d records, segments hold %d", b.dir, b.total, decoded)
	}
	if b.err != nil {
		b.index = nil // nothing a failed load decoded is served
		b.Close()
	}
	return b.err
}

// Close releases the segment files still open. Resident records stay
// readable; Advance fails afterwards.
func (b *Bundle) Close() {
	for _, c := range b.segs {
		c.close()
	}
	if b.err == nil {
		b.err = fmt.Errorf("wexbundle: %s: reader is closed", b.dir)
	}
}

// cursor reads one segment forward. It holds the segment's file from its
// first read to the end of the stream, an error, or close — and never a
// goroutine, so an abandoned reader leaks nothing once closed.
type cursor struct {
	path  string
	lines *store.RawLines
	dec   recordDecoder
	done  bool
	// ahead, when held, is a decoded record that belongs to a later read.
	ahead Record
	held  bool
	week  int // of the last record decoded, for the order check
	n     int // records decoded
}

// read decodes forward through week hi, handing keep the records of weeks
// [lo, hi] in stream order; the first record past hi stays held.
func (c *cursor) read(lo, hi int, keep func(Record)) (err error) {
	for !c.done {
		if !c.held {
			if c.lines == nil {
				if c.lines, err = store.OpenRawLines(c.path); err != nil {
					break
				}
			}
			var line []byte
			if line, err = c.lines.Next(); err != nil {
				break
			}
			if derr := c.dec.decode(line[1:], &c.ahead); derr != nil {
				err = fmt.Errorf("wexbundle: %s: corrupt record: %w", c.path, derr)
				break
			}
			if c.ahead.Week < c.week {
				err = fmt.Errorf("wexbundle: %s: record of week %d follows week %d: a segment's weeks never decrease, so no recorder wrote this stream",
					c.path, c.ahead.Week, c.week)
				break
			}
			c.week, c.held = c.ahead.Week, true
			c.n++
		}
		if c.ahead.Week > hi {
			return nil
		}
		if c.ahead.Week >= lo {
			keep(c.ahead)
		}
		c.held = false
	}
	c.close()
	if err == io.EOF {
		return nil
	}
	return err
}

func (c *cursor) close() {
	c.done = true
	if c.lines != nil {
		c.lines.Close()
		c.lines = nil
	}
}

// Meta returns the recorded run identity (zero when bundle.json is absent).
func (b *Bundle) Meta() Meta { return b.meta }

// Len returns the number of distinct resident keys.
func (b *Bundle) Len() int { return len(b.index) }

// Get returns the resident record replayed for a key.
func (b *Bundle) Get(key string) (Record, bool) {
	rec, ok := b.index[key]
	return rec, ok
}

// Records returns every resident record sorted by (week, key) — the
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

// Stats verifies a bundle as Open does, decodes every record through the
// reader's cursors — so a segment whose weeks decrease fails here too — and
// aggregates per-week record/byte statistics, week-ascending.
func Stats(dir string) ([]WeekStat, error) {
	b, err := Open(dir)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	byWeek := make(map[int]*WeekStat)
	for _, c := range b.segs {
		err := c.read(math.MinInt, math.MaxInt, func(rec Record) {
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
