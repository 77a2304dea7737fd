package wexbundle

// The forward-only reader: what Advance keeps and drops, what it refuses,
// when each check fires, and that Mount — the same reader drained — still
// answers exactly as a full decode of the archive does.

import (
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"clientres/internal/store"
)

// appendAll archives recs in order and seals the bundle.
func appendAll(t *testing.T, dir string, segments int, recs []Record) {
	t.Helper()
	w, err := Create(dir, Options{Segments: segments})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func pageRec(week int, domain, body string) Record {
	return Record{Week: week, Domain: domain, Key: "/w/" + itoa(week) + "/" + domain + "/", Status: 200, Body: body}
}

// studyRecs is a four-week, five-domain recording with a retried fetch in
// every week (two records under one key, the later one winning).
func studyRecs() []Record {
	var recs []Record
	for wk := 0; wk < 4; wk++ {
		for _, dom := range []string{"a.example", "b.example", "c.example", "d.example", "e.example"} {
			if dom == "c.example" {
				recs = append(recs, Record{Week: wk, Domain: dom, Key: "/w/" + itoa(wk) + "/" + dom + "/", Err: "connection reset"})
			}
			recs = append(recs, pageRec(wk, dom, dom+" in week "+itoa(wk)))
		}
	}
	return recs
}

// fullDecode indexes a bundle the way the whole-archive mount did before
// the reader existed: every line of every segment, last record per key.
func fullDecode(t *testing.T, dir string, segments int) (index map[string]Record, lines int) {
	t.Helper()
	index = make(map[string]Record)
	for s := 0; s < segments; s++ {
		err := store.ForEachRawLine(store.SegmentPath(dir, s), func(line []byte) error {
			var rec Record
			lines++
			err := json.Unmarshal(line[1:], &rec)
			index[rec.Key] = rec
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return index, lines
}

func TestMountAnswersAsFullDecode(t *testing.T) {
	for _, segments := range []int{1, 3} {
		dir := filepath.Join(t.TempDir(), "bundle")
		appendAll(t, dir, segments, studyRecs())
		want, lines := fullDecode(t, dir, segments)
		if lines != len(studyRecs()) || len(want) >= lines {
			t.Fatalf("fixture: %d lines, %d keys — want superseded duplicates", lines, len(want))
		}
		b, err := Mount(dir)
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() != len(want) {
			t.Errorf("segments=%d: Len = %d, full decode has %d keys", segments, b.Len(), len(want))
		}
		for key, rec := range want {
			if got, ok := b.Get(key); !ok || !reflect.DeepEqual(got, rec) {
				t.Errorf("segments=%d: Get(%q) = %+v, %v; full decode says %+v", segments, key, got, ok, rec)
			}
		}
		recs := b.Records()
		if len(recs) != len(want) {
			t.Fatalf("segments=%d: Records() has %d entries, want %d", segments, len(recs), len(want))
		}
		for i, rec := range recs {
			if !reflect.DeepEqual(rec, want[rec.Key]) {
				t.Errorf("segments=%d: Records()[%d] = %+v, full decode says %+v", segments, i, rec, want[rec.Key])
			}
			if i > 0 && (recs[i-1].Week > rec.Week || (recs[i-1].Week == rec.Week && recs[i-1].Key >= rec.Key)) {
				t.Fatalf("segments=%d: Records() out of (week, key) order at %d", segments, i)
			}
		}
		// Every week of a mounted bundle is resident.
		client := &http.Client{Transport: b.Transport()}
		for _, wk := range []int{3, 0} {
			resp, err := client.Get("http://x.invalid/w/" + itoa(wk) + "/a.example/")
			if err != nil {
				t.Fatalf("segments=%d: mounted bundle refused week %d: %v", segments, wk, err)
			}
			resp.Body.Close()
		}
	}
}

func TestAdvanceKeepsOneWeek(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	appendAll(t, dir, 3, studyRecs())
	want, _ := fullDecode(t, dir, 3)
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	client := &http.Client{Transport: b.Transport()}
	get := func(week int) error {
		resp, err := client.Get("http://x.invalid/w/" + itoa(week) + "/c.example/")
		if err == nil {
			resp.Body.Close()
		}
		return err
	}
	if b.Len() != 0 {
		t.Errorf("%d records resident before the first Advance", b.Len())
	}
	if err := get(0); err == nil || !strings.Contains(err.Error(), "not resident") {
		t.Errorf("fetch before the first Advance: %v, want a not-resident error", err)
	}
	// A fresh reader asked for week 1 skips week 0: the resumed replay.
	for _, week := range []int{1, 2} {
		if err := b.Advance(week); err != nil {
			t.Fatal(err)
		}
		if b.Len() != 5 {
			t.Errorf("week %d: %d keys resident, want the week's 5", week, b.Len())
		}
		for _, rec := range b.Records() {
			if rec.Week != week || !reflect.DeepEqual(rec, want[rec.Key]) {
				t.Errorf("week %d: resident record %+v, full decode says %+v", week, rec, want[rec.Key])
			}
		}
		if err := get(week); err != nil {
			t.Errorf("week %d: the retried fetch replays %v, want its final (successful) attempt", week, err)
		}
		for _, gone := range []int{week - 1, week + 1} {
			if err := get(gone); err == nil || !strings.Contains(err.Error(), "not resident") {
				t.Errorf("at week %d, a fetch of week %d: %v, want a not-resident error", week, gone, err)
			}
		}
	}
	if err := b.Advance(1); err == nil || !strings.Contains(err.Error(), "only moves forward") {
		t.Errorf("Advance(1) at week 2: %v, want a forward-only error", err)
	}
	// Past the end of the archive a week is resident and empty: a fetch of
	// it is "no record", as for any fetch the recording never made.
	if err := b.Advance(7); err != nil {
		t.Fatal(err)
	}
	if err := get(7); err == nil || !strings.Contains(err.Error(), "no record") {
		t.Errorf("fetch of an unrecorded week: %v, want no record", err)
	}
}

// TestResumedRecordingReplaysLaterRecords: a recording killed between the
// bundle's commit of a week and the store's re-records that week when it
// resumes. The re-recorded fetches follow the first ones in the segment —
// same week, so the stream's order holds — and replace them on replay.
func TestResumedRecordingReplaysLaterRecords(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	opt := Options{Segments: 2, Checkpoint: true, Run: store.RunID{Seed: 7, Domains: 2, Weeks: 3}}
	w, err := Create(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	record := func(week int, body string) {
		t.Helper()
		for _, dom := range []string{"a.example", "b.example"} {
			if err := w.Append(pageRec(week, dom, body)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.CommitWeek(week); err != nil {
			t.Fatal(err)
		}
	}
	record(0, "week 0")
	record(1, "week 1, first recording")
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	var ck store.Checkpoint
	if w, ck, err = Resume(dir, opt); err != nil {
		t.Fatal(err)
	}
	if ck.CommittedWeeks != 2 {
		t.Fatalf("resumed at %d committed weeks, want 2", ck.CommittedWeeks)
	}
	record(1, "week 1, re-recorded")
	record(2, "week 2")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for week, body := range []string{"week 0", "week 1, re-recorded", "week 2"} {
		if err := b.Advance(week); err != nil {
			t.Fatalf("week %d: %v", week, err)
		}
		for _, dom := range []string{"a.example", "b.example"} {
			if rec, ok := b.Get(pageRec(week, dom, "").Key); !ok || rec.Body != body {
				t.Errorf("week %d %s replays %q, want %q", week, dom, rec.Body, body)
			}
		}
	}
	stats, err := Stats(dir)
	if err != nil {
		t.Fatalf("Stats refused a resumed recording: %v", err)
	}
	if len(stats) != 3 || stats[1].Records != 4 {
		t.Errorf("stats = %+v, want three weeks with week 1 recorded twice", stats)
	}
}

func TestDecreasingWeekIsRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	appendAll(t, dir, 1, []Record{pageRec(0, "a.example", "w0"), pageRec(5, "a.example", "w5"), pageRec(2, "a.example", "w2")})
	wantErr := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted a segment with week 2 after week 5", what)
		}
		for _, part := range []string{"wexbundle:", "seg-0000", "week 2", "week 5"} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("%s: error %q does not name %q", what, err, part)
			}
		}
	}
	_, err := Mount(dir)
	wantErr("Mount", err)
	_, err = Stats(dir)
	wantErr("Stats", err)

	b, err := Open(dir)
	if err != nil {
		t.Fatalf("Open decodes nothing and must accept the archive: %v", err)
	}
	defer b.Close()
	if err := b.Advance(0); err != nil {
		t.Fatalf("week 0 precedes the bad record: %v", err)
	}
	err = b.Advance(5)
	wantErr("Advance(5)", err)
	if b.Len() != 0 {
		t.Errorf("%d records served by the failed Advance", b.Len())
	}
	if again := b.Advance(6); again == nil || again.Error() != err.Error() {
		t.Errorf("Advance after the failure = %v, want the same error", again)
	}
}

// TestRecordCountMismatchIsRefused: the manifest's total is compared where
// the count is known — the Advance (or Mount) that reaches the end of every
// segment.
func TestRecordCountMismatchIsRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	writeTestBundle(t, dir, 2)
	path := filepath.Join(dir, store.ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	man["total"] = 7 // six were recorded
	if data, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Mount(dir); err == nil || !strings.Contains(err.Error(), "declares 7 records, segments hold 6") {
		t.Errorf("Mount = %v, want the record-count mismatch", err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Advance(0); err != nil {
		t.Fatalf("week 0 of 2 does not reach the end: %v", err)
	}
	if err := b.Advance(1); err == nil || !strings.Contains(err.Error(), "declares 7 records, segments hold 6") {
		t.Errorf("Advance to the last week = %v, want the record-count mismatch", err)
	}
}

// TestOpenDetectsBitFlipInAnySegment: the member tables of every segment
// are verified over raw bytes before the first record is decoded, so a
// flipped byte anywhere fails the open, not the week that would reach it.
func TestOpenDetectsBitFlipInAnySegment(t *testing.T) {
	for seg := 0; seg < 3; seg++ {
		dir := filepath.Join(t.TempDir(), "bundle")
		appendAll(t, dir, 3, studyRecs())
		path := store.SegmentPath(dir, seg)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-9] ^= 0x01 // in the last week's bytes
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if b, err := Open(dir); err == nil {
			b.Close()
			t.Errorf("segment %d: Open accepted a bit-flipped bundle", seg)
		} else if !strings.Contains(err.Error(), "checksum") {
			t.Errorf("segment %d: want a checksum failure, got: %v", seg, err)
		}
	}
}

// TestCorruptMetaFailsTheOpen: a truncated bundle.json used to be read as
// absent, and a missing one as the zero Meta; a replay then ran under
// whatever study shape the flags defaulted to. Create writes the file before
// the first record, so both are damaged archives, refused by every reader.
func TestCorruptMetaFailsTheOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	writeTestBundle(t, dir, 2)
	meta := filepath.Join(dir, MetaName)
	if err := os.WriteFile(meta, []byte(`{"version":1,"domains":3`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, mountErr := Mount(dir)
	_, statsErr := Stats(dir)
	_, openErr := Open(dir)
	for what, err := range map[string]error{"Mount": mountErr, "Stats": statsErr, "Open": openErr} {
		if err == nil || !strings.Contains(err.Error(), "corrupt bundle.json") || !strings.HasPrefix(err.Error(), "wexbundle: ") {
			t.Errorf("%s = %v, want the wexbundle: … corrupt bundle.json error", what, err)
		}
	}
	if err := os.Remove(meta); err != nil {
		t.Fatal(err)
	}
	_, mountErr = Mount(dir)
	_, statsErr = Stats(dir)
	_, openErr = Open(dir)
	for what, err := range map[string]error{"Mount": mountErr, "Stats": statsErr, "Open": openErr} {
		if !errors.Is(err, fs.ErrNotExist) || !strings.HasPrefix(err.Error(), "wexbundle: ") {
			t.Errorf("%s of a bundle without bundle.json = %v, want the wexbundle: … no such file error", what, err)
		}
	}
}

// openFDs counts the process's open descriptors (Linux; -1 elsewhere).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// goroutinesAfter polls runtime.NumGoroutine until it is down to want or a
// second has passed, and returns the last count: a goroutine that has
// already called its WaitGroup's Done is counted until it returns.
func goroutinesAfter(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		g := runtime.NumGoroutine()
		if g <= want || time.Now().After(deadline) {
			return g
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAbandonedReaderLeaksNothing: between two Advance calls a reader is
// open files and buffers — no goroutine — and Close releases the files
// wherever the reader stopped.
func TestAbandonedReaderLeaksNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	appendAll(t, dir, 3, studyRecs())
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if f := openFDs(); f != fds {
		t.Errorf("Open left %d files open: cursors open on first use", f-fds)
	}
	if err := b.Advance(1); err != nil {
		t.Fatal(err)
	}
	if g := goroutinesAfter(goroutines); g > goroutines {
		t.Errorf("%d goroutines between two Advance calls, %d before Open", g, goroutines)
	}
	if f := openFDs(); fds >= 0 && f != fds+3 {
		t.Errorf("%d files open mid-archive, want the 3 segments", f-fds)
	}
	b.Close()
	b.Close() // harmless twice
	if f := openFDs(); f != fds {
		t.Errorf("%d files still open after Close", f-fds)
	}
	if err := b.Advance(2); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Advance after Close = %v, want a closed-reader error", err)
	}
	if _, ok := b.Get(pageRec(1, "a.example", "").Key); !ok {
		t.Error("Close dropped the resident week")
	}

	// A reader drained to the end has closed its files by itself.
	if b, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if err := b.Advance(3); err != nil {
		t.Fatal(err)
	}
	if f := openFDs(); f != fds {
		t.Errorf("%d files open after the last week was read", f-fds)
	}
	b.Close()
}
