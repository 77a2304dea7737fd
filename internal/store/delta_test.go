package store

// Tests for the v3 delta segment format: round-trip fidelity on both
// churny and longitudinal data, the inline fast-path fallbacks, member
// checksum integrity, and the size win over v1/v2 that motivates the
// format.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// genLongitudinal builds a stream shaped like real longitudinal crawl
// data: each domain has a stable profile and most weeks repeat the prior
// week's observation exactly (only Week advances), with a small churn
// probability of a library upgrade or status flip. This is the shape the
// v3 same-record fast path exploits.
func genLongitudinal(domains, weeks int, seed int64) []Observation {
	r := rand.New(rand.NewSource(seed))
	cur := make([]Observation, domains)
	for d := range cur {
		o := Observation{
			Domain: "site" + itoa(d) + ".example",
			Rank:   d + 1,
			Status: 200,
			Bytes:  4096,
			HasJS:  true,
			Libs: []LibRecord{{
				Slug: "jquery", Version: "1." + itoa(r.Intn(12)) + ".4", Known: true,
			}},
		}
		if r.Intn(4) == 0 {
			o.WordPress = "5." + itoa(r.Intn(9))
		}
		cur[d] = o
	}
	var out []Observation
	for w := 0; w < weeks; w++ {
		for d := range cur {
			switch {
			case r.Intn(10) == 0: // library upgrade
				cur[d].Libs = []LibRecord{{
					Slug: "jquery", Version: "3." + itoa(r.Intn(7)) + ".0", Known: true,
				}}
			case r.Intn(25) == 0: // transient outage
				cur[d].Status = 503
				cur[d].Bytes = 0
				cur[d].HasJS = false
				cur[d].Libs = nil
			case cur[d].Status != 200 && r.Intn(2) == 0: // recovery
				cur[d].Status = 200
				cur[d].Bytes = 4096
				cur[d].HasJS = true
			}
			o := cur[d].Clone()
			o.Week = w
			out = append(out, o)
		}
	}
	return out
}

// TestDeltaRoundTripProperty: every observation written to a v3 store
// comes back exactly once at every segment count, with per-domain order
// intact, through the sequential and transparent readers — for both
// churny random data (full/delta records dominate) and stable longitudinal
// data (same-records dominate).
func TestDeltaRoundTripProperty(t *testing.T) {
	shapes := map[string][]Observation{
		"churny":       genObs(23, 7),
		"longitudinal": genLongitudinal(31, 12, 7),
	}
	for shape, want := range shapes {
		wantBy := byDomain(want)
		for _, segments := range []int{1, 2, 4, 8} {
			dir := filepath.Join(t.TempDir(), shape+"-"+itoa(segments))
			w, err := CreateSegmentedWith(dir, segments, SegmentedOptions{Format: FormatDelta})
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range want {
				if err := w.Write(o); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			man, err := ReadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if man.Version != FormatDelta || len(man.Members) != segments {
				t.Fatalf("%s segments=%d: manifest %+v", shape, segments, man)
			}
			for i := 0; i < segments; i++ {
				if f, err := sniffFormat(SegmentPath(dir, i)); err != nil || f != FormatDelta {
					t.Fatalf("%s segment %d: sniffed format %d, %v", shape, i, f, err)
				}
			}

			for name, read := range map[string]func(fn func(Observation) error) error{
				"ForEachSegmented": func(fn func(Observation) error) error { return ForEachSegmented(dir, fn) },
				"ForEach":          func(fn func(Observation) error) error { return ForEach(dir, fn) },
			} {
				var got []Observation
				if err := read(func(o Observation) error {
					got = append(got, o.Clone())
					return nil
				}); err != nil {
					t.Fatalf("%s segments=%d %s: %v", shape, segments, name, err)
				}
				checkSameByDomain(t, wantBy, byDomain(got))
			}

			if _, err := Verify(dir); err != nil {
				t.Fatalf("%s segments=%d: verify: %v", shape, segments, err)
			}
		}
	}
}

// TestDeltaFastPathFallbacks: inputs the '~' inline record cannot carry —
// newline/CR bytes in the domain, negative or absurd week numbers — must
// fall back to full records and still round-trip exactly.
func TestDeltaFastPathFallbacks(t *testing.T) {
	base := Observation{Status: 200, Bytes: 4096, HasJS: true,
		Libs: []LibRecord{{Slug: "jquery", Version: "1.12.4", Known: true}}}
	var want []Observation
	for w := 0; w < 3; w++ {
		for _, d := range []string{"evil\nsite.example", "cr\rsite.example", "plain.example"} {
			o := base.Clone()
			o.Domain, o.Week = d, w
			want = append(want, o)
		}
		// Weeks the inline parser refuses: negative and past the cap.
		for _, wk := range []int{-1, 1 << 31} {
			o := base.Clone()
			o.Domain, o.Week = "odd-week.example", wk
			want = append(want, o)
		}
	}

	dir := filepath.Join(t.TempDir(), "store")
	w, err := CreateSegmentedWith(dir, 1, SegmentedOptions{Format: FormatDelta})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range want {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
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
	checkSameByDomain(t, byDomain(want), byDomain(got))
}

// TestDeltaMemberChecksumDetectsBitFlip: a flipped byte in a committed
// member must fail Verify with a checksum mismatch, and a checkpoint
// salvage must refuse to restore over it rather than decode corrupt data.
// The flip lands in the gzip header's mtime field (offset 4) — a spot the
// format's own CRC32 does NOT cover, so only the raw-byte member table
// can catch it.
func TestDeltaMemberChecksumDetectsBitFlip(t *testing.T) {
	obs := genLongitudinal(12, 5, 3)
	weeks := byWeek(obs, 5)
	run := RunID{Seed: 3, Domains: 12, Weeks: 5}

	build := func(dir string, close bool) {
		t.Helper()
		w, err := CreateSegmentedWith(dir, 2, SegmentedOptions{Checkpoint: true, Run: run})
		if err != nil {
			t.Fatal(err)
		}
		for wk, week := range weeks {
			for _, o := range week {
				if err := w.Write(o); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.CommitWeek(wk); err != nil {
				t.Fatal(err)
			}
		}
		if close {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		} else if err := w.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	flip := func(path string, off int64) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b := make([]byte, 1)
		if _, err := f.ReadAt(b, off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x40
		if _, err := f.WriteAt(b, off); err != nil {
			t.Fatal(err)
		}
	}

	// Closed store: Verify catches the flip via the manifest member table.
	dir := filepath.Join(t.TempDir(), "closed")
	build(dir, true)
	if _, err := Verify(dir); err != nil {
		t.Fatalf("pristine store fails verify: %v", err)
	}
	flip(SegmentPath(dir, 0), 4)
	if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("verify after bit flip: %v", err)
	}

	// Crashed store: salvage must refuse a corrupt committed member.
	dir2 := filepath.Join(t.TempDir(), "crashed")
	build(dir2, false)
	flip(SegmentPath(dir2, 0), 4)
	if _, err := Salvage(dir2); err == nil || !strings.Contains(err.Error(), "committed member corrupt") {
		t.Fatalf("salvage over corrupt committed member: %v", err)
	}

	// VerifyMemberTable directly: the pristine sibling passes, and the
	// flipped file names the failing member.
	ck, err := ReadCheckpoint(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMemberTable(SegmentPath(dir2, 1), ck.Members[1]); err != nil {
		t.Fatalf("intact segment fails member verify: %v", err)
	}
	if err := VerifyMemberTable(SegmentPath(dir2, 0), ck.Members[0]); err == nil ||
		!strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("flipped segment passes member verify: %v", err)
	}
}

// TestDeltaArchiveSmallerThanV1AndV2: on longitudinal data — the workload
// the store exists for — the v3 segment must be smaller than the v1
// encoding of the same stream, gzip over plain JSON lines (v2 was those
// lines each behind a checksum frame, never smaller than v1). This is the
// size acceptance the format is justified by.
func TestDeltaArchiveSmallerThanV1AndV2(t *testing.T) {
	obs := genLongitudinal(200, 50, 42)
	dir := filepath.Join(t.TempDir(), "v3")
	writeSegmented(t, dir, obs, 1)
	fi, err := os.Stat(SegmentPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	gz := gzip.NewWriter(&v1)
	enc := json.NewEncoder(gz)
	for _, o := range obs {
		if err := enc.Encode(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("archive bytes for %d obs: v1=%d v3=%d", len(obs), v1.Len(), fi.Size())
	if int(fi.Size()) >= v1.Len() {
		t.Errorf("v3 archive (%d bytes) not smaller than v1 (%d bytes)", fi.Size(), v1.Len())
	}
}
