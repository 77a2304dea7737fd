// Run checkpointing: the week-granular durability journal.
//
// The paper's collection shape — 201 weekly snapshots over four years —
// makes mid-run crashes a certainty, and without a journal a crash
// anywhere loses the whole archive (the manifest is only written on a
// clean Close). The checkpoint closes that hole: after every completed
// week the segmented writer flushes and fsyncs each segment, finishes the
// open gzip member so the committed prefix is independently decodable, and
// commits checkpoint.json atomically (temp file + fsync + rename + dir
// fsync). The journal records, per segment, the committed byte offset and
// record count; a resume truncates each segment back to its committed
// offset — amputating any torn tail the crash left — verifies the counts
// by replay, and restarts collection at the first incomplete week.

package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// CheckpointName is the journal file inside a segmented store directory.
const CheckpointName = "checkpoint.json"

// CheckpointVersion is the journal format version this package writes.
const CheckpointVersion = 1

// RunID identifies the run a checkpoint belongs to. A resume refuses a
// checkpoint whose identity differs from the resuming configuration in any
// field: splicing weeks of two different runs would silently corrupt the
// study.
type RunID struct {
	Seed    int64 `json:"seed"`
	Domains int   `json:"domains"`
	// Weeks is the total planned week count of the run, not the committed
	// prefix (that lives in Checkpoint.CommittedWeeks).
	Weeks int `json:"weeks"`
	Mode  int `json:"mode"`
	// Partition identifies which domain-hash partition of the study this
	// store holds when the crawl is distributed across workers (0 for
	// whole-study stores — partition 0 of a 1-partition run is the whole
	// study, so the zero value stays backward compatible).
	Partition int `json:"partition,omitempty"`
	// Epoch is the lease epoch this store was written under (distributed
	// crawls; 0 otherwise). Every epoch writes its own generation
	// directory, so a resume under any other epoch is a different run.
	Epoch int64 `json:"epoch,omitempty"`
}

// Checkpoint is the on-disk journal state: everything through week
// CommittedWeeks-1 is durably on disk at the recorded per-segment offsets.
type Checkpoint struct {
	Version int `json:"version"`
	// Format is the record format the segments are encoded in, FormatDelta
	// or FormatBundle. Journals of v2 stores carry 2 or, older still, no
	// format at all; ReadCheckpoint refuses both as legacy.
	Format int `json:"format,omitempty"`
	// CommittedWeeks counts fully committed weeks; the next week to
	// collect is week CommittedWeeks (0-based).
	CommittedWeeks int     `json:"committed_weeks"`
	Segments       int     `json:"segments"`
	Offsets        []int64 `json:"offsets"`
	Counts         []int   `json:"counts"`
	Total          int     `json:"total"`
	// Members is the per-segment committed member table: checkpoint
	// salvage re-hashes the committed prefix against it before trusting a
	// decode. Per segment, the member lengths must sum to the committed
	// offset and the record counts to the committed count — ReadCheckpoint
	// enforces both.
	Members [][]Member `json:"members,omitempty"`
	Run     RunID      `json:"run"`
}

// CheckpointPath returns the journal path inside a store directory.
func CheckpointPath(dir string) string { return filepath.Join(dir, CheckpointName) }

// HasCheckpoint reports whether dir carries a checkpoint journal.
func HasCheckpoint(dir string) bool {
	_, err := os.Stat(CheckpointPath(dir))
	return err == nil
}

// ReadCheckpoint loads and validates a store's checkpoint journal. A
// journal it accepts is safe to truncate and index by: every segment has
// an offset, a count and a member table whose lengths sum to the offset
// and whose record counts sum to the count, and the counts sum to Total.
func ReadCheckpoint(dir string) (Checkpoint, error) {
	data, err := os.ReadFile(CheckpointPath(dir))
	if err != nil {
		return Checkpoint{}, fmt.Errorf("store: %s: %w", dir, err)
	}
	return parseCheckpoint(dir, data)
}

// parseCheckpoint is ReadCheckpoint on the journal's bytes; dir only
// words the errors.
func parseCheckpoint(dir string, data []byte) (Checkpoint, error) {
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return Checkpoint{}, fmt.Errorf("store: %s: corrupt checkpoint: %w", dir, err)
	}
	if ck.Version != CheckpointVersion {
		return Checkpoint{}, fmt.Errorf("store: %s: checkpoint version %d not supported", dir, ck.Version)
	}
	switch ck.Format {
	case FormatDelta, FormatBundle:
	case 0, 2:
		return Checkpoint{}, legacyFormat(dir, 2)
	default:
		return Checkpoint{}, fmt.Errorf("store: %s: checkpoint format %d not supported", dir, ck.Format)
	}
	if ck.Segments < 1 || ck.Segments != len(ck.Offsets) || ck.Segments != len(ck.Counts) || ck.Segments != len(ck.Members) {
		return Checkpoint{}, fmt.Errorf("store: %s: checkpoint inconsistent (%d segments, %d offsets, %d counts, %d member tables)",
			dir, ck.Segments, len(ck.Offsets), len(ck.Counts), len(ck.Members))
	}
	if ck.CommittedWeeks < 1 {
		return Checkpoint{}, fmt.Errorf("store: %s: checkpoint commits no weeks", dir)
	}
	// Every quantity is checked against what is left of the one it sums
	// to, so no sum can overflow: a member longer than the rest of its
	// segment's offset would otherwise let resume and checkpoint salvage
	// truncate committed bytes before any member checksum is consulted.
	left := ck.Total
	for i, members := range ck.Members {
		bytes, records := ck.Offsets[i], ck.Counts[i]
		if bytes < 0 || records < 0 || records > left {
			return Checkpoint{}, fmt.Errorf("store: %s: checkpoint segment %d offset %d or count %d out of range",
				dir, i, bytes, records)
		}
		left -= records
		for k, m := range members {
			if m.Len <= 0 || m.Len > bytes || m.Records < 0 || m.Records > records {
				return Checkpoint{}, fmt.Errorf("store: %s: checkpoint segment %d member %d (%d bytes, %d records) exceeds what is left of offset %d and count %d",
					dir, i, k, m.Len, m.Records, ck.Offsets[i], ck.Counts[i])
			}
			bytes -= m.Len
			records -= m.Records
		}
		if bytes != 0 || records != 0 {
			return Checkpoint{}, fmt.Errorf("store: %s: checkpoint segment %d member table short of offset %d by %d bytes, of count %d by %d records",
				dir, i, ck.Offsets[i], bytes, ck.Counts[i], records)
		}
	}
	if left != 0 {
		return Checkpoint{}, fmt.Errorf("store: %s: checkpoint totals inconsistent (%d declared, segments short by %d)",
			dir, ck.Total, left)
	}
	return ck, nil
}

// writeCheckpoint commits the journal atomically: a crash during the write
// leaves the previous checkpoint authoritative, never a torn one.
func writeCheckpoint(fsys FS, dir string, ck Checkpoint) error {
	data, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return atomicWriteFile(fsys, CheckpointPath(dir), append(data, '\n'))
}
