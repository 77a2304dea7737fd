// Store fsck: integrity verification and corrupt-archive salvage.
//
// Crash recovery has two authorities, consulted in order. A valid manifest
// whose declared counts survive a full checksum-verified replay means the
// archive is intact — salvage is a no-op. Failing that, a checkpoint
// journal is exact: each segment is truncated back to its committed byte
// offset and the committed record counts are re-verified by replay, so a
// salvaged checkpointed store contains precisely the committed weeks —
// never less (losing committed weeks is an error, not a repair). With
// neither authority — a store written without a journal, torn mid-write —
// salvage falls back to scanning: each segment keeps its longest
// decodable, checksum-valid record prefix (rewritten through a temp file
// and renamed into place), and the rebuilt manifest is marked salvaged so
// downstream tooling knows the archive is a recovered prefix, not a
// complete run. An archive of an earlier release (v1 or v2) is refused
// before either authority touches a file.

package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// SegmentInfo is one segment's inspection result.
type SegmentInfo struct {
	Index     int
	Path      string
	SizeBytes int64
	// Format is the record format sniffed from the segment's first
	// decompressed byte (FormatDelta or FormatBundle; 0 for an empty or
	// unreadable stream).
	Format int
	// Members counts the segment's complete gzip members — the committed
	// durability units of a multi-member segment.
	Members int
	// Records counts the decodable, checksum-valid record prefix.
	Records int
	// Truncated marks a segment whose scan stopped at a decode error
	// (torn gzip member, malformed record); Err carries it.
	Truncated bool
	Err       string
}

// Inspection is the full fsck view of a store directory.
type Inspection struct {
	Dir           string
	HasManifest   bool
	Manifest      Manifest
	ManifestErr   string
	HasCheckpoint bool
	Checkpoint    Checkpoint
	CheckpointErr string
	Segments      []SegmentInfo
	TotalRecords  int
}

// countRecords counts a segment's decodable record prefix in whatever
// format the segment sniffed as: bundle segments count raw '!'-marked
// lines, everything else decodes observations.
func countRecords(path string, format int, n *int) error {
	if format == FormatBundle {
		return ForEachRawLine(path, func([]byte) error { *n++; return nil })
	}
	return forEachFile(path, func(Observation) error { *n++; return nil })
}

// segmentFiles lists dir's segment files and verifies they are contiguous
// seg-0000..seg-(n-1).
func segmentFiles(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl.gz"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var paths []string
	for _, m := range matches {
		if _, ok := segmentIndex(dir, m); ok {
			paths = append(paths, m)
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("store: %s: no segment files", dir)
	}
	sort.Strings(paths)
	for i, p := range paths {
		if p != SegmentPath(dir, i) {
			return nil, fmt.Errorf("store: %s: segment files not contiguous (missing %s)", dir, SegmentPath(dir, i))
		}
	}
	return paths, nil
}

// Inspect scans a store directory without modifying it: manifest and
// checkpoint state (present, absent, or corrupt) plus, per segment, the
// length of the decodable checksum-valid record prefix. It fails only when
// the directory holds no segment files, or when its manifest, journal or a
// segment is an archive of an earlier release.
func Inspect(dir string) (Inspection, error) {
	in := Inspection{Dir: dir}
	paths, err := segmentFiles(dir)
	if err != nil {
		return in, err
	}
	if man, err := ReadManifest(dir); err == nil {
		in.HasManifest, in.Manifest = true, man
	} else if errors.Is(err, errLegacy) {
		return in, err
	} else if !errors.Is(err, fs.ErrNotExist) {
		in.ManifestErr = err.Error()
	}
	if HasCheckpoint(dir) {
		if ck, err := ReadCheckpoint(dir); err == nil {
			in.HasCheckpoint, in.Checkpoint = true, ck
		} else {
			in.CheckpointErr = err.Error()
		}
	}
	for i, path := range paths {
		info := SegmentInfo{Index: i, Path: path}
		if fi, err := os.Stat(path); err == nil {
			info.SizeBytes = fi.Size()
		}
		if info.Format, err = sniffFormat(path); errors.Is(err, errLegacy) {
			return in, err
		}
		// Best-effort member count: a torn tail reports the intact prefix.
		info.Members, _ = countGzipMembers(path)
		scanErr := countRecords(path, info.Format, &info.Records)
		if scanErr != nil {
			info.Truncated = true
			info.Err = scanErr.Error()
		}
		in.TotalRecords += info.Records
		in.Segments = append(in.Segments, info)
	}
	return in, nil
}

// Verify is the integrity mode ReadManifest alone does not provide: beyond
// the manifest's shape it replays every segment, checksum-verifying each
// record, and cross-checks the actual decodable record counts against the
// counts the manifest declares. A lying manifest — declared counts that do
// not match the data — fails here even though ReadManifest accepts it.
func Verify(dir string) (Inspection, error) {
	in, err := Inspect(dir)
	if err != nil {
		return in, err
	}
	if !in.HasManifest {
		if in.ManifestErr != "" {
			return in, fmt.Errorf("store: %s: %s", dir, in.ManifestErr)
		}
		return in, fmt.Errorf("store: %s: no manifest — incomplete archive (crashed run?); run salvage", dir)
	}
	if in.Manifest.Segments != len(in.Segments) {
		return in, fmt.Errorf("store: %s: manifest declares %d segments, %d on disk",
			dir, in.Manifest.Segments, len(in.Segments))
	}
	for _, seg := range in.Segments {
		if seg.Truncated {
			return in, fmt.Errorf("store: %s: %s", filepath.Base(seg.Path), seg.Err)
		}
		if want := in.Manifest.Counts[seg.Index]; seg.Records != want {
			return in, fmt.Errorf("store: %s: manifest declares %d records, segment holds %d",
				filepath.Base(seg.Path), want, seg.Records)
		}
		// The member table must account for every compressed byte of the
		// segment with matching FNV-1a sums and record counts — corruption
		// is caught on the raw bytes, decode aside.
		members := in.Manifest.Members[seg.Index]
		records := 0
		for _, m := range members {
			records += m.Records
		}
		if records != seg.Records {
			return in, fmt.Errorf("store: %s: member table records %d, segment holds %d",
				filepath.Base(seg.Path), records, seg.Records)
		}
		if err := VerifyMemberTable(seg.Path, members); err != nil {
			return in, err
		}
	}
	if in.HasCheckpoint && in.Checkpoint.Segments != in.Manifest.Segments {
		return in, fmt.Errorf("store: %s: checkpoint covers %d segments, manifest %d",
			dir, in.Checkpoint.Segments, in.Manifest.Segments)
	}
	return in, nil
}

// SalvageResult reports what Salvage did.
type SalvageResult struct {
	Segments int
	Counts   []int
	Total    int
	// Intact means the archive verified clean and nothing was touched.
	Intact bool
	// FromCheckpoint means segments were truncated to the checkpoint's
	// committed offsets; otherwise torn segments were rewritten to their
	// longest valid record prefix.
	FromCheckpoint bool
	// TornSegments counts segments that actually lost a tail.
	TornSegments int
	// DroppedBytes totals the torn tail bytes amputated (checkpoint path).
	DroppedBytes int64
}

// Salvage repairs a crashed, torn, or manifest-less store directory in
// place and rewrites a manifest marked salvaged, making the archive
// readable again. See the package comment above for the authority order
// (intact manifest > checkpoint > prefix scan). Salvaging never loses
// committed data: a checkpointed store that cannot be restored to its
// committed state errors out rather than degrading silently.
func Salvage(dir string) (SalvageResult, error) {
	return salvageOn(osFS{}, dir)
}

func salvageOn(fsys FS, dir string) (SalvageResult, error) {
	// Only a manifest can make an archive intact. Without one, Verify would
	// decode every segment just to fail, and the authority below decodes
	// the committed data again.
	if IsSegmented(dir) {
		_, err := Verify(dir)
		if err == nil {
			man, _ := ReadManifest(dir)
			return SalvageResult{Segments: man.Segments, Counts: man.Counts,
				Total: man.Total, Intact: true}, nil
		}
		if errors.Is(err, errLegacy) {
			return SalvageResult{}, err
		}
	}
	// A legacy journal or segment decodes to nothing here: either authority
	// below would truncate or rewrite the archive away. A scan rewrites an
	// observation store as v3, a bundle archive (any segment sniffing v4)
	// in its own raw format.
	paths, err := segmentFiles(dir)
	if err != nil {
		return SalvageResult{}, err
	}
	target := FormatDelta
	for _, path := range paths {
		format, err := sniffFormat(path)
		if errors.Is(err, errLegacy) {
			return SalvageResult{}, err
		}
		if format == FormatBundle {
			target = FormatBundle
		}
	}
	if HasCheckpoint(dir) {
		ck, err := ReadCheckpoint(dir)
		if err == nil {
			return salvageFromCheckpoint(fsys, dir, ck)
		}
		if errors.Is(err, errLegacy) {
			return SalvageResult{}, err
		}
		// A corrupt journal falls through to the scan: the atomic
		// checkpoint commit makes this near-impossible, but a scan still
		// recovers the data.
	}
	return salvageByScan(fsys, dir, paths, target)
}

// salvageFromCheckpoint truncates every segment to its committed offset
// and re-verifies the committed record counts by checksum replay.
func salvageFromCheckpoint(fsys FS, dir string, ck Checkpoint) (SalvageResult, error) {
	res := SalvageResult{Segments: ck.Segments, Counts: ck.Counts, Total: ck.Total, FromCheckpoint: true}
	for i := 0; i < ck.Segments; i++ {
		path := SegmentPath(dir, i)
		f, err := fsys.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return res, fmt.Errorf("store: %w", err)
		}
		size, err := f.Seek(0, io.SeekEnd)
		if err == nil && size < ck.Offsets[i] {
			err = fmt.Errorf("%d bytes on disk, checkpoint committed %d — committed weeks are missing",
				size, ck.Offsets[i])
		}
		if err == nil && size > ck.Offsets[i] {
			res.TornSegments++
			res.DroppedBytes += size - ck.Offsets[i]
			if err = f.Truncate(ck.Offsets[i]); err == nil {
				err = f.Sync()
			}
		}
		if cerr := f.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			return res, fmt.Errorf("store: %s: %w", path, err)
		}
		// The journal's member table is a stronger authority than the
		// offsets alone: re-hash the truncated file against it before
		// trusting any decode — a bit flip inside committed data fails
		// here on the raw bytes.
		if err := VerifyMemberTable(path, ck.Members[i]); err != nil {
			return res, fmt.Errorf("store: committed member corrupt: %w", err)
		}
		// Cross-check: the committed prefix must decode to exactly the
		// committed record count; anything else means corruption inside
		// committed data, which salvage must refuse to paper over.
		n := 0
		if err := countRecords(path, ck.Format, &n); err != nil {
			return res, fmt.Errorf("store: committed prefix corrupt: %w", err)
		}
		if n != ck.Counts[i] {
			return res, fmt.Errorf("store: %s: checkpoint committed %d records, prefix decodes %d",
				path, ck.Counts[i], n)
		}
	}
	if err := writeSalvagedManifest(fsys, dir, ck.Segments, ck.Counts, ck.Format, ck.Members, &ck.Run); err != nil {
		return res, err
	}
	return res, nil
}

// errSalvageWrite tags failures of the salvage rewrite itself, so they are
// never mistaken for the torn-tail decode errors salvage exists to absorb.
var errSalvageWrite = errors.New("store: salvage rewrite failed")

// salvageByScan rewrites each segment to its longest valid record prefix
// in target's format — bundle records are opaque here and must survive
// byte-for-byte.
func salvageByScan(fsys FS, dir string, paths []string, target int) (SalvageResult, error) {
	res := SalvageResult{Segments: len(paths), Counts: make([]int, len(paths))}
	members := make([][]Member, len(paths))
	for i, path := range paths {
		tmp := path + ".salvage"
		nw, err := createFile(fsys, tmp, target)
		if err != nil {
			return res, fmt.Errorf("store: %w", err)
		}
		kept := 0
		var scanErr error
		if target == FormatBundle {
			scanErr = ForEachRawLine(path, func(line []byte) error {
				if err := nw.WriteRaw(line); err != nil {
					return fmt.Errorf("%w: %s: %v", errSalvageWrite, tmp, err)
				}
				kept++
				return nil
			})
		} else {
			scanErr = forEachFile(path, func(o Observation) error {
				if err := nw.Write(o); err != nil {
					return fmt.Errorf("%w: %s: %v", errSalvageWrite, tmp, err)
				}
				kept++
				return nil
			})
		}
		if scanErr != nil {
			if errors.Is(scanErr, errSalvageWrite) {
				_ = nw.abort()
				_ = fsys.Remove(tmp)
				return res, scanErr
			}
			res.TornSegments++ // decode stopped at the torn tail; amputated
		}
		if err := nw.Close(); err != nil {
			_ = fsys.Remove(tmp)
			return res, fmt.Errorf("store: %s: %w", tmp, err)
		}
		members[i] = nw.members
		if err := fsys.Rename(tmp, path); err != nil {
			_ = fsys.Remove(tmp)
			return res, fmt.Errorf("store: %w", err)
		}
		if err := fsys.SyncDir(dir); err != nil {
			return res, fmt.Errorf("store: %s: %w", dir, err)
		}
		res.Counts[i] = kept
		res.Total += kept
	}
	if err := writeSalvagedManifest(fsys, dir, res.Segments, res.Counts, target, members, nil); err != nil {
		return res, err
	}
	return res, nil
}

// writeSalvagedManifest seals a salvaged store; run is the journal's study,
// nil when a scan had no journal to take it from.
func writeSalvagedManifest(fsys FS, dir string, segments int, counts []int, version int, members [][]Member, run *RunID) error {
	man := Manifest{
		Version:   version,
		Segments:  segments,
		Partition: PartitionFNV1aDomain,
		Counts:    counts,
		Members:   members,
		Salvaged:  true,
		Run:       run,
	}
	for _, c := range counts {
		man.Total += c
	}
	return writeManifest(fsys, dir, man)
}
