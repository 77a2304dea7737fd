// Segmented store: the one layout of the observation archive.
//
// A single gzip stream can only ever be decoded by one goroutine — the
// compression state is sequential — so one file would cap replay
// throughput at one core no matter how many analysis shards run behind
// it. The segmented layout removes that ceiling the way industrial crawl
// archives do (Common Crawl's segment files, BUbiNG's parallel store):
// the archive is a directory of n independent gzip segment files (n = 1
// by default) plus a small JSON manifest that exists only once the run
// closed cleanly, partitioned by the same FNV-1a domain hash the analysis
// pipeline shards by. Because segment partition == shard
// partition, a reader with one decoder goroutine per segment can feed
// per-shard collectors directly, with no cross-goroutine handoff, and
// per-domain week ordering — the correctness contract of the stateful
// collectors — holds inside every segment by construction.

package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ManifestName is the file that marks a directory as a segmented store.
const ManifestName = "manifest.json"

// PartitionFNV1aDomain names the only partition function this layout
// uses; readers refuse manifests declaring anything else.
const PartitionFNV1aDomain = "fnv1a-domain"

// Manifest describes a segmented store directory.
type Manifest struct {
	Version   int    `json:"version"`
	Segments  int    `json:"segments"`
	Partition string `json:"partition"`
	// Counts holds per-segment observation counts; Total their sum.
	Counts []int `json:"counts"`
	Total  int   `json:"total"`
	// Members is the per-segment member table: each segment's committed
	// gzip members with compressed length, FNV-1a sum over the compressed
	// bytes, and record count. Verify re-hashes the raw segment files
	// against it.
	Members [][]Member `json:"members,omitempty"`
	// Salvaged marks a manifest rebuilt by Salvage from a crashed or torn
	// store rather than written by a clean Close.
	Salvaged bool `json:"salvaged,omitempty"`
	// Run is the study the store holds, the writer's SegmentedOptions.Run
	// (a checkpoint salvage takes the journal's). It is nil when the
	// writer had none, after a prefix-scan salvage, which has no journal
	// to take it from, and in a manifest of an earlier release.
	Run *RunID `json:"run,omitempty"`
}

// ShardOf assigns a domain to one of n partitions by FNV-1a hash — the
// single partition function shared by the segmented store layout and the
// analysis pipeline's collector shards (core.Config.Shards). Keeping all
// of a domain's observations in one partition preserves the per-domain
// week ordering the stateful collectors rely on and makes shard merging
// exact. Inlined rather than hash/fnv so the hot paths pay no allocation.
func ShardOf(domain string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(fnvOffset32)
	for i := 0; i < len(domain); i++ {
		h ^= uint32(domain[i])
		h *= fnvPrime32
	}
	return int(h % uint32(n))
}

// SegmentPath returns the path of segment i inside a store directory.
func SegmentPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%04d.jsonl.gz", i))
}

// SegmentedWriter fans observations out to per-partition segment files.
// Each segment's Writer has its own lock, so writers hitting different
// segments (e.g. domain-disjoint collection shards) proceed in parallel
// without a global mutex.
type SegmentedWriter struct {
	dir  string
	fsys FS
	// opt holds the options as resolved: Format is never zero.
	opt  SegmentedOptions
	segs []*Writer
	// committedWeeks mirrors the last checkpoint written (checkpointed
	// writers only).
	committedWeeks int
}

// SegmentedOptions parameterizes the durability behavior of a segmented
// writer.
type SegmentedOptions struct {
	// Checkpoint enables the week-granular crash-safety journal: every
	// CommitWeek flushes, finishes, and fsyncs each segment's gzip member
	// and atomically commits checkpoint.json, so a crash loses at most
	// the week in flight (see ResumeSegmented).
	Checkpoint bool
	// Run is the identity stamped into the journal and, by Close, into
	// the manifest; ResumeSegmented refuses a checkpoint stamped by a
	// different run.
	Run RunID
	// Format selects the codec: FormatDelta (the default when zero) for
	// observations, FormatBundle for wexbundle's raw record lines. A resume
	// refuses a journal of any other format than the one asked for here.
	Format int
	// FS overrides the filesystem the durable write path goes through
	// (nil = the real one); the fault-injection tests substitute one that
	// fails chosen operations.
	FS FS
}

// resolveFormat defaults Format to observations and refuses everything but
// the two codecs that have a writer.
func (opt *SegmentedOptions) resolveFormat(dir string) error {
	if opt.Format == 0 {
		opt.Format = FormatDelta
	}
	if opt.Format != FormatDelta && opt.Format != FormatBundle {
		return fmt.Errorf("store: %s: format %d is not one this version writes", dir, opt.Format)
	}
	return nil
}

// CreateSegmented creates a segmented store directory with n segment
// files (n < 1 is treated as 1), truncating any existing segments. The
// manifest is written on Close; a directory without one is unreadable,
// so a crashed writer never masquerades as a complete archive.
func CreateSegmented(dir string, n int) (*SegmentedWriter, error) {
	return CreateSegmentedWith(dir, n, SegmentedOptions{})
}

// CreateSegmentedWith is CreateSegmented with explicit durability options.
// Any residue of a previous run in dir — stale manifest, stale checkpoint,
// orphan segment or temp files a crashed run left behind — is removed
// first, so a new archive can never silently mix with old partial data.
func CreateSegmentedWith(dir string, n int, opt SegmentedOptions) (*SegmentedWriter, error) {
	if n < 1 {
		n = 1
	}
	if err := opt.resolveFormat(dir); err != nil {
		return nil, err
	}
	fsys := realFS(opt.FS)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := cleanStaleRun(fsys, dir, n); err != nil {
		return nil, err
	}
	w := &SegmentedWriter{dir: dir, fsys: fsys, opt: opt, segs: make([]*Writer, n)}
	for i := range w.segs {
		seg, err := createFile(fsys, SegmentPath(dir, i), opt.Format)
		if err != nil {
			for j := 0; j < i; j++ {
				_ = w.segs[j].abort()
			}
			return nil, err
		}
		w.segs[i] = seg
	}
	return w, nil
}

// cleanStaleRun clears everything a previous run may have left in dir that
// the new n-segment layout does not own: the manifest (until Close
// rewrites it, the directory must read as incomplete), the checkpoint
// journal, atomic-write temp files, and orphan seg-*.jsonl.gz files with
// indices >= n — a crashed wider run's partials that a narrower recreate
// would otherwise leave lying around for Salvage or a human to mistake
// for live data.
func cleanStaleRun(fsys FS, dir string, n int) error {
	for _, name := range []string{
		ManifestName, ManifestName + ".tmp",
		CheckpointName, CheckpointName + ".tmp",
	} {
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: %w", err)
		}
	}
	stale, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl.gz*"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, path := range stale {
		if idx, ok := segmentIndex(dir, path); ok && idx < n {
			continue // owned by the new layout; createFile truncates it
		}
		if err := fsys.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// segmentIndex parses a segment file's index from its path; ok is false
// for anything that is not exactly a seg-NNNN.jsonl.gz of dir.
func segmentIndex(dir, path string) (int, bool) {
	var idx int
	name := filepath.Base(path)
	if _, err := fmt.Sscanf(name, "seg-%04d.jsonl.gz", &idx); err != nil {
		return 0, false
	}
	if path != SegmentPath(dir, idx) {
		return 0, false // suffixed (e.g. .tmp) or oddly formatted
	}
	return idx, true
}

// Write routes one observation to its domain's segment.
func (w *SegmentedWriter) Write(obs Observation) error {
	return w.segs[ShardOf(obs.Domain, len(w.segs))].Write(obs)
}

// WriteRaw routes one raw bundle record line to its domain's segment by
// the same FNV-1a partition Write uses, so a bundle archive and the
// observation store it was recorded alongside shard identically. Only
// bundle-format (v4) writers accept it.
func (w *SegmentedWriter) WriteRaw(domain string, line []byte) error {
	return w.segs[ShardOf(domain, len(w.segs))].WriteRaw(line)
}

// Count returns the number of observations written across all segments.
func (w *SegmentedWriter) Count() int {
	total := 0
	for _, seg := range w.segs {
		total += seg.Count()
	}
	return total
}

// CommitWeek makes everything collected through week (0-based) durable:
// each segment's buffered data is flushed, its open gzip member finished,
// and the file fsynced; then checkpoint.json is committed atomically. A
// crash at any point afterwards loses at most the week in flight —
// ResumeSegmented restores the store to exactly this commit. The caller
// must quiesce concurrent Writes for the duration (collection loops have a
// natural per-week barrier).
func (w *SegmentedWriter) CommitWeek(week int) error {
	if !w.opt.Checkpoint {
		return fmt.Errorf("store: %s: CommitWeek on a writer without SegmentedOptions.Checkpoint", w.dir)
	}
	if week+1 <= w.committedWeeks {
		return fmt.Errorf("store: %s: CommitWeek(%d) after %d weeks already committed", w.dir, week, w.committedWeeks)
	}
	ck := Checkpoint{
		Version:        CheckpointVersion,
		Format:         w.opt.Format,
		CommittedWeeks: week + 1,
		Segments:       len(w.segs),
		Offsets:        make([]int64, len(w.segs)),
		Counts:         make([]int, len(w.segs)),
		Members:        make([][]Member, len(w.segs)),
		Run:            w.opt.Run,
	}
	for i, seg := range w.segs {
		off, err := seg.commit()
		if err != nil {
			return fmt.Errorf("store: %s: %w", SegmentPath(w.dir, i), err)
		}
		count := seg.Count()
		ck.Members[i] = append([]Member(nil), seg.members...)
		ck.Offsets[i] = off
		ck.Counts[i] = count
		ck.Total += count
	}
	if err := writeCheckpoint(w.fsys, w.dir, ck); err != nil {
		return err
	}
	w.committedWeeks = week + 1
	return nil
}

// CommittedWeeks returns the number of fully committed weeks (0 for a
// writer without checkpointing or before its first CommitWeek).
func (w *SegmentedWriter) CommittedWeeks() int { return w.committedWeeks }

// Close flushes, fsyncs, and closes every segment, then commits the
// manifest, stamped with the writer's Run, atomically (temp file + fsync +
// rename). The manifest is only
// written when every segment closed cleanly — a partial archive stays
// unreadable-as-complete rather than silently short, while its fsynced
// segments and last checkpoint remain salvageable.
func (w *SegmentedWriter) Close() error {
	var first error
	man := Manifest{
		Version:   w.opt.Format,
		Segments:  len(w.segs),
		Partition: PartitionFNV1aDomain,
		Counts:    make([]int, len(w.segs)),
		Members:   make([][]Member, len(w.segs)),
	}
	if w.opt.Run != (RunID{}) {
		man.Run = &w.opt.Run
	}
	for i, seg := range w.segs {
		man.Counts[i] = seg.Count()
		man.Total += seg.Count()
		if err := seg.Close(); err != nil && first == nil {
			first = err
		}
		man.Members[i] = seg.members
	}
	if first != nil {
		return first
	}
	return writeManifest(w.fsys, w.dir, man)
}

// Abort closes every segment without flushing user-space buffers and
// without writing a manifest — the deliberate-crash path core takes when a
// run fails: on-disk state stays exactly what the OS already had
// (everything through the last CommitWeek plus any incidental tail), and
// the directory keeps reading as incomplete so nothing mistakes it for a
// finished archive. The last checkpoint, if any, remains authoritative
// for Salvage and resume.
func (w *SegmentedWriter) Abort() error {
	var first error
	for _, seg := range w.segs {
		if err := seg.abort(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// writeManifest commits a manifest atomically.
func writeManifest(fsys FS, dir string, man Manifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return atomicWriteFile(fsys, filepath.Join(dir, ManifestName), append(data, '\n'))
}

// ResumeSegmented reopens a checkpointed segmented store for writing at
// its last committed week. Every segment is truncated back to its
// committed byte offset — amputating whatever torn tail the crash left —
// and the writer continues appending from there; the returned checkpoint
// tells the caller which week to restart collection at (and carries the
// committed per-segment record counts for verification by replay). A
// manifest left by a completed run is removed: while the writer is open
// the directory must read as incomplete.
//
// All of that is destructive, so every refusal comes first. The journal
// must be of the codec the caller writes (opt.Format; zero means
// observations): a resume pointed at the sealed bundle instead of the
// store beside it, or the other way round, or at a store of an earlier
// release, leaves the directory as it found it. So must a journal stamped
// by any other run than opt.Run — another seed, shape, partition or lease
// epoch alike.
func ResumeSegmented(dir string, opt SegmentedOptions) (*SegmentedWriter, Checkpoint, error) {
	opt.Checkpoint = true
	if err := opt.resolveFormat(dir); err != nil {
		return nil, Checkpoint{}, err
	}
	fsys := realFS(opt.FS)
	ck, err := ReadCheckpoint(dir)
	if err != nil {
		return nil, Checkpoint{}, err
	}
	if ck.Format != opt.Format {
		return nil, Checkpoint{}, fmt.Errorf("store: %s: the checkpoint journals a format v%d archive, this resume writes v%d "+
			"(v3 is an observation store, v4 a web-execution bundle) — nothing was changed",
			dir, ck.Format, opt.Format)
	}
	if ck.Run != opt.Run {
		return nil, Checkpoint{}, fmt.Errorf("store: %s: checkpoint belongs to a different run (journal %+v, asked %+v) — nothing was changed",
			dir, ck.Run, opt.Run)
	}
	if err := fsys.Remove(filepath.Join(dir, ManifestName)); err != nil && !os.IsNotExist(err) {
		return nil, Checkpoint{}, fmt.Errorf("store: %w", err)
	}
	w := &SegmentedWriter{dir: dir, fsys: fsys, opt: opt,
		segs: make([]*Writer, ck.Segments), committedWeeks: ck.CommittedWeeks}
	for i := range w.segs {
		seg, err := resumeFile(fsys, SegmentPath(dir, i), ck.Offsets[i], ck.Counts[i], ck.Format, ck.Members[i])
		if err != nil {
			for j := 0; j < i; j++ {
				_ = w.segs[j].abort()
			}
			return nil, Checkpoint{}, err
		}
		w.segs[i] = seg
	}
	return w, ck, nil
}

// IsSegmented reports whether path is a segmented store directory (a
// directory containing a manifest).
func IsSegmented(path string) bool {
	fi, err := os.Stat(path)
	if err != nil || !fi.IsDir() {
		return false
	}
	_, err = os.Stat(filepath.Join(path, ManifestName))
	return err == nil
}

// ReadManifest loads and validates a segmented store's manifest. A path
// that is not a directory is refused whatever it holds: one segment file
// of a store carries no proof that its run was sealed.
func ReadManifest(dir string) (Manifest, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return Manifest{}, fmt.Errorf("store: %w", err)
	}
	if !fi.IsDir() {
		if _, err := sniffFormat(dir); errors.Is(err, errLegacy) {
			return Manifest{}, err
		}
		return Manifest{}, fmt.Errorf("store: %s is a file, not a store directory: a store is read whole, through its %s (for a segment file, pass its store %s)",
			dir, ManifestName, filepath.Dir(dir))
	}
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		// A killed or still-running crawl: say how to get a readable store
		// out of it instead of failing on the first segment read — unless
		// its journal is an earlier release's, which nothing here repairs.
		if _, cerr := ReadCheckpoint(dir); errors.Is(cerr, errLegacy) {
			return Manifest{}, cerr
		}
		journal := "and no " + CheckpointName + ": `fsck -repair` keeps each segment's valid prefix"
		if _, cerr := os.Stat(CheckpointPath(dir)); cerr == nil {
			journal = "but a " + CheckpointName + ": `crawl -resume` continues the run, `fsck -repair` seals its committed weeks"
		}
		return Manifest{}, fmt.Errorf("store: %s: no %s — the store was never sealed (%s): %w",
			dir, ManifestName, journal, err)
	}
	if err != nil {
		return Manifest{}, fmt.Errorf("store: %s: %w", dir, err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return Manifest{}, fmt.Errorf("store: %s: corrupt manifest: %w", dir, err)
	}
	switch man.Version {
	case FormatDelta, FormatBundle:
	case 1, 2:
		return Manifest{}, legacyFormat(dir, man.Version)
	default:
		return Manifest{}, fmt.Errorf("store: %s: manifest version %d not supported", dir, man.Version)
	}
	if man.Segments < 1 || man.Segments != len(man.Counts) || man.Segments != len(man.Members) {
		return Manifest{}, fmt.Errorf("store: %s: manifest inconsistent (%d segments, %d counts, %d member tables)",
			dir, man.Segments, len(man.Counts), len(man.Members))
	}
	if man.Partition != PartitionFNV1aDomain {
		return Manifest{}, fmt.Errorf("store: %s: unknown partition %q", dir, man.Partition)
	}
	return man, nil
}

// ForEachSegment streams one segment of a segmented store, in file order,
// under ForEach's contract: the callback may retain the observations and
// must not mutate them.
func ForEachSegment(dir string, seg int, fn func(Observation) error) error {
	return forEachFile(SegmentPath(dir, seg), fn)
}

// ForEachSegmented streams every observation of a segmented store to fn,
// segment by segment in segment order. Within a domain, observations
// arrive week-ascending (each domain lives in exactly one segment).
func ForEachSegmented(dir string, fn func(Observation) error) error {
	man, err := ReadManifest(dir)
	if err != nil {
		return err
	}
	for s := 0; s < man.Segments; s++ {
		if err := ForEachSegment(dir, s, fn); err != nil {
			return err
		}
	}
	return nil
}
