// Package store persists crawl observations.
//
// The paper's dataset is 157.2M landing pages over 201 weeks; keeping
// observations as raw HTML would be enormous, so the pipeline reduces every
// page to an Observation — the facts the analyses consume — and stores them
// as gzip-compressed record lines in a segmented store directory (see
// segmented.go), each domain's weeks delta-encoded against the week before.
// Readers stream; nothing requires the dataset to fit in memory.
package store

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
)

// LibRecord is one detected library inclusion on a page.
type LibRecord struct {
	Slug    string `json:"slug"`
	Version string `json:"version,omitempty"`
	Known   bool   `json:"known,omitempty"`
	// External marks remote inclusion; Host is the serving host then.
	External bool   `json:"ext,omitempty"`
	Host     string `json:"host,omitempty"`
	// SRI marks an integrity attribute; Crossorigin its companion value.
	SRI         bool   `json:"sri,omitempty"`
	Crossorigin string `json:"crossorigin,omitempty"`
	// Sig marks a detection recovered from script content (a bundle's
	// signature scan) rather than from a <script src> URL.
	Sig bool `json:"sig,omitempty"`
}

// FlashRecord is the Flash embedding state of a page.
type FlashRecord struct {
	ScriptAccessParam bool `json:"sap,omitempty"`
	Always            bool `json:"always,omitempty"`
	ViaSWFObject      bool `json:"swfobject,omitempty"`
	// Visible is false when every Flash embed is hidden/off-screen.
	Visible bool `json:"visible,omitempty"`
}

// ResourceFlags marks which of the top-8 resource types a page used.
type ResourceFlags struct {
	JavaScript   bool `json:"js,omitempty"`
	CSS          bool `json:"css,omitempty"`
	Favicon      bool `json:"favicon,omitempty"`
	ImportedHTML bool `json:"imported,omitempty"`
	XML          bool `json:"xml,omitempty"`
	SVG          bool `json:"svg,omitempty"`
	Flash        bool `json:"flash,omitempty"`
	AXD          bool `json:"axd,omitempty"`
}

// Observation is everything recorded about one (domain, week) fetch.
type Observation struct {
	Domain string `json:"domain"`
	Rank   int    `json:"rank"`
	Week   int    `json:"week"`
	// Status is the HTTP status; 0 records a connection-level failure.
	Status int `json:"status"`
	// Bytes is the page size — the paper's 400-byte empty-page filter
	// needs it.
	Bytes int `json:"bytes"`
	// Country is the operator country (used by the Flash case study).
	Country string `json:"country,omitempty"`

	HasJS     bool          `json:"hasjs,omitempty"`
	WordPress string        `json:"wordpress,omitempty"`
	Libs      []LibRecord   `json:"libs,omitempty"`
	Flash     *FlashRecord  `json:"flashinfo,omitempty"`
	Resources ResourceFlags `json:"resources,omitempty"`
}

// OK reports whether the fetch produced a usable page: HTTP 200 and above
// the paper's 400-byte empty-page threshold.
func (o Observation) OK() bool { return o.Status == 200 && o.Bytes >= 400 }

// Lib returns the record for a library slug, if present.
func (o Observation) Lib(slug string) (LibRecord, bool) {
	for _, l := range o.Libs {
		if l.Slug == slug {
			return l, true
		}
	}
	return LibRecord{}, false
}

// Record formats. The numbers double as manifest versions: a segmented
// store's manifest.Version is the format its segments are encoded in.
//
//	FormatDelta  (v3): per-domain delta streams ('='/'~'/'^' records, see
//	                   delta.go) with whole-member FNV-1a checksums kept in
//	                   the checkpoint/manifest member table (members.go).
//	FormatBundle (v4): raw '!'-marked record lines whose content is opaque
//	                   to this package (the wexbundle package owns the
//	                   payload encoding); durability, checkpointing, member
//	                   checksums, and salvage behave exactly as v3.
//
// These are the only formats read or written; the first decompressed byte
// of a stream names its format. A v4 stream is not an observation store
// and decodeStream refuses it loudly instead of misparsing it. Versions 1
// and 2 were archives of earlier releases and are refused as legacy.
const (
	FormatDelta  = 3
	FormatBundle = 4
)

// legacyToolsCommit is the last commit whose tools read v1 and v2
// archives: its `fsck -repair` rewrites them as v3.
const legacyToolsCommit = "9af76ff"

// errLegacy marks a v1 or v2 stream, manifest or journal. Every path that
// modifies a store checks for it before it touches a file, so a legacy
// archive is refused exactly as it lies on disk.
var errLegacy = errors.New("archive of an earlier release")

// legacyFormat is the one refusal of a v1 or v2 archive: it names the
// format, the commit whose tools convert it, and where the recipe is.
func legacyFormat(path string, version int) error {
	name := "v1 (plain JSON lines)"
	if version == 2 {
		name = "v2 (framed records)"
	}
	return fmt.Errorf("store: %s: format %s is an %w, which this release does not read — "+
		"convert it with cmd/fsck of commit %s (README, \"Archives of earlier releases\")",
		path, name, errLegacy, legacyToolsCommit)
}

// formatOfMark returns the format of a stream whose first decompressed
// byte is mark — the one dispatch decodeStream and sniffFormat share.
func formatOfMark(path string, mark byte) (int, error) {
	switch mark {
	case fullMark, sameMark, deltaMark:
		return FormatDelta, nil
	case BundleMark:
		return FormatBundle, nil
	case '{': // a JSON observation: v1
		return 0, legacyFormat(path, 1)
	case '#': // a record frame header: v2
		return 0, legacyFormat(path, 2)
	}
	return 0, fmt.Errorf("store: %s: corrupt stream: bad record mark %q", path, mark)
}

// Writer streams records to one segment file. Write, WriteRaw and Count
// are safe for concurrent use (collection shards share one sink); commit
// and Close need the writes quiesced.
//
// A delta (v3) writer encodes each domain's week N as a diff against its
// week N-1; a bundle (v4) writer takes raw lines. Either way the file is a
// concatenation of gzip members, each checksummed whole: commit (the
// week-boundary durability point) finishes the open member and fsyncs, and
// the next write starts a fresh member, so a crash never tears a committed
// member.
type Writer struct {
	mu  sync.Mutex
	f   File
	gz  *gzip.Writer
	buf *bufio.Writer
	n   int
	// format is FormatDelta or FormatBundle.
	format int
	// open tracks whether a gzip member is in progress; commit closes the
	// member and clears it, the next write resets gz and sets it.
	open bool
	// mh sits between gz and f accounting the member in progress; members
	// accumulates the committed member table; lastN is the record count at
	// the last member boundary.
	mh      memberHasher
	members []Member
	lastN   int

	// Delta (v3) state: prev is the per-domain dictionary the encoder diffs
	// against, and hdr the scratch a same-record prefix "~<week digits> "
	// (at most 12 bytes) is built in, so the common record never allocates.
	enc  *json.Encoder
	prev map[string]Observation
	hdr  [16]byte
}

// Pools for the pieces every writer and reader re-creates: gzip
// compressor/decompressor state (the dominant allocation — the flate
// tables alone are hundreds of KiB) and the 64 KiB scan/flush buffers.
// All of them support Reset, so recycling is free of correctness risk.
var (
	gzwPool  = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}
	gzrPool  = sync.Pool{} // holds *gzip.Reader; empty Get means "make one"
	bufwPool = sync.Pool{New: func() any {
		return bufio.NewWriterSize(io.Discard, 1<<16)
	}}
	bufrPool = sync.Pool{New: func() any {
		return bufio.NewReaderSize(nil, 1<<16)
	}}
)

func newGzipReader(r io.Reader) (*gzip.Reader, error) {
	if v := gzrPool.Get(); v != nil {
		gz := v.(*gzip.Reader)
		if err := gz.Reset(r); err != nil {
			gzrPool.Put(gz)
			return nil, err
		}
		return gz, nil
	}
	return gzip.NewReader(r)
}

// openGzip opens a segment file behind a pooled gzip reader; release
// returns the reader to its pool and closes the file.
func openGzip(path string) (gz *gzip.Reader, release func(), err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if gz, err = newGzipReader(f); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return gz, func() { gzrPool.Put(gz); f.Close() }, nil
}

// newWriter wraps an open segment file positioned at a member boundary,
// count records and the given committed members in.
func newWriter(f File, format, count int, members []Member) *Writer {
	w := &Writer{f: f, format: format, n: count, lastN: count,
		gz: gzwPool.Get().(*gzip.Writer), buf: bufwPool.Get().(*bufio.Writer),
		members: append([]Member(nil), members...)}
	w.mh.Reset(f)
	w.buf.Reset(w.gz)
	if format == FormatDelta {
		w.prev = make(map[string]Observation)
		w.enc = json.NewEncoder(w.buf)
	}
	return w
}

// createFile opens a new segment file through fsys, truncating any
// existing one. Its first member opens at once, so that a segment nothing
// is ever written to still holds one (empty) member, not zero bytes no
// gzip reader accepts.
func createFile(fsys FS, path string, format int) (*Writer, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := newWriter(f, format, 0, nil)
	w.reopenMember()
	return w, nil
}

// resumeFile reopens a segment at a committed byte offset: the torn tail
// past the offset is amputated, the record count restored, and the next
// Write starts a fresh gzip member exactly at the commit boundary. The
// resumed writer carries the committed member table forward and starts
// with an empty domain dictionary, so the first post-resume record of
// every domain is a full record — the decoder needs no cross-member
// history beyond what the stream itself establishes.
func resumeFile(fsys FS, path string, offset int64, count int, format int, members []Member) (*Writer, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil && size < offset {
		err = fmt.Errorf("store: %s: %d bytes on disk, checkpoint committed %d — committed data is missing", path, size, offset)
	}
	if err == nil {
		err = f.Truncate(offset)
	}
	if err == nil {
		_, err = f.Seek(offset, io.SeekStart)
	}
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return newWriter(f, format, count, members), nil
}

// Write appends one observation. Failed writes are not counted: Count
// reflects only observations the encoder accepted.
func (w *Writer) Write(obs Observation) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.format == FormatBundle {
		return fmt.Errorf("store: Write on a bundle-format writer; bundles take WriteRaw")
	}
	w.reopenMember()
	return w.writeDelta(obs)
}

// reopenMember starts a new gzip member at the committed boundary on the
// first write after a commit (or a resume).
func (w *Writer) reopenMember() {
	if !w.open {
		w.gz.Reset(&w.mh)
		w.open = true
	}
}

// WriteRaw appends one raw record line (without its trailing newline) to a
// bundle-format (v4) writer. The line must begin with the '!' bundle mark —
// the byte the read-side format sniff dispatches on — and must contain no
// newline; the wexbundle package, which owns the payload encoding,
// guarantees both by construction (JSON never embeds a raw newline).
func (w *Writer) WriteRaw(line []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.format != FormatBundle {
		return fmt.Errorf("store: WriteRaw on a format-%d writer; only bundles take raw records", w.format)
	}
	w.reopenMember()
	if _, err := w.buf.Write(line); err != nil {
		return err
	}
	if err := w.buf.WriteByte('\n'); err != nil {
		return err
	}
	w.n++
	return nil
}

// writeDelta appends a v3 record, diffing against the domain's previous
// observation. The common longitudinal case — a page unchanged since last
// week — emits a "~<week> <domain>" line without touching encoding/json;
// a changed page emits only its changed fields; a first sighting (or the
// first record after a resume reset the dictionary) emits a full record.
// The dictionary entry is only updated when the observation changed, so
// the fast path stays allocation-free. It is keyed and named as the
// reader's (readerName), so the writer diffs against the state the reader
// will hold.
func (w *Writer) writeDelta(obs Observation) error {
	name := readerName(obs.Domain)
	prev, seen := w.prev[name]
	switch {
	case seen && obs.Week >= 0 && obs.Week <= 1<<30 &&
		sameExceptWeek(&prev, &obs) && domainInline(obs.Domain):
		// The raw line encoding carries only non-negative in-range weeks
		// and newline-free domains; anything else (hostile or test input,
		// not real crawl data) takes the JSON-escaped delta path below.
		hdr := append(w.hdr[:0], sameMark)
		hdr = strconv.AppendInt(hdr, int64(obs.Week), 10)
		hdr = append(hdr, ' ')
		if _, err := w.buf.Write(hdr); err != nil {
			return err
		}
		if _, err := w.buf.WriteString(obs.Domain); err != nil {
			return err
		}
		if err := w.buf.WriteByte('\n'); err != nil {
			return err
		}
	case seen:
		d := diffObs(&prev, &obs)
		if err := w.buf.WriteByte(deltaMark); err != nil {
			return err
		}
		if err := w.enc.Encode(&d); err != nil {
			return err
		}
		w.remember(name, obs)
	default:
		if err := w.buf.WriteByte(fullMark); err != nil {
			return err
		}
		if err := w.enc.Encode(obs); err != nil {
			return err
		}
		w.remember(name, obs)
	}
	w.n++
	return nil
}

// remember makes obs, under the reader's name for its domain, the state
// the domain's next record is diffed against.
func (w *Writer) remember(name string, obs Observation) {
	obs = canonObs(obs).Clone()
	obs.Domain = name
	w.prev[name] = obs
}

// Count returns the number of observations written so far.
func (w *Writer) Count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// commit makes everything written so far durable and self-delimiting: the
// buffered bytes are flushed, the open gzip member is finished (its footer
// makes the member independently decodable), and the file is fsynced. It
// returns the committed byte offset — the truncation point a resume or a
// salvage restores the file to. Writing may continue afterwards; the next
// Write opens a new gzip member.
func (w *Writer) commit() (int64, error) {
	if err := w.buf.Flush(); err != nil {
		return 0, err
	}
	if w.open {
		if err := w.gz.Close(); err != nil {
			return 0, err
		}
		w.open = false
		// The end of a member is also the checksum boundary: its compressed
		// length, FNV-1a sum, and record count join the member table and
		// the hasher restarts for the next member.
		w.members = append(w.members, Member{Len: w.mh.n, Sum: w.mh.sum, Records: w.n - w.lastN})
		w.lastN = w.n
		w.mh.Reset(w.f)
	}
	if err := w.f.Sync(); err != nil {
		return 0, err
	}
	return w.f.Seek(0, io.SeekCurrent)
}

// Close commits what was written and closes the file. Closing (or aborting)
// twice is a no-op: a failed SegmentedWriter.Close is followed by Abort,
// which must not return already-recycled state to the pools again.
func (w *Writer) Close() error {
	if w.buf == nil {
		return nil
	}
	_, err := w.commit()
	if cerr := w.abort(); err == nil {
		err = cerr
	}
	return err
}

// abort closes the file without flushing buffered data — the simulated-
// crash path: whatever the OS already has (everything through the last
// commit, plus any incidentally flushed tail) stays on disk, everything
// still buffered in user space is lost, exactly as a SIGKILL would leave
// it. The pooled pieces go back exactly once.
func (w *Writer) abort() error {
	if w.buf == nil {
		return nil
	}
	err := w.f.Close()
	bufwPool.Put(w.buf)
	gzwPool.Put(w.gz)
	w.buf, w.gz = nil, nil
	return err
}

// ForEach streams every observation of a store to fn, in file order. fn
// returning an error aborts the scan with that error. The path may be a
// store directory (see CreateSegmented), read segment by segment in
// segment order, or a single gzip stream: one segment file of a store.
// Read-side failures (missing file, truncated or corrupt gzip, malformed
// records, an archive of an earlier release) come back wrapped with a
// "store:" prefix naming the file; fn's own errors pass through unwrapped.
//
// The Observation handed to fn is immutable and may be retained: the
// decoder never writes a Libs slice or a Flash record after handing it
// out, though later observations of the same domain may share them, so fn
// must not mutate them either (Clone gives a copy of its own).
func ForEach(path string, fn func(Observation) error) error {
	// Any directory is read as a segmented store, so that one without a
	// manifest fails in ReadManifest, which says why and what to do.
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return ForEachSegmented(path, fn)
	}
	return forEachFile(path, fn)
}

// forEachFile scans one gzip stream, one segment file, under ForEach's
// contract: fn may retain the observations and must not mutate them.
func forEachFile(path string, fn func(Observation) error) error {
	gz, release, err := openGzip(path)
	if err != nil {
		return err
	}
	defer release()
	return decodeStream(gz, path, fn)
}

// decodeStream decodes one gzip-decompressed stream, dispatching on its
// first byte: a v3 delta stream decodes, anything else is refused — a v4
// bundle stream, an archive of an earlier release, or bytes of no format
// at all. Decode-side errors are wrapped with the store prefix and path;
// callback errors are returned as-is. A stream cut mid-observation
// (truncated gzip footer, severed connection) surfaces as
// io.ErrUnexpectedEOF inside the wrap, so callers can distinguish
// corruption from a clean end of stream.
func decodeStream(r io.Reader, path string, fn func(Observation) error) error {
	br := bufrPool.Get().(*bufio.Reader)
	br.Reset(r)
	defer bufrPool.Put(br)
	first, err := br.Peek(1)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil // empty stream: a store that committed zero records
		}
		return fmt.Errorf("store: %s: corrupt stream: %w", path, err)
	}
	format, err := formatOfMark(path, first[0])
	if err != nil {
		return err
	}
	if format == FormatBundle {
		return fmt.Errorf("store: %s: web-execution bundle (v4) segment — not an observation store; replay it with wexbundle", path)
	}
	return decodeDelta(br, path, fn)
}

// ReadAll loads a whole observation file into memory. Intended for tests
// and small datasets; large runs should use ForEach.
func ReadAll(path string) ([]Observation, error) {
	var out []Observation
	err := ForEach(path, func(o Observation) error {
		out = append(out, o)
		return nil
	})
	return out, err
}
