// Package wexbundle records and replays web-execution bundles.
//
// A bundle is the re-auditable artifact a crawl today throws away: every
// fetched response — landing page and same-site scripts — archived raw
// (body bytes, response headers, status, coarse timing) per (domain,
// week), so that every downstream stage can re-run *from the archive*
// years later with a newer vulndb or a fixed fingerprinter and zero
// network (PAPERS.md "Web Execution Bundles: Reproducible, Accurate, and
// Archivable Web Measurements").
//
// Storage rides on the segmented store's v4 bundle format: records are
// '!'-marked JSON lines partitioned across segments by the same FNV-1a
// domain hash as observations, with the full v3 crash-safety machinery —
// member-level checksums, week-granular checkpoint/commit, resume after a
// kill without re-fetching committed weeks, and salvage.
//
// The record/replay seam is the crawler's transport: RecordingTransport
// wraps the real http.RoundTripper and archives every exchange;
// Bundle.Transport serves a mounted bundle and has no inner transport at
// all, so a replayed run cannot touch the network even by accident.
package wexbundle

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"clientres/internal/store"
)

// MetaName is the bundle metadata file inside a bundle directory.
const MetaName = "bundle.json"

// Meta is the run identity a bundle carries so replay tooling (cmd/analyze
// -bundle) can reconstruct the recorded run's configuration without the
// operator re-supplying it.
type Meta struct {
	Version int   `json:"version"`
	Domains int   `json:"domains,omitempty"`
	Weeks   int   `json:"weeks,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
	// BundleScan records whether the crawl fetched same-site scripts for
	// content fingerprinting; a replay must do the same to request the
	// same URLs.
	BundleScan bool `json:"bundle_scan,omitempty"`
}

// MetaVersion is the bundle.json format version this package writes.
const MetaVersion = 1

// Record is one archived fetch. Report-affecting state is Status and Body
// (exactly what the crawler hands the observation builder); Header and
// DurUS are evidence for later forensics, and Err preserves connection or
// mid-body failures so a replay reproduces them faithfully.
type Record struct {
	Week   int    `json:"week"`
	Domain string `json:"domain"`
	// Key is the replay-index key (see Key): the URL path for crawl-web
	// fetches, host+path for external URL audits.
	Key string `json:"key"`
	// Status is the HTTP status; 0 records a connection-level failure.
	Status int `json:"status,omitempty"`
	// Err preserves the fetch error verbatim: with Status 0 a failure
	// before any response, otherwise a mid-body read error after the
	// recorded Body prefix.
	Err    string      `json:"err,omitempty"`
	Header http.Header `json:"header,omitempty"`
	// Body is the raw response body. JSON strings require valid UTF-8 —
	// true of everything the study's web serves; binary assets would need
	// an encoding this format does not yet define.
	Body  string `json:"body,omitempty"`
	DurUS int64  `json:"dur_us,omitempty"`
}

// IsPage reports whether a record is a landing-page fetch of the crawled
// web (as opposed to a script asset or an external URL audit).
func (r Record) IsPage() bool {
	return strings.HasPrefix(r.Key, "/w/") && strings.HasSuffix(r.Key, "/")
}

// Key derives a record's replay-index key from a request URL. Crawl-web
// URLs — whose path is webserver's /w/{week}/{domain}/... scheme — key by
// path alone, so a bundle recorded against one loopback port replays
// against any base URL. Everything else (the audit service's external
// {"url":...} fetches) keys by host+path(+query).
func Key(u *url.URL) string {
	if strings.HasPrefix(u.Path, "/w/") {
		return u.Path
	}
	k := u.Host + u.Path
	if u.RawQuery != "" {
		k += "?" + u.RawQuery
	}
	return k
}

// splitKey recovers the (week, domain) a key belongs to: parsed from the
// /w/{week}/{domain}/... path for crawl-web keys, else week 0 with the
// request host as the domain (matching crawler.FetchURL's convention).
func splitKey(key, host string) (week int, domain string) {
	rest, ok := strings.CutPrefix(key, "/w/")
	if ok {
		if i := strings.IndexByte(rest, '/'); i > 0 {
			if w, err := strconv.Atoi(rest[:i]); err == nil {
				rest = rest[i+1:]
				if j := strings.IndexByte(rest, '/'); j > 0 {
					return w, rest[:j]
				}
			}
		}
	}
	return 0, host
}

// Options parameterizes a bundle writer.
type Options struct {
	// Segments is the segment-file count (min 1); record mode mirrors the
	// observation store's segment count so both archives shard alike.
	Segments int
	// Checkpoint enables the week-granular durability journal; CommitWeek
	// requires it.
	Checkpoint bool
	// Run is the identity stamped into the journal; Resume refuses a
	// checkpoint stamped by a different run.
	Run store.RunID
	// Meta is written to bundle.json at create time.
	Meta Meta
	// FS overrides the filesystem of the durable write path (nil = real);
	// the fault-injection tests substitute a failing one.
	FS store.FS
}

// Writer records fetches into a bundle directory. Append is safe for
// concurrent use (the segmented store locks per segment); CommitWeek and
// Close require the caller to quiesce appends, same as the store.
type Writer struct {
	sw  *store.SegmentedWriter
	dir string
}

// Create opens a new bundle directory for recording, clearing any residue
// of a previous run.
func Create(dir string, opt Options) (*Writer, error) {
	sw, err := store.CreateSegmentedWith(dir, opt.Segments, store.SegmentedOptions{
		Checkpoint: opt.Checkpoint,
		Run:        opt.Run,
		Format:     store.FormatBundle,
		FS:         opt.FS,
	})
	if err != nil {
		return nil, err
	}
	opt.Meta.Version = MetaVersion
	data, err := json.MarshalIndent(opt.Meta, "", "  ")
	if err == nil {
		err = store.AtomicWriteFile(opt.FS, filepath.Join(dir, MetaName), append(data, '\n'))
	}
	if err != nil {
		_ = sw.Abort()
		return nil, fmt.Errorf("wexbundle: %s: %w", dir, err)
	}
	return &Writer{sw: sw, dir: dir}, nil
}

// Resume reopens a checkpointed bundle at its last committed week,
// truncating any torn tail, and returns the checkpoint so the caller knows
// which weeks are already archived. A journal that is not a bundle's — the
// observation store recorded beside it, say — is refused untouched.
func Resume(dir string, opt Options) (*Writer, store.Checkpoint, error) {
	sw, ck, err := store.ResumeSegmented(dir, store.SegmentedOptions{
		Run: opt.Run, Format: store.FormatBundle, FS: opt.FS})
	if err != nil {
		return nil, store.Checkpoint{}, err
	}
	return &Writer{sw: sw, dir: dir}, ck, nil
}

// Append archives one record, routed to its domain's segment.
func (w *Writer) Append(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("wexbundle: %w", err)
	}
	line := make([]byte, 0, len(data)+1)
	line = append(line, store.BundleMark)
	line = append(line, data...)
	return w.sw.WriteRaw(rec.Domain, line)
}

// Count returns the number of records appended (including any committed
// prefix a Resume carried forward).
func (w *Writer) Count() int { return w.sw.Count() }

// CommitWeek makes everything recorded through week durable. A week the
// bundle already committed is a no-op rather than an error: the bundle
// commits before the observation store each week, so after a crash between
// the two commits a resumed run legitimately re-commits the bundle's last
// week (its records were already durable; re-fetched duplicates supersede
// them in the replay index).
func (w *Writer) CommitWeek(week int) error {
	if week+1 <= w.sw.CommittedWeeks() {
		return nil
	}
	return w.sw.CommitWeek(week)
}

// Close commits the manifest, sealing the bundle for mounting.
func (w *Writer) Close() error { return w.sw.Close() }

// Abort closes without flushing or writing a manifest — the crash path;
// the last checkpoint stays authoritative for resume and salvage.
func (w *Writer) Abort() error { return w.sw.Abort() }

// ReadMeta loads a bundle's metadata file. A missing file is the zero Meta
// — older bundles lack it and still replay — but one that is there and
// does not parse is a damaged archive: reading it as absent would replay a
// study of whatever shape the caller defaults to.
func ReadMeta(dir string) (Meta, error) {
	data, err := os.ReadFile(filepath.Join(dir, MetaName))
	if errors.Is(err, fs.ErrNotExist) {
		return Meta{}, nil
	}
	if err != nil {
		return Meta{}, fmt.Errorf("wexbundle: %s: %w", dir, err)
	}
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return Meta{}, fmt.Errorf("wexbundle: %s: corrupt %s: %w", dir, MetaName, err)
	}
	return m, nil
}
