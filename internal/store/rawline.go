// Raw-line (v4 "bundle") segment streaming.
//
// A v4 segment holds records this package treats as opaque: each record is
// one '!'-marked line whose payload encoding belongs to the wexbundle
// package. The store still owns everything below the line — gzip members,
// commit boundaries, member-level FNV-1a checksums, checkpoint/salvage —
// so a bundle archive inherits the full v3 crash-safety story without the
// store knowing what a bundle record means.

package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// BundleMark is the first byte of every v4 record line. Observation
// records can never start with it ('=', '~', '^' are v3's; '{' and '#'
// began v1 and v2 records), so one sniffed byte keeps bundle segments and
// observation segments from ever being confused for each other.
const BundleMark = '!'

// RawLines is the pull-style reader of a bundle-format record stream: a
// caller can stop between any two records and come back later (wexbundle
// reads a segment a week at a time) with no goroutine parked in a callback.
type RawLines struct {
	name string
	br   *bufio.Reader
	// long accumulates records larger than the pooled reader's buffer —
	// recorded page bodies routinely exceed 64 KiB.
	long []byte
	// release is openGzip's; nil over already-decompressed bytes.
	release func()
}

// OpenRawLines opens a bundle-format segment file; the caller must Close it.
func OpenRawLines(path string) (*RawLines, error) {
	gz, release, err := openGzip(path)
	if err != nil {
		return nil, err
	}
	r := NewRawLines(path, gz)
	r.release = release
	return r, nil
}

// NewRawLines reads record lines from decompressed bytes (name words the
// errors): what OpenRawLines puts behind gzip, and what the fuzzers drive.
func NewRawLines(name string, r io.Reader) *RawLines {
	br := bufrPool.Get().(*bufio.Reader)
	br.Reset(r)
	return &RawLines{name: name, br: br}
}

// Next returns the next record line, stripped of the trailing newline but
// including the leading '!' mark, or io.EOF (bare) at a clean end of
// stream. The line's backing bytes are reused by the following call — the
// caller must consume them first, not retain them. A record missing its
// mark, or a stream cut mid-record (torn gzip member, missing final
// newline), is a corrupt-stream error.
func (r *RawLines) Next() ([]byte, error) {
	r.long = r.long[:0]
	for {
		chunk, err := r.br.ReadSlice('\n')
		switch {
		case err == nil:
			line := chunk[:len(chunk)-1]
			if len(r.long) > 0 {
				r.long = append(r.long, line...)
				line = r.long
			}
			if len(line) == 0 || line[0] != BundleMark {
				return nil, fmt.Errorf("store: %s: corrupt stream: record missing %q mark", r.name, string(BundleMark))
			}
			return line, nil
		case errors.Is(err, bufio.ErrBufferFull):
			r.long = append(r.long, chunk...)
		case errors.Is(err, io.EOF):
			if len(chunk) > 0 || len(r.long) > 0 {
				return nil, fmt.Errorf("store: %s: corrupt stream: torn record: %w", r.name, io.ErrUnexpectedEOF)
			}
			return nil, io.EOF
		default:
			return nil, fmt.Errorf("store: %s: corrupt stream: %w", r.name, err)
		}
	}
}

// Close releases the file and the pooled buffers; calling it twice is
// harmless, calling Next after it is not.
func (r *RawLines) Close() {
	if r.br == nil {
		return
	}
	bufrPool.Put(r.br)
	r.br = nil
	if r.release != nil {
		r.release()
	}
}

// ForEachRawLine streams every record line of a bundle-format segment file
// to fn, under RawLines.Next's contract for the line's bytes; fn's own
// errors pass through unwrapped.
func ForEachRawLine(path string, fn func(line []byte) error) error {
	r, err := OpenRawLines(path)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		line, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(line); err != nil {
			return err
		}
	}
}
