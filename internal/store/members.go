// Member-level integrity: the v3 checksum layout.
//
// v2 interleaved a length+FNV-1a frame with every record, which bought
// record-granular verification at the cost of poisoning deflate's match
// search (~1.9x archive size vs v1 measured). v3 moves the checksum to a
// coarser, compression-invisible granularity: the unit of durability. A
// commit finishes the open gzip member and fsyncs, and the FNV-1a checksum
// covers the member's *compressed* bytes — computed by a hasher sitting
// between gzip.Writer and the file, so it costs one pass over the (much
// smaller) compressed stream and never touches the compressor's input. The
// member table (offset-ordered lengths, sums, record counts) lives in
// checkpoint.json while a run is live and in manifest.json once it closes;
// verification re-hashes the raw file against the table without
// decompressing anything, and checkpoint salvage proves the committed
// prefix byte-exact before trusting it.

package store

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Member describes one committed gzip member of a v3 segment: its
// compressed length, the FNV-1a sum of those compressed bytes, and how
// many records it decodes to. Members are stored in file order, so the
// offset of member k is the sum of lengths 0..k-1.
type Member struct {
	Len     int64  `json:"len"`
	Sum     uint32 `json:"sum"`
	Records int    `json:"records"`
}

// memberHasher sits between the gzip compressor and the segment file,
// accumulating the FNV-1a sum and length of the compressed bytes of the
// member in progress. Reset starts the next member's accounting.
type memberHasher struct {
	w   io.Writer
	sum uint32
	n   int64
}

func (h *memberHasher) Reset(w io.Writer) {
	h.w = w
	h.sum = fnvOffset32
	h.n = 0
}

func (h *memberHasher) Write(p []byte) (int, error) {
	n, err := h.w.Write(p)
	h.sum = fnv1aUpdate(h.sum, p[:n])
	h.n += int64(n)
	return n, err
}

// VerifyMemberTable re-hashes a segment file against its member table:
// every member's compressed bytes must be present with the recorded sum,
// and nothing may follow the last member. It reads raw bytes only — no
// decompression — so it is cheap enough to run before any decode is
// trusted (the checkpoint-salvage authority does exactly that, and so does
// wexbundle when it mounts a bundle).
func VerifyMemberTable(path string, members []Member) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	buf := make([]byte, 32<<10)
	for k, m := range members {
		if m.Len <= 0 || m.Records < 0 {
			return fmt.Errorf("store: %s: member table entry %d invalid (%d bytes, %d records)",
				filepath.Base(path), k, m.Len, m.Records)
		}
		h := uint32(fnvOffset32)
		remain := m.Len
		for remain > 0 {
			chunk := buf
			if remain < int64(len(chunk)) {
				chunk = chunk[:remain]
			}
			n, err := io.ReadFull(f, chunk)
			if err != nil {
				return fmt.Errorf("store: %s: member %d truncated (%d of %d bytes missing)",
					filepath.Base(path), k, remain-int64(n), m.Len)
			}
			h = fnv1aUpdate(h, chunk[:n])
			remain -= int64(n)
		}
		if h != m.Sum {
			return fmt.Errorf("store: %s: member %d checksum mismatch (table %08x, data %08x)",
				filepath.Base(path), k, m.Sum, h)
		}
	}
	if n, _ := f.Read(buf[:1]); n > 0 {
		return fmt.Errorf("store: %s: trailing bytes past the member table", filepath.Base(path))
	}
	return nil
}

// sniffFormat reports the record format of a segment file by its first
// decompressed byte, with decodeStream's dispatch: FormatDelta or
// FormatBundle, the legacy refusal of a v1 or v2 segment, or a corrupt
// stream. An empty stream (a store that committed zero records) reports 0.
func sniffFormat(path string) (int, error) {
	gz, release, err := openGzip(path)
	if err != nil {
		return 0, err
	}
	defer release()
	var first [1]byte
	if _, err := io.ReadFull(gz, first[:]); err != nil {
		if err == io.EOF {
			return 0, nil
		}
		return 0, fmt.Errorf("store: %s: %w", path, err)
	}
	return formatOfMark(path, first[0])
}

// countGzipMembers counts the complete gzip members of a file — the
// committed durability units of a multi-member segment. The count covers
// the intact prefix; a torn or corrupt tail returns the error alongside
// however many members preceded it.
func countGzipMembers(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	gz, err := gzip.NewReader(br)
	if err != nil {
		if err == io.EOF {
			return 0, nil // zero-byte file: no members at all
		}
		return 0, fmt.Errorf("store: %s: %w", path, err)
	}
	defer gz.Close()
	gz.Multistream(false)
	count := 0
	for {
		if _, err := io.Copy(io.Discard, gz); err != nil {
			return count, fmt.Errorf("store: %s: member %d: %w", path, count, err)
		}
		count++
		err := gz.Reset(br)
		if err == io.EOF {
			return count, nil
		}
		if err != nil {
			return count, fmt.Errorf("store: %s: after member %d: %w", path, count, err)
		}
		gz.Multistream(false)
	}
}
