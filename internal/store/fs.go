// Filesystem seam for the durability path.
//
// Every byte the store intends to survive a crash travels through the FS
// interface below: segment creation, record writes, week-boundary fsyncs,
// the atomic temp-file+fsync+rename commit of checkpoints and manifests.
// Production code uses the real filesystem (osFS); the fault-injection
// tests substitute an errfs that fails a chosen operation — short write,
// ENOSPC mid-segment, fsync error, crash-before-rename — and then prove
// the on-disk state is either fully committed or salvageable. The seam is
// the same discipline PR 3's chaos schedules established for the network,
// applied to the write path.

package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is the slice of *os.File the durable write path needs. Reads go
// through plain os.Open: crash-safety is a property of writes, and keeping
// the read path seam-free keeps it allocation-free.
type File interface {
	io.Writer
	io.Seeker
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
	// Truncate cuts the file to size bytes (the resume path's torn-tail
	// amputation).
	Truncate(size int64) error
	Close() error
}

// FS is the injectable filesystem the store writes through.
type FS interface {
	// OpenFile is os.OpenFile; the store uses it for segment files,
	// checkpoint/manifest temp files, and resume reopening.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath — the commit point
	// of every checkpoint and manifest write.
	Rename(oldpath, newpath string) error
	// Remove deletes a file, used to clear stale manifests and orphans.
	Remove(name string) error
	// SyncDir fsyncs a directory so renames and creations inside it are
	// durable, not just ordered.
	SyncDir(dir string) error
}

// osFS is the real filesystem.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// realFS returns fsys, defaulting nil to the real filesystem.
func realFS(fsys FS) FS {
	if fsys == nil {
		return osFS{}
	}
	return fsys
}

// atomicWriteFile commits data to path with the temp-file + fsync + rename
// discipline: a reader (or a post-crash salvage) sees either the previous
// complete content or the new complete content, never a torn mixture. The
// temp file lives in the same directory so the rename cannot cross
// filesystems, and the directory itself is fsynced after the rename so the
// commit survives power loss, not just process death.
func atomicWriteFile(fsys FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return fmt.Errorf("store: %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return fmt.Errorf("store: %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("store: %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("store: %s: %w", dir, err)
	}
	return nil
}

// AtomicWriteFile commits data to path atomically through fsys (nil = the
// real filesystem) with the same temp-file + fsync + rename + dir-fsync
// discipline checkpoints and manifests use — exported for sibling packages
// (wexbundle's metadata file) layering on the store's durability story.
func AtomicWriteFile(fsys FS, path string, data []byte) error {
	return atomicWriteFile(realFS(fsys), path, data)
}

// FNV-1a parameters — the checksum family of the member table and the
// ShardOf partition function.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// fnv1aUpdate folds b into a running FNV-1a state (start from fnvOffset32
// for a fresh sum) — the incremental form the member hasher needs.
func fnv1aUpdate(h uint32, b []byte) uint32 {
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= fnvPrime32
	}
	return h
}
