// Package fsx is the persistence layer's filesystem seam: the handful of
// file operations the run store (internal/store) and the daemon's state-dir
// housekeeping actually perform, behind an interface small enough to
// fault-inject.
//
// The paper's method is to measure how a pipeline degrades when one
// component misbehaves, and config.FaultConfig lets the simulator inject
// exactly that — a throttled PCIe link, a slow fault handler — without
// touching callers. The persistence layer deserves the same treatment:
// ENOSPC on an fsync'd write, EIO on a directory sync, a failing rename
// are real production events, and the only way to prove the daemon
// degrades instead of dying is to inject them deterministically. fsx.OS
// is the passthrough the production binaries use; fsx.Fault (fault.go)
// wraps any FS and fails scripted operations, the disk-side analogue of
// the hardware fault plan.
package fsx

import (
	"io"
	"io/fs"
	"os"
	"time"
)

// File is the open-file surface of the persistence layer: reads, writes,
// seeks, truncation, and durability (Sync).
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Name reports the file's path as opened/created.
	Name() string
	// Sync flushes the file's contents to stable storage.
	Sync() error
	// Truncate cuts the file to size bytes.
	Truncate(size int64) error
	// Stat reports the file's metadata (size checks).
	Stat() (fs.FileInfo, error)
}

// FS is the directory-level surface: everything the run store and the
// server's state-dir code touch. Implementations must be safe for
// concurrent use.
type FS interface {
	// OpenFile opens path with the os.OpenFile flag semantics.
	OpenFile(path string, flag int, perm fs.FileMode) (File, error)
	// ReadFile reads the whole file (store entry reads).
	ReadFile(path string) ([]byte, error)
	// CreateTemp creates a temp file in dir with the os.CreateTemp
	// pattern semantics (atomic store writes stage through it).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(path string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadDir lists a directory (GC scans).
	ReadDir(path string) ([]fs.DirEntry, error)
	// Stat reports file metadata.
	Stat(path string) (fs.FileInfo, error)
	// SyncDir fsyncs the directory entry at dir. A freshly created or
	// renamed file is only durable once its directory entry is too:
	// fsyncing the file flushes its contents, but the entry naming it
	// lives in the directory, and a crash before the directory reaches
	// stable storage can lose the file wholesale.
	SyncDir(dir string) error
	// Chtimes sets a file's access and modification times (GC age tests
	// and quarantine aging).
	Chtimes(path string, atime, mtime time.Time) error
}

// osFS is the production implementation: straight passthrough to the os
// package.
type osFS struct{}

// OS is the real filesystem. Production binaries use it; tests wrap it
// (or a temp-dir-rooted equivalent) in a Fault.
var OS FS = osFS{}

func (osFS) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                     { return os.Remove(path) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(path string) ([]fs.DirEntry, error)   { return os.ReadDir(path) }
func (osFS) Stat(path string) (fs.FileInfo, error)        { return os.Stat(path) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (osFS) Chtimes(path string, atime, mtime time.Time) error {
	return os.Chtimes(path, atime, mtime)
}
