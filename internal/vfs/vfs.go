// Package vfs is the narrow filesystem seam shared by the durability
// layer: the write-ahead log (internal/wal) and the snapshot store's
// atomic writer (fstore.WriteFileFS) perform every mutation through an
// FS value, so chaos.FaultFS can interpose deterministic storage faults
// — torn writes, lying short writes, ENOSPC, rename failures — without
// either package knowing it is under test. The interface is deliberately
// minimal: just the operations the temp+rename atomic-write idiom and an
// append-only journal need.
package vfs

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is one writable file handle.
type File interface {
	io.Writer
	// Sync flushes the file's buffered writes to stable storage.
	Sync() error
	// Close releases the handle.
	Close() error
	// Name returns the path the file was opened under.
	Name() string
}

// FS is the mutation surface of a directory tree. Reads go through
// ReadFile/ReadDir so crash-image tooling can copy state; writes go
// through CreateTemp/OpenAppend so fault injection sees every byte
// before it becomes durable.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// CreateTemp creates a new temporary file in dir (pattern as in
	// os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// ReadFile returns the full contents of path.
	ReadFile(path string) ([]byte, error)
	// ReadDir returns the names (not paths) of dir's entries, sorted.
	ReadDir(dir string) ([]string, error)
}

// OS is the real filesystem.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// CreateTemp implements FS.
func (OS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// OpenAppend implements FS.
func (OS) OpenAppend(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(path string) error { return os.Remove(path) }

// ReadFile implements FS.
func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// ReadDir implements FS.
func (OS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// WriteFileAtomic writes what fill produces to path via the temp+rename
// idiom: readers of path never observe a partial file, and a crash leaves
// either the old contents or the new. The temp file (named after pattern,
// as in os.CreateTemp) is fsynced before the rename when sync is true. A
// non-nil check inspects the closed temp file before the rename commits
// it; its error abandons the write like any other failure.
func WriteFileAtomic(fs FS, path, pattern string, sync bool, fill func(w io.Writer) error, check func(tmpName string) error) error {
	tmp, err := fs.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return err
	}
	name := tmp.Name()
	err = fill(tmp)
	if err == nil && sync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil && check != nil {
		err = check(name)
	}
	if err == nil {
		err = fs.Rename(name, path)
	}
	if err != nil {
		fs.Remove(name)
	}
	return err
}
