//go:build !unix

package fstore

import (
	"errors"
	"os"
)

// mmapAvailable reports whether this platform serves snapshots via mmap;
// without it every snapshot is a heap buffer read through plain file I/O,
// so the store works (slower, RAM-bound) everywhere the CI matrix runs.
const mmapAvailable = false

func mmap(*os.File, int) ([]byte, error) { return nil, errors.ErrUnsupported }

func munmap([]byte) error { return nil }
