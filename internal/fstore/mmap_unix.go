//go:build unix

package fstore

import (
	"os"
	"syscall"
)

// mmapAvailable reports whether this platform serves snapshots via mmap.
const mmapAvailable = true

// mmap maps the first size (> 0) bytes of f read-only.
func mmap(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmap(b []byte) error { return syscall.Munmap(b) }
