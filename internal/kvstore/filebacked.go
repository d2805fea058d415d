package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"efind/internal/fstore"
)

// Freeze snapshots every partition's map into an fstore file under dir
// and flips the store to file-backed serving: lookups binary-search the
// mapped slot section, which the builder writes in key order, and
// materialize values from the data section, so misses never touch value
// pages. The maps stay resident as the source of truth — the snapshots
// are rebuildable caches in the FMC1 sense, and a corrupt snapshot
// (detected by checksum or decode) is rebuilt transparently instead of
// ever answering wrong data.
//
// Freeze after bulk loading; a Put after Freeze marks the key's
// partition stale, and the next lookup on it rebuilds the snapshot.
func (s *Store) Freeze(dir string) error {
	return s.FreezeOpts(dir, fstore.Options{})
}

// FreezeOpts is Freeze with explicit snapshot open options (tests force
// the NoMmap fallback through it).
func (s *Store) FreezeOpts(dir string, opts fstore.Options) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.openOpts = opts
	if s.snaps != nil {
		return fmt.Errorf("kvstore: %s is already file-backed", s.name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	snaps := make([]*fstore.Snapshot, len(s.parts))
	for p := range s.parts {
		snap, err := s.writePartition(dir, p)
		if err != nil {
			for _, sn := range snaps[:p] {
				if sn != nil {
					_ = sn.Close()
				}
			}
			return err
		}
		snaps[p] = snap
	}
	s.dir = dir
	s.snaps = snaps
	s.stale = make([]bool, len(s.parts))
	return nil
}

// writePartition renders partition p's map into its snapshot file (a cache
// write: a lookup rebuilds what fails validation) and returns the snapshot
// the write verified, to serve from. The builder sorts the entries, so the
// file's bytes do not depend on map order. Caller holds the write lock.
func (s *Store) writePartition(dir string, p int) (*fstore.Snapshot, error) {
	b := fstore.NewBuilder()
	s.generation++
	gen := s.generation
	for k, vs := range s.parts[p] {
		b.Add(k, gen, vs...)
	}
	return b.WriteSnapshot(s.partitionPath(dir, p), s.openOpts)
}

// partitionPath names partition p's snapshot file. Store names flow from
// user-facing job and index names, so they are made file-name safe and
// disambiguated by a name hash.
func (s *Store) partitionPath(dir string, p int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%08x-p%04d.fmc1", fstore.FileName(s.name), hashPartition(s.name, 1<<31), p))
}

// FileBacked reports whether lookups are served from fstore snapshots.
func (s *Store) FileBacked() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snaps != nil
}

// Rebuilds returns how many partition snapshots were rebuilt after
// corruption was detected or a post-freeze Put staled them.
func (s *Store) Rebuilds() int64 { return s.rebuilds.Load() }

// Close releases every partition mapping and returns the store to
// in-memory serving (the maps were the source of truth all along).
// Closing a store that was never frozen is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeAll()
}

func (s *Store) closeAll() (firstErr error) {
	for _, snap := range s.snaps {
		if err := snap.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.snaps, s.stale = nil, nil
	return firstErr
}

// get resolves one key against the active backend. File-backed misses
// touch only the slot section; a corrupt or stale snapshot is rebuilt
// under the write lock and the lookup retried against the fresh file.
// The read lock is held across the snapshot read: a rebuild unmaps the
// old snapshot, and a reader still inside it would fault.
func (s *Store) get(key string) (vals []string, ok bool, err error) {
	p := s.scheme.Fn(key)
	for rebuilt := false; ; rebuilt = true {
		s.mu.RLock()
		if s.snaps == nil {
			vals, ok = s.parts[p][key]
			s.mu.RUnlock()
			return vals, ok, nil
		}
		snap, stale := s.snaps[p], s.stale[p]
		if !stale {
			vals, ok, err = snap.Lookup(key)
		}
		s.mu.RUnlock()
		// Still corrupt right after a rebuild is an error, not a loop.
		if !stale && (err == nil || rebuilt || !errors.Is(err, fstore.ErrCorrupt)) {
			return vals, ok, err
		}
		if err := s.rebuildPartition(p, snap); err != nil {
			return nil, false, err
		}
	}
}

// rebuildPartition replaces partition p's snapshot with a fresh one
// built from its map. old identifies the snapshot the caller found
// wanting, so concurrent detectors rebuild once.
func (s *Store) rebuildPartition(p int, old *fstore.Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snaps == nil {
		return fmt.Errorf("kvstore: %s closed during rebuild", s.name)
	}
	if s.snaps[p] != old {
		return nil // somebody else already rebuilt it
	}
	// The old snapshot stays mapped until its replacement is in place: a
	// failed write leaves it stale or corrupt, so the next lookup retries,
	// rather than unmapped under a lookup.
	rebuilt, err := s.writePartition(s.dir, p)
	if err != nil {
		return err
	}
	s.rebuilds.Add(1)
	s.snaps[p] = rebuilt
	s.stale[p] = false
	return old.Close()
}
