// Package dfs is an in-memory stand-in for HDFS: files are sequences of
// replicated chunks with locality metadata. MapReduce input splits map
// one-to-one onto chunks, and the scheduler uses chunk replica locations
// for data-locality placement, exactly the information the paper's cost
// model consumes (split locality and the f-per-byte materialization cost).
package dfs

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"unsafe"

	"efind/internal/fstore"
	"efind/internal/sim"
)

// Record is one key/value record stored in a file. The MapReduce layer
// reads chunks record by record.
type Record struct {
	Key   string
	Value string
}

// Size returns the payload size in bytes of the record (key + value plus a
// small framing overhead, mirroring SequenceFile framing).
func (r Record) Size() int { return len(r.Key) + len(r.Value) + 8 }

// Chunk is one replicated block of a file. Record payloads live either
// in memory (the default) or in the file's fstore snapshot when the
// namespace has a backing directory; metadata (size, placement, shard)
// is always resident.
type Chunk struct {
	recs []Record // resident payload; nil when file-backed
	n    int      // record count, valid under both backings
	snap *fstore.Snapshot
	slot int // this chunk's slot in snap

	Bytes    int
	Replicas []sim.NodeID
	// Shard is the producing reducer/shard index for files written with
	// CreateSharded, or -1 for directly created files. Large shards are
	// split into several chunks that all carry the same Shard, so
	// downstream jobs regain full map parallelism while shard-affine
	// placement (index locality) still works.
	Shard int
}

// NumRecords returns the chunk's record count without touching payload
// bytes (file-backed, this is slot-section metadata only).
func (c *Chunk) NumRecords() int { return c.n }

// View calls fn once per record, in order, with key and value as
// read-only views valid only until fn returns: an in-memory chunk lends
// its record strings, a file-backed one the snapshot's mapping, so
// nothing is copied. A snapshot that fails its decode checks surfaces an
// error wrapping fstore.ErrCorrupt rather than ever yielding wrong
// records — unlike an index snapshot there is no resident copy to
// rebuild from. An error from fn stops the walk.
func (c *Chunk) View(fn func(key, value []byte) error) error {
	if c.snap == nil {
		for _, r := range c.recs {
			if err := fn(stringView(r.Key), stringView(r.Value)); err != nil {
				return err
			}
		}
		return nil
	}
	var key []byte
	n := 0
	err := c.snap.View(c.slot, func(v []byte) error {
		if n++; n%2 == 1 {
			key = v
			return nil
		}
		return fn(key, v)
	})
	if err == nil && n != 2*c.n {
		err = fmt.Errorf("%w: chunk holds %d strings, want %d for %d records", fstore.ErrCorrupt, n, 2*c.n, c.n)
	}
	return err
}

// stringView lends s as bytes without copying, for reading only.
func stringView(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// Records returns the chunk's records for a reader that keeps them (map
// input, index builds): the resident slice in memory, a copy made under
// View's checks when file-backed.
func (c *Chunk) Records() ([]Record, error) {
	if c.snap == nil {
		return c.recs, nil
	}
	out := make([]Record, 0, c.n)
	err := c.View(func(key, value []byte) error {
		out = append(out, Record{Key: string(key), Value: string(value)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// File is an immutable, chunked, replicated file.
type File struct {
	Name   string
	Chunks []*Chunk

	snap *fstore.Snapshot // non-nil when the payload is file-backed
	path string           // snapshot file, for Remove cleanup
}

// FileBacked reports whether the file's record payloads live in an
// fstore snapshot rather than in memory.
func (f *File) FileBacked() bool { return f.snap != nil }

// Bytes returns the total payload size of the file.
func (f *File) Bytes() int {
	total := 0
	for _, c := range f.Chunks {
		total += c.Bytes
	}
	return total
}

// Records returns the total record count of the file.
func (f *File) Records() int {
	total := 0
	for _, c := range f.Chunks {
		total += c.n
	}
	return total
}

// All returns every record of the file in chunk order. Intended for tests
// and result collection, not for the data path; a file-backed chunk that
// fails its decode checks panics here (the data path reads through
// Chunk.Records and gets the error instead).
func (f *File) All() []Record {
	out := make([]Record, 0, f.Records())
	for _, c := range f.Chunks {
		recs, err := c.Records()
		if err != nil {
			panic(fmt.Sprintf("dfs: reading %s: %v", f.Name, err))
		}
		out = append(out, recs...)
	}
	return out
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Fingerprint digests the file's records — what the job service journals
// as the durable stand-in for an output a recovered coordinator cannot
// reproduce, and what the experiments compare outputs by: the wrapping
// sum of one well-mixed 64-bit hash per record, plus the record count. It
// is independent of record order, so serial and parallel executors agree
// without a sort; a dropped, duplicated or altered record changes it.
// Records are hashed in place through Chunk.View, and a chunk that fails
// its decode checks is an error, never a fingerprint. A nil or empty file
// fingerprints to 0.
func (f *File) Fingerprint() (uint64, error) {
	if f == nil {
		return 0, nil
	}
	var n, sum uint64
	for _, c := range f.Chunks {
		err := c.View(func(key, value []byte) error {
			// The value's CRC continues the key's; the key's own CRC and
			// length pin where one ends and the other starts.
			kc := crc32.Update(0, castagnoli, key)
			h := uint64(kc)<<32 | uint64(crc32.Update(kc, castagnoli, value))
			h ^= uint64(len(key)) * 0x9e3779b97f4a7c15
			// murmur3 finalizer, so sums of CRCs do not cancel structurally.
			h ^= h >> 33
			h *= 0xff51afd7ed558ccd
			h ^= h >> 33
			h *= 0xc4ceb9fe1a85ec53
			h ^= h >> 33
			n++
			sum += h
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("dfs: fingerprinting %s: %w", f.Name, err)
		}
	}
	if n == 0 {
		return 0, nil
	}
	// The top bit keeps a non-empty output apart from 0 and gives every
	// fingerprint one encoded width, whatever the records hash to.
	return (sum + n*0x9e3779b97f4a7c15) | 1<<63, nil
}

// FS is the namespace: a set of named files plus the cluster whose nodes
// hold replicas.
type FS struct {
	mu      sync.Mutex // guards the name table and the backing configuration, never I/O
	cluster *sim.Cluster
	files   map[string]*File // a nil file is a name reserved by a create in flight
	// ChunkTarget is the split size in bytes (HDFS default 64 MB; tests and
	// experiments usually shrink it so jobs have multiple waves).
	ChunkTarget int
	// Replication is the replica count per chunk (HDFS default 3).
	Replication int

	// backing, when set, makes newly created files persist their record
	// payloads into fstore snapshots under that directory (see SetBacking).
	backing    string
	opts       fstore.Options
	seq        int
	persisting func(name string) // test seam: called, unlocked, before a file is persisted
}

// New creates an empty file system on the cluster with the paper's
// defaults: 64 MB chunks, 3 replicas.
func New(cluster *sim.Cluster) *FS {
	return &FS{
		cluster:     cluster,
		files:       make(map[string]*File),
		ChunkTarget: 64 << 20,
		Replication: 3,
	}
}

// Cluster returns the cluster this file system is placed on.
func (fs *FS) Cluster() *sim.Cluster { return fs.cluster }

// SetBacking switches the namespace to file-backed mode: every file
// created from here on stores its record payloads in one fstore snapshot
// per file under dir, and chunks decode records from the mapped data
// section on demand. Files created earlier stay in memory. The chunking,
// placement, and metadata are identical either way, so jobs behave
// bit-identically modulo wall-clock time.
func (fs *FS) SetBacking(dir string) error {
	return fs.SetBackingOpts(dir, fstore.Options{})
}

// SetBackingOpts is SetBacking with explicit snapshot open options
// (tests force the NoMmap fallback through it).
func (fs *FS) SetBackingOpts(dir string, opts fstore.Options) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fs.backing, fs.opts = dir, opts
	return nil
}

// Close releases every file-backed snapshot mapping. The namespace is
// done after Close: file-backed payloads are no longer readable. Closing
// an all-in-memory namespace is a no-op.
func (fs *FS) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var firstErr error
	for _, f := range fs.files {
		if err := f.release(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// release closes a file-backed file's mapping and unbinds its chunks.
func (f *File) release() error {
	if f == nil || f.snap == nil {
		return nil
	}
	err := f.snap.Close()
	f.snap = nil
	for _, c := range f.Chunks {
		c.snap = nil
	}
	return err
}

// persist renders f's chunk payloads into one snapshot file at path — a
// cache write: nothing reopens a payload after a crash — and rebinds every
// chunk to it, dropping the resident slices. Called without the lock.
func (f *File) persist(path string, opts fstore.Options) error {
	b := fstore.NewBuilder()
	keys := make([]string, len(f.Chunks)) // named once, for the write and for the reopen
	for i, c := range f.Chunks {
		recs := c.recs
		keys[i] = chunkKey(i)
		b.AddSeq(keys[i], int64(c.Shard), func(yield func(string)) {
			for _, r := range recs {
				yield(r.Key)
				yield(r.Value)
			}
		})
	}
	if err := b.WriteFile(path); err != nil {
		return err
	}
	snap, err := fstore.Open(path, opts)
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("dfs: reopening just-written %q: %w", f.Name, err)
	}
	for i, c := range f.Chunks {
		slot, ok := snap.Find(keys[i])
		if !ok {
			snap.Close()
			os.Remove(path)
			return fmt.Errorf("dfs: chunk %d of %q missing from its snapshot", i, f.Name)
		}
		c.snap, c.slot, c.recs = snap, slot, nil
	}
	f.snap, f.path = snap, path
	return nil
}

// chunkKey names chunk i inside its file's snapshot, as "c%08d" spells it;
// zero-padding keeps slot order equal to chunk order. A file names a
// thousand chunks, so the eight-digit case is rendered without fmt.
func chunkKey(i int) string {
	if i < 0 || i >= 1e8 {
		return fmt.Sprintf("c%08d", i)
	}
	key := []byte("c00000000")
	for p := 8; i > 0; p, i = p-1, i/10 {
		key[p] += byte(i % 10)
	}
	return string(key)
}

// Create writes a new file from records, splitting into chunks of about
// ChunkTarget bytes and placing Replication replicas per chunk. It returns
// an error if the name already exists.
func (fs *FS) Create(name string, records []Record) (*File, error) {
	return fs.create(name, func(f *File) {
		cur := &Chunk{Shard: -1}
		flush := func() {
			if len(cur.recs) == 0 {
				return
			}
			cur.Replicas = fs.cluster.PlaceReplicas(fs.Replication)
			f.Chunks = append(f.Chunks, cur)
			cur = &Chunk{Shard: -1}
		}
		for _, r := range records {
			cur.recs = append(cur.recs, r)
			cur.n++
			cur.Bytes += r.Size()
			if cur.Bytes >= fs.ChunkTarget {
				flush()
			}
		}
		flush()
	})
}

// create makes a file in three steps: reserve the name under the lock —
// Open, Remove and List do not see it yet, TempName and other creates find
// it taken —, chunk and persist outside it, publish (or release the name)
// under it. An empty file still gets one (empty) chunk so jobs over it run
// a well-defined zero-record map task.
func (fs *FS) create(name string, chunk func(f *File)) (*File, error) {
	fs.mu.Lock()
	if _, ok := fs.files[name]; ok {
		fs.mu.Unlock()
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	fs.files[name] = nil
	fs.seq++
	backing, opts, seq := fs.backing, fs.opts, fs.seq
	fs.mu.Unlock()

	f := &File{Name: name}
	chunk(f)
	if len(f.Chunks) == 0 {
		f.Chunks = []*Chunk{{Shard: -1, Replicas: fs.cluster.PlaceReplicas(fs.Replication)}}
	}
	var err error
	if backing != "" {
		if fs.persisting != nil {
			fs.persisting(name)
		}
		err = f.persist(filepath.Join(backing, fmt.Sprintf("%s-%06d.fmc1", fstore.FileName(name), seq)), opts)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err != nil {
		delete(fs.files, name)
		return nil, err
	}
	fs.files[name] = f
	return f, nil
}

// CreateSharded writes a file whose chunks are exactly the given shards
// (one chunk per shard), used by reducers that each materialize their own
// output partition on the node where they ran.
//
// The file takes the shards over: its chunks are windows onto the given
// record slices, not copies, so the caller must not modify a shard
// afterwards. (Both callers — the engine's job output and the adaptive
// runtime's merged reduce waves — build their shards fresh, or pass on
// records of an immutable file.) The windows are capacity-capped, so
// nothing appended to one chunk's records can reach the next chunk's.
func (fs *FS) CreateSharded(name string, shards [][]Record, homes []sim.NodeID) (*File, error) {
	if len(homes) != len(shards) {
		return nil, fmt.Errorf("dfs: %d shards but %d home nodes", len(shards), len(homes))
	}
	return fs.create(name, func(f *File) {
		for i, recs := range shards {
			if len(recs) == 0 {
				continue
			}
			// First replica on the writer's node (HDFS write pipeline), the
			// rest placed by the cluster. Oversized shards split into several
			// chunks so following jobs keep full map-side parallelism, as
			// HDFS splits any file larger than a block.
			replicas := append([]sim.NodeID{homes[i]}, otherNodes(fs.cluster, homes[i], fs.Replication-1)...)
			lo, bytes := 0, 0
			for hi, r := range recs {
				bytes += r.Size()
				if bytes >= fs.ChunkTarget || hi == len(recs)-1 {
					f.Chunks = append(f.Chunks, &Chunk{
						Shard: i, Replicas: replicas,
						recs: recs[lo : hi+1 : hi+1], n: hi + 1 - lo, Bytes: bytes,
					})
					lo, bytes = hi+1, 0
				}
			}
		}
	})
}

func otherNodes(c *sim.Cluster, home sim.NodeID, n int) []sim.NodeID {
	out := make([]sim.NodeID, 0, n)
	for i := 1; len(out) < n && i < c.Nodes(); i++ {
		cand := sim.NodeID((int(home) + i) % c.Nodes())
		out = append(out, cand)
	}
	return out
}

// Open returns the named file.
func (fs *FS) Open(name string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := fs.files[name]
	if f == nil {
		return nil, fmt.Errorf("dfs: file %q does not exist", name)
	}
	return f, nil
}

// Remove deletes the named file; removing a missing file is an error. A
// file-backed file's snapshot mapping is released and its on-disk file
// deleted, so intermediate files cleaned up between jobs do not leak
// mappings or disk space.
func (fs *FS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := fs.files[name]
	if f == nil {
		return fmt.Errorf("dfs: file %q does not exist", name)
	}
	delete(fs.files, name)
	if f.snap == nil {
		return nil
	}
	err := f.release()
	if rerr := os.Remove(f.path); err == nil {
		err = rerr
	}
	return err
}

// List returns the file names in the namespace, sorted.
func (fs *FS) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for n, f := range fs.files {
		if f != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// TempName returns a fresh name under the given prefix that does not
// collide with existing files.
func (fs *FS) TempName(prefix string) string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s-%04d", prefix, i)
		if _, ok := fs.files[name]; !ok {
			return name
		}
	}
}
