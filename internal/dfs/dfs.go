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
	"slices"
	"sort"
	"strconv"
	"strings"
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
// input, index builds): the resident slice in memory; when file-backed, a
// copy made under View's checks, one string per record cut into key and
// value, so a kept key or value keeps its record alive, never the chunk.
func (c *Chunk) Records() ([]Record, error) {
	if c.snap == nil {
		return c.recs, nil
	}
	out := make([]Record, 0, c.n)
	err := c.View(func(key, value []byte) error {
		var b strings.Builder
		b.Grow(len(key) + len(value))
		b.Write(key)
		b.Write(value)
		s := b.String()
		out = append(out, Record{Key: s[:len(key)], Value: s[len(key):]})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// chunkValues yields a resident chunk's keys and values in turn, as the
// chunk's snapshot entry stores them (fstore.Builder.AddSeq).
type chunkValues Chunk

func (c *chunkValues) Each(yield func(string)) {
	for _, r := range c.recs {
		yield(r.Key)
		yield(r.Value)
	}
}

// File is an immutable, chunked, replicated file.
type File struct {
	Name   string
	Chunks []*Chunk

	snap *fstore.Snapshot // non-nil when the payload is file-backed
	path string           // snapshot file, for Remove cleanup
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
// chunk to the snapshot the write serves, dropping the resident slices.
// Chunk keys sort in chunk order, so chunk i is slot i. Called without
// the lock.
func (f *File) persist(path string, opts fstore.Options) error {
	b := fstore.NewBuilder()
	b.Grow(len(f.Chunks))
	keys := make([]string, len(f.Chunks)) // named once, for the write and for the binding
	var names strings.Builder             // the one string every key is cut out of
	names.Grow(9 * len(keys))
	for i, c := range f.Chunks {
		at := names.Len()
		writeChunkKey(&names, i)
		keys[i] = names.String()[at:]
		b.AddSeq(keys[i], int64(c.Shard), (*chunkValues)(c))
	}
	snap, err := b.WriteSnapshot(path, opts)
	if err != nil {
		return err
	}
	for i := range f.Chunks {
		if !snap.KeyIs(i, keys[i]) {
			snap.Close()
			os.Remove(path)
			return fmt.Errorf("dfs: chunk %d of %q is not slot %d of its snapshot", i, f.Name, i)
		}
	}
	for i, c := range f.Chunks {
		c.snap, c.slot, c.recs = snap, i, nil
	}
	f.snap, f.path = snap, path
	return nil
}

// writeChunkKey writes the name of chunk i inside its file's snapshot, as
// "c%08d" spells it; zero-padding keeps slot order equal to chunk order.
func writeChunkKey(b *strings.Builder, i int) {
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(i), 10)
	b.WriteString("c00000000"[:9-min(len(digits), 8)])
	b.Write(digits)
}

// split calls chunk with the bounds and bytes of each chunk recs splits
// into: about ChunkTarget bytes, the last ending with recs.
func (fs *FS) split(recs []Record, chunk func(lo, hi, bytes int)) {
	lo, bytes := 0, 0
	for hi, r := range recs {
		bytes += r.Size()
		if bytes >= fs.ChunkTarget || hi == len(recs)-1 {
			chunk(lo, hi+1, bytes)
			lo, bytes = hi+1, 0
		}
	}
}

// Create writes a new file from records, splitting into chunks of about
// ChunkTarget bytes and placing Replication replicas per chunk. It returns
// an error if the name already exists. The chunks are windows of one copy
// of records, their structs one slice, counted first.
func (fs *FS) Create(name string, records []Record) (*File, error) {
	return fs.create(name, func(f *File) {
		n := 0
		fs.split(records, func(int, int, int) { n++ })
		chunks, recs := make([]Chunk, n), slices.Clone(records)
		f.Chunks = make([]*Chunk, 0, n)
		fs.split(recs, func(lo, hi, bytes int) {
			chunks[len(f.Chunks)] = Chunk{recs: recs[lo:hi:hi], n: hi - lo, Bytes: bytes, Shard: -1, Replicas: fs.cluster.PlaceReplicas(fs.Replication)}
			f.Chunks = append(f.Chunks, &chunks[len(f.Chunks)])
		})
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
		n := 0
		for _, recs := range shards {
			fs.split(recs, func(int, int, int) { n++ })
		}
		chunks := make([]Chunk, n)
		f.Chunks = make([]*Chunk, 0, n)
		for i, recs := range shards {
			if len(recs) == 0 {
				continue
			}
			// First replica on the writer's node (HDFS write pipeline), the
			// rest placed by the cluster. Oversized shards split into several
			// chunks so following jobs keep full map-side parallelism, as
			// HDFS splits any file larger than a block.
			replicas := otherNodes(append(make([]sim.NodeID, 0, max(fs.Replication, 1)), homes[i]), fs.cluster, fs.Replication-1)
			fs.split(recs, func(lo, hi, bytes int) {
				chunks[len(f.Chunks)] = Chunk{Shard: i, Replicas: replicas, recs: recs[lo:hi:hi], n: hi - lo, Bytes: bytes}
				f.Chunks = append(f.Chunks, &chunks[len(f.Chunks)])
			})
		}
	})
}

// otherNodes appends the n nodes after replicas[0], the writer's.
func otherNodes(replicas []sim.NodeID, c *sim.Cluster, n int) []sim.NodeID {
	for i := 1; i <= n && i < c.Nodes(); i++ {
		replicas = append(replicas, sim.NodeID((int(replicas[0])+i)%c.Nodes()))
	}
	return replicas
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
