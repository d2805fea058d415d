package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"efind/internal/kvstore"
	"efind/internal/vfs"
)

// tracer records wall-clock spans of the traced run in memory and writes
// them as Chrome trace events when the run ends. A nil *tracer is valid
// and records nothing, so untraced runs share the code paths.
//
// Spans are taken at layer boundaries from outside the program: around
// calls into a layer's public functions. Work inside a job that the
// benchmark can only see through a decorator (index lookups, user
// functions, file-system calls: tens of thousands per op, on a worker
// pool) is not recorded call by call; each op gets one aggregated child
// per decorator, carrying the call count and summed busy time.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	events []traceEvent
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs since run start
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is one open interval. id is its index in the event list; children
// name it as their parent.
type span struct {
	tr    *tracer
	id    int
	start time.Time
}

// begin opens a span. op is the id shared by every span of one operation
// (-1 for set-up and probes); parent is the enclosing span or nil.
func (t *tracer) begin(name, cat string, op int, parent *span) *span {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.events)
	args := map[string]any{"id": id, "op": op}
	if parent != nil {
		args["parent"] = parent.id
	}
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Ph: "X", PID: 1, TID: 1,
		TS: float64(now.Sub(t.t0)) / float64(time.Microsecond), Args: args,
	})
	return &span{tr: t, id: id, start: now}
}

func (s *span) end() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.tr.mu.Lock()
	s.tr.events[s.id].Dur = float64(d) / float64(time.Microsecond)
	s.tr.mu.Unlock()
}

// aggregate attaches a decorator's totals for one op as a child of the
// op's span: dur is the summed busy time across workers, so children may
// add up to more than the parent's wall time on a multi-core host.
func (s *span) aggregate(name, cat string, op int, calls int64, busy time.Duration) {
	if s == nil || calls == 0 {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.tr.events = append(s.tr.events, traceEvent{
		Name: name, Cat: cat, Ph: "X", PID: 1, TID: 2,
		TS:  s.tr.events[s.id].TS,
		Dur: float64(busy) / float64(time.Microsecond),
		Args: map[string]any{
			"id": len(s.tr.events), "op": op, "parent": s.id,
			"aggregated": true, "calls": calls,
		},
	})
}

// write stores the spans where chrome://tracing and Perfetto load them.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(map[string]any{"traceEvents": t.events, "displayTimeUnit": "ms"})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// busy is a decorator's tally: calls and summed wall time inside them.
// Atomics, because tasks run on a worker pool.
type busy struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (b *busy) since(start time.Time) {
	b.calls.Add(1)
	b.ns.Add(int64(time.Since(start)))
}

func (b *busy) snapshot() (calls int64, d time.Duration) {
	return b.calls.Load(), time.Duration(b.ns.Load())
}

// countingStore decorates a kvstore.Store at the index.Accessor seam:
// Lookup and BatchLookup are counted and timed, everything else
// (partition scheme, probes, host lists) is the store's own, so plans
// and placement see no difference.
type countingStore struct {
	*kvstore.Store
	b *busy
}

func (c countingStore) Lookup(key string) ([]string, error) {
	defer c.b.since(time.Now())
	return c.Store.Lookup(key)
}

func (c countingStore) BatchLookup(keys []string) ([][]string, error) {
	start := time.Now()
	out, err := c.Store.BatchLookup(keys)
	c.b.calls.Add(int64(len(keys)))
	c.b.ns.Add(int64(time.Since(start)))
	return out, err
}

// countingFS decorates the vfs.FS handed to jobsvc.Durability: every
// mutation of the journal directory is counted and timed.
type countingFS struct {
	inner   vfs.FS
	writes  atomic.Int64
	bytes   atomic.Int64
	fsyncs  atomic.Int64
	renames atomic.Int64
	b       busy // all calls, reads included
}

func newCountingFS() *countingFS { return &countingFS{inner: vfs.OS{}} }

func (c *countingFS) MkdirAll(dir string) error {
	defer c.b.since(time.Now())
	return c.inner.MkdirAll(dir)
}

func (c *countingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	defer c.b.since(time.Now())
	f, err := c.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) OpenAppend(path string) (vfs.File, error) {
	defer c.b.since(time.Now())
	f, err := c.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	defer c.b.since(time.Now())
	c.renames.Add(1)
	return c.inner.Rename(oldpath, newpath)
}

func (c *countingFS) Remove(path string) error {
	defer c.b.since(time.Now())
	return c.inner.Remove(path)
}

func (c *countingFS) ReadFile(path string) ([]byte, error) {
	defer c.b.since(time.Now())
	return c.inner.ReadFile(path)
}

func (c *countingFS) ReadDir(dir string) ([]string, error) {
	defer c.b.since(time.Now())
	return c.inner.ReadDir(dir)
}

type countingFile struct {
	vfs.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	defer f.fs.b.since(time.Now())
	n, err := f.File.Write(p)
	f.fs.writes.Add(1)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	defer f.fs.b.since(time.Now())
	f.fs.fsyncs.Add(1)
	return f.File.Sync()
}

func (f *countingFile) Close() error {
	defer f.fs.b.since(time.Now())
	return f.File.Close()
}

// fsTally is a snapshot of a countingFS.
type fsTally struct {
	writes, bytes, fsyncs, renames, calls int64
	busy                                  time.Duration
}

func (c *countingFS) tally() fsTally {
	calls, d := c.b.snapshot()
	return fsTally{
		writes: c.writes.Load(), bytes: c.bytes.Load(), fsyncs: c.fsyncs.Load(),
		renames: c.renames.Load(), calls: calls, busy: d,
	}
}

func (t fsTally) sub(o fsTally) fsTally {
	return fsTally{
		writes: t.writes - o.writes, bytes: t.bytes - o.bytes, fsyncs: t.fsyncs - o.fsyncs,
		renames: t.renames - o.renames, calls: t.calls - o.calls, busy: t.busy - o.busy,
	}
}
