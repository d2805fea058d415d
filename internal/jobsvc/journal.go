package jobsvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"efind/internal/adaptix"
	"efind/internal/core"
	"efind/internal/fstore"
	"efind/internal/ixclient"
	"efind/internal/vfs"
	"efind/internal/wal"
)

// Durability configures the service's write-ahead journal and
// checkpointing. With Options.Durable set, the service appends one
// record per scheduling decision — admission, rejection, lease grant,
// phase end, job completion — to a wal.Log under Dir, and at quiescent
// points (no admitted job in flight, no parked phase, no deferred
// admission) folds all decided state into one fstore checkpoint
// snapshot. Recover replays checkpoint + journal tail and resumes.
type Durability struct {
	// Dir holds the journal segments and checkpoint snapshots.
	Dir string
	// FS is the filesystem the journal and checkpoints are written
	// through (nil = the real one). Chaos tests thread a fault-injecting
	// chaos.FaultFS here.
	FS vfs.FS
	// Sync makes decisions durable when journalled: a done, reject or ckpt
	// record and the close fsync the log, and with it every record before
	// them. The records between (hello, trace, admit, grant, end) are not
	// durable on their own: a crash loses at most that suffix, which a
	// deterministic re-run re-derives. (Test crash images are byte-constructed.)
	Sync bool
	// CheckpointEvery is how many newly decided jobs accumulate before
	// the next quiescent point writes a checkpoint (0 = 1: checkpoint at
	// every eligible quiescent point).
	CheckpointEvery int
	// Registry, when set, has its coverage folded into every checkpoint
	// and restored by Recover — the durable home of adaptive-build
	// commit points. Uncommitted (staged) splits are never persisted,
	// so recovery rolls them back by construction.
	Registry *adaptix.Registry
	// BackoffSalt seeds the per-job retry-jitter ladder: a job whose
	// conf carries Retry.Seed == 0 gets a seed derived from (salt,
	// submission index), journaled at admission. Recover replays the
	// journaled seed even under a different salt, so a recovered run
	// walks the exact backoff ladder of the original.
	BackoffSalt int64
}

func (d *Durability) fsOrOS() vfs.FS {
	if d.FS != nil {
		return d.FS
	}
	return vfs.OS{}
}

func (d *Durability) every() int {
	if d.CheckpointEvery <= 0 {
		return 1
	}
	return d.CheckpointEvery
}

// Journal record kinds.
const (
	recHello  = 1 // service construction: format version + tenant hash
	recTrace  = 2 // Run invocation: submission-trace hash + count
	recAdmit  = 3 // admission: sub index, tenant seq, ID, time, backoff seed
	recReject = 4 // rejection: sub index, reason
	recGrant  = 5 // lease grant: sub index, task kind, want, ready, start
	recEnd    = 6 // phase end: sub index, task kind, start, end
	recDone   = 7 // job completion: the full reduced status
	recCkpt   = 8 // checkpoint: snapshot file name + decided count
)

// journalVersion is the record format version inside recHello. Version
// 2 redefined OutputFP (an order-independent digest, see
// dfs.File.Fingerprint); Recover refuses any other version.
const journalVersion = 2

// walCodec walks one payload's fields in either direction. Each method
// takes a pointer to a field: it appends the field to b, or, with dec set,
// reads the field back from b, where the first malformed field poisons the
// rest. Writing never stores through the pointer — a JobStatus being
// encoded shares its Result with the caller.
type walCodec struct {
	b   []byte
	dec bool
	err error
}

// uv appends v, or reads a uvarint and returns it (0 once poisoned).
func (c *walCodec) uv(v uint64) uint64 {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, v)
		return v
	}
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.err = errors.New("jobsvc: journal record truncated")
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *walCodec) u64(p *uint64) {
	if v := c.uv(*p); c.dec {
		*p = v
	}
}

func (c *walCodec) int(p *int) {
	if v := c.uv(uint64(*p)); c.dec {
		*p = int(v)
	}
}

func (c *walCodec) i64(p *int64) {
	if v := c.uv(uint64(*p)); c.dec {
		*p = int64(v)
	}
}

func (c *walCodec) f64(p *float64) {
	if v := c.uv(math.Float64bits(*p)); c.dec {
		*p = math.Float64frombits(v)
	}
}

func (c *walCodec) boolv(p *bool) {
	var v uint64
	if *p {
		v = 1
	}
	if v = c.uv(v); c.dec {
		*p = v != 0
	}
}

func (c *walCodec) str(p *string) {
	l := c.uv(uint64(len(*p)))
	if !c.dec {
		c.b = append(c.b, *p...)
		return
	}
	if c.err == nil && uint64(len(c.b)) < l {
		c.err = errors.New("jobsvc: journal string truncated")
	}
	if c.err != nil {
		l = 0
	}
	*p = string(c.b[:l])
	c.b = c.b[l:]
}

// count walks an element count. Every element takes at least one byte,
// so a count read above the bytes remaining is malformed; rejecting it
// here keeps a CRC-valid but wrong value from sizing an allocation.
func (c *walCodec) count(p *int) {
	c.int(p)
	if c.dec && c.err == nil && uint64(*p) > uint64(len(c.b)) {
		c.err = errors.New("jobsvc: journal count exceeds payload")
		*p = 0
	}
}

// cmap walks a counter map in key order; an empty one reads back nil.
func (c *walCodec) cmap(p *map[string]int64) {
	n := len(*p)
	c.count(&n)
	if c.dec {
		*p = nil
		if n > 0 {
			*p = make(map[string]int64, n)
		}
		for i := 0; i < n && c.err == nil; i++ {
			var k string
			var v int64
			c.str(&k)
			c.i64(&v)
			(*p)[k] = v
		}
		return
	}
	keys := make([]string, 0, n)
	for k := range *p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := (*p)[k]
		c.str(&k)
		c.i64(&v)
	}
}

// fields walks a decided JobStatus: the stable form inside recDone
// records and in checkpoint "sub:" entries. The Recovered flag and the
// Output file are deliberately absent: recovery synthesizes a Result
// carrying the scalars, counters, and the output fingerprint, and marks
// the status Recovered itself.
func (st *JobStatus) fields(c *walCodec) {
	c.int((*int)(&st.State))
	c.str(&st.Tenant)
	c.str(&st.Name)
	c.str(&st.ID)
	c.str(&st.Reason)
	c.f64(&st.Submitted)
	c.f64(&st.Admitted)
	c.f64(&st.Finished)
	c.f64(&st.ServeSeconds)
	c.u64(&st.OutputFP)
	var msg string
	if st.Err != nil {
		msg = st.Err.Error()
	}
	if c.str(&msg); c.dec && msg != "" {
		st.Err = errors.New(msg)
	}
	r, has := st.Result, st.Result != nil
	if c.boolv(&has); !has {
		return
	}
	if c.dec {
		r = &core.JobResult{}
		st.Result = r
	}
	c.f64(&r.VTime)
	c.int(&r.JobsRun)
	c.boolv(&r.Replanned)
	c.str(&r.ReplanPhase)
	c.cmap(&r.Counters)
	c.cmap(&r.IndexErrors)
}

// svcRec is one journal record (a tagged union over the kinds).
type svcRec struct {
	kind     int
	subIdx   int
	seq      int
	id       string
	reason   string
	at       float64
	seed     int64
	taskKind int
	want     int
	start    float64
	end      float64
	hash     uint64
	n        int
	file     string
	st       JobStatus
	regFP    uint64
	payload  []byte // the decoded bytes
}

// fields is the record schema: each kind's field order, walked by both
// encode and decodeRec.
func (r *svcRec) fields(c *walCodec) {
	c.int(&r.kind)
	switch r.kind {
	case recHello:
		c.int(&r.n) // format version
		c.u64(&r.hash)
	case recTrace:
		c.u64(&r.hash)
		c.int(&r.n)
	case recAdmit:
		c.int(&r.subIdx)
		c.int(&r.seq)
		c.str(&r.id)
		c.f64(&r.at)
		c.i64(&r.seed)
	case recReject:
		c.int(&r.subIdx)
		c.str(&r.reason)
	case recGrant:
		c.int(&r.subIdx)
		c.int(&r.taskKind)
		c.int(&r.want)
		c.f64(&r.at)
		c.f64(&r.start)
	case recEnd:
		c.int(&r.subIdx)
		c.int(&r.taskKind)
		c.f64(&r.start)
		c.f64(&r.end)
	case recDone:
		c.int(&r.subIdx)
		c.u64(&r.regFP)
		r.st.fields(c)
	case recCkpt:
		c.str(&r.file)
		c.int(&r.n)
	default:
		if c.err == nil {
			c.err = fmt.Errorf("jobsvc: unknown journal record kind %d", r.kind)
		}
	}
}

// encode appends the record's payload to b.
func (r *svcRec) encode(b []byte) []byte {
	c := walCodec{b: b}
	r.fields(&c)
	return c.b
}

// decodeRec parses one journal payload.
func decodeRec(payload []byte) (svcRec, error) {
	r := svcRec{payload: payload}
	c := walCodec{b: payload, dec: true}
	r.fields(&c)
	return r, c.err
}

var recKindNames = [...]string{recHello: "hello", recTrace: "trace", recAdmit: "admit", recReject: "reject",
	recGrant: "grant", recEnd: "end", recDone: "done", recCkpt: "ckpt"}

func recKindName(kind int) string {
	if kind > 0 && kind < len(recKindNames) {
		return recKindNames[kind]
	}
	return fmt.Sprintf("kind(%d)", kind)
}

// describe renders a decoded record for humans (efind-plan -wal).
func (r svcRec) describe() string {
	switch r.kind {
	case recHello:
		return fmt.Sprintf("hello   v%d tenants=%016x", r.n, r.hash)
	case recTrace:
		return fmt.Sprintf("trace   subs=%d hash=%016x", r.n, r.hash)
	case recAdmit:
		return fmt.Sprintf("admit   sub=%d id=%s at=%.6f seed=%d", r.subIdx, r.id, r.at, r.seed)
	case recReject:
		return fmt.Sprintf("reject  sub=%d reason=%q", r.subIdx, r.reason)
	case recGrant:
		return fmt.Sprintf("grant   sub=%d kind=%d want=%d ready=%.6f start=%.6f", r.subIdx, r.taskKind, r.want, r.at, r.start)
	case recEnd:
		return fmt.Sprintf("end     sub=%d kind=%d start=%.6f end=%.6f", r.subIdx, r.taskKind, r.start, r.end)
	case recDone:
		return fmt.Sprintf("done    sub=%d state=%s finish=%.6f fp=%016x", r.subIdx, r.st.State, r.st.Finished, r.st.OutputFP)
	case recCkpt:
		return fmt.Sprintf("ckpt    file=%s decided=%d", r.file, r.n)
	}
	return recKindName(r.kind)
}

// DescribeJournal renders every record of a journal directory, one line
// per record — the efind-plan -wal inspection surface. A torn tail is
// reported as a final line rather than an error; a directory without a
// journal segment — missing, or a mistyped path — is an error.
func DescribeJournal(dir string) ([]string, error) {
	segs, err := wal.Segments(vfs.OS{}, dir)
	if err == nil && len(segs) == 0 {
		err = fmt.Errorf("no journal segment in %s", dir)
	}
	if err != nil {
		return nil, err
	}
	recs, torn, err := wal.Replay(vfs.OS{}, dir)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(recs)+1)
	for i, rec := range recs {
		r, err := decodeRec(rec.Payload)
		if err != nil {
			return nil, fmt.Errorf("record %d (%s): %w", i, rec.Segment, err)
		}
		out = append(out, fmt.Sprintf("%4d %s %s", i+1, rec.Segment, r.describe()))
	}
	if torn {
		out = append(out, "torn tail: trailing bytes after the last valid record (crash mid-append)")
	}
	return out, nil
}

// journal is the Service's durability state: the open wal.Log, the
// recovered decisions to verify re-derived ones against, and checkpoint
// bookkeeping. All methods run on the scheduler goroutine.
type journal struct {
	d   *Durability
	fs  vfs.FS
	log *wal.Log
	err error // first durability failure (journaling degrades, the run continues)

	// Recovery state (empty on a fresh service).
	decided map[int]JobStatus // checkpoint-decided statuses by sub index
	seeds   map[int]int64     // journaled backoff seeds by sub index
	expect  map[expectKey][][]byte
	report  *RecoveryReport

	newlyDecided int
	ckptSeq      int
	buf          []byte // encode buffer: the last record's payload, reused for the next
}

func openJournal(d *Durability) (*journal, error) {
	fs := d.fsOrOS()
	log, err := wal.Open(fs, d.Dir, d.Sync)
	if err != nil {
		return nil, err
	}
	return &journal{
		d:       d,
		fs:      fs,
		log:     log,
		decided: make(map[int]JobStatus),
		seeds:   make(map[int]int64),
		expect:  make(map[expectKey][][]byte),
	}, nil
}

func (jl *journal) fail(err error) {
	if jl.err == nil && err != nil {
		jl.err = err
	}
}

// expectKey groups records for replay verification: one FIFO per (kind,
// sub index).
type expectKey struct{ kind, subIdx int }

// installExpectations loads replayed records as the verification
// baseline for a recovered run: every decision the resumed service
// re-derives must byte-match the journaled one, in order. Checkpoint
// records are excluded (a resumed run writes its own), as are the
// journaled admit seeds, which are additionally indexed for replay.
func (jl *journal) installExpectations(recs []svcRec) {
	for _, r := range recs {
		switch r.kind {
		case recCkpt:
			continue
		case recAdmit:
			jl.seeds[r.subIdx] = r.seed
		}
		k := expectKey{r.kind, r.subIdx}
		jl.expect[k] = append(jl.expect[k], r.payload)
	}
}

// append journals one record, first verifying it against the replayed
// baseline when one exists. Journaling failures are sticky and reported
// via Service.DurableErr, but never fail the run: the scheduler's
// decisions stand, they just stop being durable.
func (jl *journal) append(r svcRec) {
	payload := r.encode(jl.buf[:0])
	jl.buf = payload
	k := expectKey{r.kind, r.subIdx}
	if q := jl.expect[k]; len(q) > 0 {
		want := q[0]
		jl.expect[k] = q[1:]
		if string(want) != string(payload) && jl.report != nil {
			jl.report.Divergences = append(jl.report.Divergences,
				fmt.Sprintf("%s record for sub %d diverges from the journal (%d vs %d bytes)",
					recKindName(r.kind), r.subIdx, len(payload), len(want)))
		}
	}
	// A record recovery acts on — a decision, a checkpoint — commits the
	// journal up to itself; the others ride to the next sync.
	write := jl.log.AppendLazy
	if r.kind == recDone || r.kind == recReject || r.kind == recCkpt {
		write = jl.log.Append
	}
	if err := write(payload); err != nil {
		jl.fail(err)
	}
}

func (jl *journal) close() {
	if jl.log != nil {
		if err := jl.log.Close(); err != nil {
			jl.fail(err)
		}
	}
}

// regFingerprint hashes the durable registry's coverage (0 without one).
func (jl *journal) regFingerprint() uint64 {
	if jl.d.Registry == nil {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(jl.d.Registry.Fingerprint()))
	return h.Sum64()
}

// Checkpoint snapshot schema (an fstore file in the journal directory).
const (
	ckptSentinel   = "jobsvc-ckpt"
	ckptVersion    = 2 // 1 stored every cache's values inline
	ckptSubPrefix  = "sub:"
	ckptTenPrefix  = "tn:"
	ckptPoolPrefix = "pool:"
	ckptPoolValues = "values"
	ckptRegPrefix  = "reg:"
	ckptLedMap     = "led:m"
	ckptLedReduce  = "led:r"
)

// addPool adds the dumped caches to a checkpoint. Every node caches its
// own copy of an index value, so the caches mostly hold the same entries:
// each distinct one is stored once, in one value table — per row the key,
// then its values: the cached strings themselves — and per cache only
// where its entries' rows start and how many values they hold, in recency
// order. Rows are distinct by content, not by key: an index promises
// idempotent lookups within a job, not across jobs, so a list that differs
// from the first one cached under its key gets its own row. buf is reused.
func addPool(b *fstore.Builder, dump []ixclient.PoolEntry, buf []byte) []byte {
	var table []string
	first := make(map[[2]string]int) // {index, key} → where the first row under that key starts
	for _, pe := range dump {
		c := walCodec{b: buf[:0]}
		c.str(&pe.Index)
		c.int((*int)(&pe.Node))
		c.i64(&pe.Hits)
		c.i64(&pe.Misses)
		n := len(pe.Keys)
		c.count(&n)
		for i, k := range pe.Keys {
			values := pe.Values[i]
			at, seen := first[[2]string{pe.Index, k}]
			if end := at + 1 + len(values); !seen || end > len(table) || !slices.Equal(table[at+1:end], values) {
				if at = len(table); !seen {
					first[[2]string{pe.Index, k}] = at
				}
				table = append(append(table, k), values...)
			}
			row, vn := uint64(at), uint64(len(values))
			c.u64(&row)
			c.u64(&vn)
		}
		buf = c.b
		b.Add(fmt.Sprintf("%s%s|%08d", ckptPoolPrefix, pe.Index, pe.Node), int64(pe.Node), string(buf))
	}
	b.Add(ckptPoolValues, int64(len(table)), table...)
	return buf
}

// decodePool reads one pooled cache, resolving its entries against the
// value table; caches then share the table's strings.
func decodePool(c *walCodec, table []string) (e ixclient.PoolEntry) {
	c.str(&e.Index)
	c.int((*int)(&e.Node))
	c.i64(&e.Hits)
	c.i64(&e.Misses)
	var n int
	c.count(&n)
	for i := 0; i < n && c.err == nil; i++ {
		var at, vn uint64
		c.u64(&at)
		c.u64(&vn)
		if c.err == nil && (at >= uint64(len(table)) || vn >= uint64(len(table))-at) {
			c.err = fmt.Errorf("jobsvc: pool entry of %d values at %d lies outside the %d-string value table", vn, at, len(table))
		} else if c.err == nil {
			e.Keys = append(e.Keys, table[at])
			e.Values = append(e.Values, table[at+1:at+1+vn:at+1+vn])
		}
	}
	return e
}

// writeCheckpoint folds every decided job, tenant accounting, slot
// ledger, pooled cache, and registry coverage into one atomic fstore
// snapshot and journals its name. Called only at quiescent points, so
// the captured state is exactly the serial-point state a fresh run
// reaches after the same decided prefix.
func (s *Service) writeCheckpoint() {
	jl := s.jl
	if jl.log.Err() != nil {
		return // a dead journal cannot name a checkpoint, and Recover reads none it does not name
	}
	b := fstore.NewBuilder()
	b.Add(ckptSentinel, ckptVersion)
	c := walCodec{b: jl.buf[:0]}
	add := func(key string, rev int64) {
		b.Add(key, rev, string(c.b))
		c.b = c.b[:0]
	}
	decided := 0
	for _, j := range s.jobs {
		if !j.decided {
			continue
		}
		j.status.fields(&c)
		add(fmt.Sprintf("%s%06d", ckptSubPrefix, j.idx), int64(j.status.State))
		decided++
	}
	for _, t := range s.order {
		tc := tenantCkpt{spent: t.spent}
		tc.fields(&c)
		add(ckptTenPrefix+t.cfg.Name, int64(t.seq))
	}
	s.mapLedger.fields(&c)
	add(ckptLedMap, 0)
	s.reduceLedger.fields(&c)
	add(ckptLedReduce, 0)
	jl.buf = c.b
	if p := s.opts.SharedCache; p != nil {
		jl.buf = addPool(b, p.Dump(), jl.buf)
	}
	if reg := jl.d.Registry; reg != nil {
		reg.AppendTo(b, ckptRegPrefix)
	}
	name := fmt.Sprintf("ckpt-%06d.fst", jl.ckptSeq+1)
	if err := b.WriteFileFS(jl.fs, filepath.Join(jl.d.Dir, name)); err != nil {
		// The snapshot never became durable; keep journaling against the
		// previous checkpoint and retry at the next quiescent point.
		jl.fail(fmt.Errorf("jobsvc: checkpoint %s: %w", name, err))
		return
	}
	jl.ckptSeq++
	jl.append(svcRec{kind: recCkpt, file: name, n: decided})
	jl.newlyDecided = 0
}

// checkpoint is one loaded checkpoint snapshot.
type checkpoint struct {
	path    string
	decided map[int]JobStatus
	tenants map[string]tenantCkpt
	ledgers map[string]slotLedger
	pool    []ixclient.PoolEntry
}

type tenantCkpt struct {
	seq   int // the entry's revision
	spent float64
}

func (t *tenantCkpt) fields(c *walCodec) { c.f64(&t.spent) }

// fields walks a ledger's slot shape and free times; a decoded one is
// only compared against the cluster's and copied into its ledger.
func (l *slotLedger) fields(c *walCodec) {
	c.int(&l.perNode)
	n := len(l.freeAt)
	c.count(&n)
	if c.dec {
		l.freeAt = make([]float64, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		c.f64(&l.freeAt[i])
	}
}

// loadCheckpoint opens and fully decodes a checkpoint snapshot, merging
// registry coverage into reg when given. Entries are decoded from views
// of the mapping; the fields walks copy out what they keep. Any
// validation or decode failure surfaces as an error so Recover can fall
// back to an earlier checkpoint.
func loadCheckpoint(path string, reg *adaptix.Registry) (*checkpoint, error) {
	snap, err := fstore.Open(path, fstore.Options{})
	if err != nil {
		return nil, err
	}
	defer snap.Close()
	if i, ok := snap.Find(ckptSentinel); !ok {
		return nil, fmt.Errorf("jobsvc: %s is not a service checkpoint", path)
	} else if rev := snap.Revision(i); rev != ckptVersion {
		return nil, fmt.Errorf("jobsvc: checkpoint %s is layout version %d, this build reads version %d only", path, rev, ckptVersion)
	}
	ck := &checkpoint{
		path:    path,
		decided: make(map[int]JobStatus),
		tenants: make(map[string]tenantCkpt),
		ledgers: make(map[string]slotLedger),
	}
	var table []string // its revision is its length: a lost string is an error, not a shift
	if i, ok := snap.Find(ckptPoolValues); ok {
		if table, err = snap.Values(i); err == nil && int64(len(table)) != snap.Revision(i) {
			err = fmt.Errorf("value table holds %d strings, want %d", len(table), snap.Revision(i))
		}
		if err != nil {
			return nil, fmt.Errorf("jobsvc: checkpoint %s: %w", path, err)
		}
	}
	for i := 0; i < snap.Len(); i++ {
		key, rev := snap.Key(i), snap.Revision(i)
		if key == ckptSentinel || key == ckptPoolValues || strings.HasPrefix(key, ckptRegPrefix) {
			continue // the registry is handled below via adaptix.LoadFrom (it validates ranges)
		}
		values := 0
		err := snap.View(i, func(v []byte) error {
			values++
			return ck.decode(key, rev, v, table)
		})
		if err == nil && values != 1 {
			err = fmt.Errorf("key %s has %d values, want 1", key, values)
		}
		if err != nil {
			return nil, fmt.Errorf("jobsvc: checkpoint %s: %w", path, err)
		}
	}
	if reg != nil {
		if err := reg.LoadFrom(snap, ckptRegPrefix); err != nil {
			return nil, err
		}
	}
	return ck, nil
}

// decode folds one single-valued checkpoint entry into ck.
func (ck *checkpoint) decode(key string, rev int64, v []byte, table []string) error {
	c := &walCodec{b: v, dec: true}
	switch {
	case key == ckptLedMap || key == ckptLedReduce:
		var l slotLedger
		l.fields(c)
		ck.ledgers[key] = l
	case strings.HasPrefix(key, ckptSubPrefix):
		idx, err := strconv.Atoi(key[len(ckptSubPrefix):])
		if err != nil {
			return fmt.Errorf("bad sub key %q", key)
		}
		var st JobStatus
		st.fields(c)
		ck.decided[idx] = st
	case strings.HasPrefix(key, ckptTenPrefix):
		tc := tenantCkpt{seq: int(rev)}
		tc.fields(c)
		ck.tenants[key[len(ckptTenPrefix):]] = tc
	case strings.HasPrefix(key, ckptPoolPrefix):
		ck.pool = append(ck.pool, decodePool(c, table))
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return c.err
}

// tenantHash fingerprints the tenant configuration for recHello.
func tenantHash(tenants []TenantConfig) uint64 {
	h := fnv.New64a()
	for _, t := range tenants {
		fmt.Fprintf(h, "%s|%d|%d|%d|%x;", t.Name, t.Weight, t.MaxInFlight, t.QueueCap, math.Float64bits(t.Budget))
	}
	return h.Sum64()
}

// subsHash fingerprints the submission trace for recTrace.
func subsHash(subs []Submission) uint64 {
	h := fnv.New64a()
	for _, s := range subs {
		name := ""
		if s.Conf != nil {
			name = s.Conf.Name
		}
		fmt.Fprintf(h, "%s|%x|%s;", s.Tenant, math.Float64bits(s.At), name)
	}
	return h.Sum64()
}
