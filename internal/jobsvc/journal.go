package jobsvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"slices"

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

// cmap walks a counter map as a list of (key, value) in key order; an
// empty one reads back nil.
func (c *walCodec) cmap(p *map[string]int64) {
	keys := make([]string, 0, len(*p))
	for k := range *p {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	list(c, &keys, func(k *string) {
		v := (*p)[*k]
		c.str(k)
		if c.i64(&v); c.dec {
			if *p == nil {
				*p = make(map[string]int64)
			}
			(*p)[*k] = v
		}
	})
}

// fields walks a decided JobStatus: the stable form inside recDone
// records and a checkpoint's decided jobs. The Recovered flag and the
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
	decided []jobState    // checkpoint-decided jobs: sub index and status
	seeds   map[int]int64 // journaled backoff seeds by sub index
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
		d:      d,
		fs:     fs,
		log:    log,
		seeds:  make(map[int]int64),
		expect: make(map[expectKey][][]byte),
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

// Checkpoint snapshot (an fstore file in the journal directory): the state
// walk under ckptState, revision = layout version, and the value table.
const (
	ckptState   = "jobsvc-ckpt"
	ckptVersion = 3 // 1 stored every cache's values inline, 2 an entry per job, tenant, ledger, cache and index
	ckptValues  = "values"
)

// checkpoint is every piece of state a checkpoint holds, in walk order.
type checkpoint struct {
	decided []jobState    // sub index and status
	tenants []tenant      // name, seq and spend
	ledgers [2]slotLedger // map, reduce
	pool    []ixclient.PoolEntry
	indices []indexCkpt // adaptive-build coverage
}

type indexCkpt struct {
	name   string
	total  int   // build units
	splits []int // the committed ones, ascending
}

// fields is the checkpoint schema, walked by encode and decodeState as
// svcRec.fields serves journal records. A read refuses a split outside its
// index's total, so Recover never applies part of a rejected checkpoint.
func (ck *checkpoint) fields(c *walCodec, t *valueTable) {
	list(c, &ck.decided, func(j *jobState) {
		c.int(&j.idx)
		j.status.fields(c)
	})
	list(c, &ck.tenants, func(tn *tenant) {
		c.str(&tn.cfg.Name)
		c.int(&tn.seq)
		c.f64(&tn.spent)
	})
	for i := range ck.ledgers {
		ck.ledgers[i].fields(c)
	}
	list(c, &ck.pool, func(pe *ixclient.PoolEntry) {
		c.str(&pe.Index)
		c.int((*int)(&pe.Node))
		c.i64(&pe.Hits)
		c.i64(&pe.Misses)
		n := len(pe.Keys)
		c.count(&n)
		for i := 0; i < n && c.err == nil; i++ {
			t.row(c, pe, i)
		}
	})
	list(c, &ck.indices, func(ix *indexCkpt) {
		c.str(&ix.name)
		c.int(&ix.total)
		list(c, &ix.splits, func(s *int) {
			if c.int(s); c.dec && c.err == nil && (*s < 0 || *s >= ix.total) {
				c.err = fmt.Errorf("jobsvc: split %d of index %q lies outside [0,%d)", *s, ix.name, ix.total)
			}
		})
	})
}

// list walks a slice's length, then each element. A read appends what
// decodes, so a count no payload backs never sizes an allocation.
func list[T any](c *walCodec, p *[]T, elem func(*T)) {
	n := len(*p)
	c.count(&n)
	if c.dec {
		*p = nil
	}
	for i := 0; i < n && c.err == nil; i++ {
		if c.dec {
			*p = append(*p, *new(T))
		}
		elem(&(*p)[i])
	}
}

// valueTable stores each distinct (index, key, value list) the pooled
// caches hold once, as a row: the key, then the cached strings
// themselves. Rows are distinct by content, not by key: an index promises
// idempotent lookups within a job, not across jobs (DESIGN.md
// "Checkpoint layout").
type valueTable struct {
	strs  []string
	first map[[2]string]int // write side: {index, key} → where the first row under that key starts
}

// row walks entry i of a cache as (row start, value count): a write adds
// its row unless the table holds it, a read appends the row to the cache.
func (t *valueTable) row(c *walCodec, pe *ixclient.PoolEntry, i int) {
	var at, vn uint64
	if !c.dec {
		key, values := pe.Keys[i], pe.Values[i]
		start, seen := t.first[[2]string{pe.Index, key}]
		if end := start + 1 + len(values); !seen || end > len(t.strs) || !slices.Equal(t.strs[start+1:end], values) {
			if start = len(t.strs); !seen {
				t.first[[2]string{pe.Index, key}] = start
			}
			t.strs = append(append(t.strs, key), values...)
		}
		at, vn = uint64(start), uint64(len(values))
	}
	c.u64(&at)
	c.u64(&vn)
	switch {
	case !c.dec || c.err != nil:
	case at >= uint64(len(t.strs)) || vn >= uint64(len(t.strs))-at:
		c.err = fmt.Errorf("jobsvc: pool entry of %d values at %d lies outside the %d-string value table", vn, at, len(t.strs))
	default:
		pe.Keys = append(pe.Keys, t.strs[at])
		pe.Values = append(pe.Values, t.strs[at+1:at+1+vn:at+1+vn])
	}
}

// fields walks a ledger's slot shape and free times; a decoded one is
// only compared against the cluster's and copied into its ledger.
func (l *slotLedger) fields(c *walCodec) {
	c.int(&l.perNode)
	list(c, &l.freeAt, c.f64)
}

// encode appends the checkpoint's state walk to b and returns it with
// the value table the walk filled.
func (ck *checkpoint) encode(b []byte) ([]byte, []string) {
	c := walCodec{b: b}
	t := valueTable{first: make(map[[2]string]int)}
	ck.fields(&c, &t)
	return c.b, t.strs
}

// decodeState reads a checkpoint's state walk against its value table,
// whole: trailing bytes are as malformed as missing ones.
func decodeState(state []byte, table []string) (*checkpoint, error) {
	ck := &checkpoint{}
	c := walCodec{b: state, dec: true}
	ck.fields(&c, &valueTable{strs: table})
	if c.err == nil && len(c.b) > 0 {
		c.err = fmt.Errorf("jobsvc: %d bytes after the checkpoint state", len(c.b))
	}
	return ck, c.err
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
	ck := checkpoint{ledgers: [2]slotLedger{*s.mapLedger, *s.reduceLedger}}
	for _, j := range s.jobs {
		if j.decided {
			ck.decided = append(ck.decided, *j)
		}
	}
	for _, t := range s.order {
		ck.tenants = append(ck.tenants, *t)
	}
	if p := s.opts.SharedCache; p != nil {
		ck.pool = p.Dump()
	}
	if reg := jl.d.Registry; reg != nil {
		for _, name := range reg.Names() {
			ix := indexCkpt{name: name}
			ix.splits, ix.total = reg.CoveredSplits(name)
			ck.indices = append(ck.indices, ix)
		}
	}
	state, table := ck.encode(jl.buf[:0])
	jl.buf = state
	b := fstore.NewBuilder()
	b.Add(ckptState, ckptVersion, string(state))
	b.Add(ckptValues, int64(len(table)), table...)
	name := fmt.Sprintf("ckpt-%06d.fst", jl.ckptSeq+1)
	if err := b.WriteFileFS(jl.fs, filepath.Join(jl.d.Dir, name)); err != nil {
		// The snapshot never became durable; keep journaling against the
		// previous checkpoint and retry at the next quiescent point.
		jl.fail(fmt.Errorf("jobsvc: checkpoint %s: %w", name, err))
		return
	}
	jl.ckptSeq++
	jl.append(svcRec{kind: recCkpt, file: name, n: len(ck.decided)})
	jl.newlyDecided = 0
}

// loadCheckpoint opens a checkpoint snapshot and decodes it whole, the
// state from a view of the mapping (the walk copies out what it keeps).
// Any validation or decode failure is an error, so Recover falls back to
// an earlier checkpoint having applied nothing of this one.
func loadCheckpoint(path string) (*checkpoint, error) {
	snap, err := fstore.Open(path, fstore.Options{})
	if err != nil {
		return nil, err
	}
	defer snap.Close()
	i, ok := snap.Find(ckptState)
	if !ok {
		return nil, fmt.Errorf("jobsvc: %s is not a service checkpoint", path)
	}
	if rev := snap.Revision(i); rev != ckptVersion {
		return nil, fmt.Errorf("jobsvc: checkpoint %s is layout version %d, this build reads version %d only", path, rev, ckptVersion)
	}
	for j := 0; j < snap.Len(); j++ {
		if key := snap.Key(j); key != ckptState && key != ckptValues {
			return nil, fmt.Errorf("jobsvc: checkpoint %s holds key %q, which layout version %d does not have", path, key, ckptVersion)
		}
	}
	var table []string // its revision is its length: a lost string is an error, not a shift
	if j, ok := snap.Find(ckptValues); ok {
		if table, err = snap.Values(j); err == nil && int64(len(table)) != snap.Revision(j) {
			err = fmt.Errorf("value table holds %d strings, want %d", len(table), snap.Revision(j))
		}
	}
	var ck *checkpoint
	if err == nil {
		values := 0
		err = snap.View(i, func(v []byte) error {
			values++
			ck, err = decodeState(v, table)
			return err
		})
		if err == nil && values != 1 {
			err = fmt.Errorf("state entry has %d values, want 1", values)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("jobsvc: checkpoint %s: %w", path, err)
	}
	return ck, nil
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
