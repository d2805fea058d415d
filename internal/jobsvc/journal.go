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
	"efind/internal/sim"
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

// walEnc builds one record payload.
type walEnc struct{ b []byte }

func (e *walEnc) u64(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

func (e *walEnc) i64(v int64)   { e.u64(uint64(v)) }
func (e *walEnc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *walEnc) boolv(v bool) {
	if v {
		e.u64(1)
	} else {
		e.u64(0)
	}
}
func (e *walEnc) str(s string) { e.u64(uint64(len(s))); e.b = append(e.b, s...) }
func (e *walEnc) cmap(m map[string]int64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.i64(m[k])
	}
}

// walDec reads one record payload; the first malformed field poisons it.
type walDec struct {
	b   []byte
	err error
}

func (d *walDec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errors.New("jobsvc: journal record truncated")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads an element count. Every element takes at least one byte,
// so a count above the bytes remaining is malformed; rejecting it here
// keeps a CRC-valid but wrong value from sizing an allocation.
func (d *walDec) count() uint64 {
	n := d.u64()
	if d.err == nil && n > uint64(len(d.b)) {
		d.err = errors.New("jobsvc: journal count exceeds payload")
		return 0
	}
	return n
}

func (d *walDec) i64() int64   { return int64(d.u64()) }
func (d *walDec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *walDec) boolv() bool  { return d.u64() != 0 }
func (d *walDec) str() string {
	l := d.u64()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < l {
		d.err = errors.New("jobsvc: journal string truncated")
		return ""
	}
	s := string(d.b[:l])
	d.b = d.b[l:]
	return s
}

func (d *walDec) cmap() map[string]int64 {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	m := make(map[string]int64, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		k := d.str()
		m[k] = d.i64()
	}
	return m
}

// encodeStatus renders a decided JobStatus as the stable byte form used
// both inside recDone records and in checkpoint "sub:" entries. The
// Recovered flag and the Output file are deliberately not encoded:
// recovery synthesizes a Result carrying the scalars, counters, and the
// output fingerprint, and marks the status Recovered itself.
func encodeStatus(st *JobStatus) []byte {
	var e walEnc
	e.u64(uint64(st.State))
	e.str(st.Tenant)
	e.str(st.Name)
	e.str(st.ID)
	e.str(st.Reason)
	e.f64(st.Submitted)
	e.f64(st.Admitted)
	e.f64(st.Finished)
	e.f64(st.ServeSeconds)
	e.u64(st.OutputFP)
	errMsg := ""
	if st.Err != nil {
		errMsg = st.Err.Error()
	}
	e.str(errMsg)
	if r := st.Result; r != nil {
		e.boolv(true)
		e.f64(r.VTime)
		e.u64(uint64(r.JobsRun))
		e.boolv(r.Replanned)
		e.str(r.ReplanPhase)
		e.cmap(r.Counters)
		e.cmap(r.IndexErrors)
	} else {
		e.boolv(false)
	}
	return e.b
}

func decodeStatus(d *walDec) JobStatus {
	var st JobStatus
	st.State = JobState(d.u64())
	st.Tenant = d.str()
	st.Name = d.str()
	st.ID = d.str()
	st.Reason = d.str()
	st.Submitted = d.f64()
	st.Admitted = d.f64()
	st.Finished = d.f64()
	st.ServeSeconds = d.f64()
	st.OutputFP = d.u64()
	if msg := d.str(); msg != "" {
		st.Err = errors.New(msg)
	}
	if d.boolv() {
		r := &core.JobResult{}
		r.VTime = d.f64()
		r.JobsRun = int(d.u64())
		r.Replanned = d.boolv()
		r.ReplanPhase = d.str()
		r.Counters = d.cmap()
		r.IndexErrors = d.cmap()
		st.Result = r
	}
	return st
}

// svcRec is one decoded journal record (a tagged union over the kinds).
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
	payload  []byte
}

// decodeRec parses one journal payload.
func decodeRec(payload []byte) (svcRec, error) {
	d := &walDec{b: payload}
	r := svcRec{payload: payload}
	r.kind = int(d.u64())
	switch r.kind {
	case recHello:
		r.n = int(d.u64()) // format version
		r.hash = d.u64()
	case recTrace:
		r.hash = d.u64()
		r.n = int(d.u64())
	case recAdmit:
		r.subIdx = int(d.u64())
		r.seq = int(d.u64())
		r.id = d.str()
		r.at = d.f64()
		r.seed = d.i64()
	case recReject:
		r.subIdx = int(d.u64())
		r.reason = d.str()
	case recGrant:
		r.subIdx = int(d.u64())
		r.taskKind = int(d.u64())
		r.want = int(d.u64())
		r.at = d.f64()
		r.start = d.f64()
	case recEnd:
		r.subIdx = int(d.u64())
		r.taskKind = int(d.u64())
		r.start = d.f64()
		r.end = d.f64()
	case recDone:
		r.subIdx = int(d.u64())
		r.regFP = d.u64()
		r.st = decodeStatus(d)
	case recCkpt:
		r.file = d.str()
		r.n = int(d.u64())
	default:
		return r, fmt.Errorf("jobsvc: unknown journal record kind %d", r.kind)
	}
	return r, d.err
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
// sub index); hello and trace use index -1.
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
		case recHello, recTrace:
			jl.expect[expectKey{r.kind, -1}] = append(jl.expect[expectKey{r.kind, -1}], r.payload)
			continue
		}
		k := expectKey{r.kind, r.subIdx}
		jl.expect[k] = append(jl.expect[k], r.payload)
	}
}

// append journals one record, first verifying it against the replayed
// baseline when one exists. Journaling failures are sticky and reported
// via Service.DurableErr, but never fail the run: the scheduler's
// decisions stand, they just stop being durable.
func (jl *journal) append(kind, subIdx int, payload []byte) {
	k := expectKey{kind, subIdx}
	if q := jl.expect[k]; len(q) > 0 {
		want := q[0]
		jl.expect[k] = q[1:]
		if string(want) != string(payload) && jl.report != nil {
			jl.report.Divergences = append(jl.report.Divergences,
				fmt.Sprintf("%s record for sub %d diverges from the journal (%d vs %d bytes)",
					recKindName(kind), subIdx, len(payload), len(want)))
		}
	}
	jl.buf = payload
	// A record recovery acts on — a decision, a checkpoint — commits the
	// journal up to itself; the others ride to the next sync.
	write := jl.log.AppendLazy
	if kind == recDone || kind == recReject || kind == recCkpt {
		write = jl.log.Append
	}
	if err := write(payload); err != nil {
		jl.fail(err)
	}
}

func (jl *journal) appendHello(tenantHash uint64) {
	e := walEnc{b: jl.buf[:0]}
	e.u64(recHello)
	e.u64(journalVersion)
	e.u64(tenantHash)
	jl.append(recHello, -1, e.b)
}

func (jl *journal) appendTrace(subsHash uint64, n int) {
	e := walEnc{b: jl.buf[:0]}
	e.u64(recTrace)
	e.u64(subsHash)
	e.u64(uint64(n))
	jl.append(recTrace, -1, e.b)
}

func (jl *journal) appendAdmit(subIdx, seq int, id string, at float64, seed int64) {
	e := walEnc{b: jl.buf[:0]}
	e.u64(recAdmit)
	e.u64(uint64(subIdx))
	e.u64(uint64(seq))
	e.str(id)
	e.f64(at)
	e.i64(seed)
	jl.append(recAdmit, subIdx, e.b)
}

func (jl *journal) appendReject(subIdx int, reason string) {
	e := walEnc{b: jl.buf[:0]}
	e.u64(recReject)
	e.u64(uint64(subIdx))
	e.str(reason)
	jl.append(recReject, subIdx, e.b)
}

func (jl *journal) appendGrant(subIdx, taskKind, want int, ready, start float64) {
	e := walEnc{b: jl.buf[:0]}
	e.u64(recGrant)
	e.u64(uint64(subIdx))
	e.u64(uint64(taskKind))
	e.u64(uint64(want))
	e.f64(ready)
	e.f64(start)
	jl.append(recGrant, subIdx, e.b)
}

func (jl *journal) appendEnd(subIdx, taskKind int, start, end float64) {
	e := walEnc{b: jl.buf[:0]}
	e.u64(recEnd)
	e.u64(uint64(subIdx))
	e.u64(uint64(taskKind))
	e.f64(start)
	e.f64(end)
	jl.append(recEnd, subIdx, e.b)
}

func (jl *journal) appendDone(subIdx int, regFP uint64, st *JobStatus) {
	e := walEnc{b: jl.buf[:0]}
	e.u64(recDone)
	e.u64(uint64(subIdx))
	e.u64(regFP)
	e.b = append(e.b, encodeStatus(st)...)
	jl.append(recDone, subIdx, e.b)
}

func (jl *journal) appendCkpt(file string, decided int) {
	e := walEnc{b: jl.buf[:0]}
	e.u64(recCkpt)
	e.str(file)
	e.u64(uint64(decided))
	jl.append(recCkpt, -1, e.b)
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

func encodeLedger(l *slotLedger) []byte {
	var e walEnc
	e.u64(uint64(l.perNode))
	e.u64(uint64(len(l.freeAt)))
	for _, t := range l.freeAt {
		e.f64(t)
	}
	return e.b
}

func decodeLedger(d *walDec) (l ledgerCkpt) {
	l.perNode = int(d.u64())
	n := d.count()
	l.freeAt = make([]float64, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		l.freeAt = append(l.freeAt, d.f64())
	}
	return l
}

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
		enc := walEnc{b: buf[:0]}
		enc.str(pe.Index)
		enc.u64(uint64(pe.Node))
		enc.i64(pe.Hits)
		enc.i64(pe.Misses)
		enc.u64(uint64(len(pe.Keys)))
		for i, k := range pe.Keys {
			values := pe.Values[i]
			at, seen := first[[2]string{pe.Index, k}]
			if end := at + 1 + len(values); !seen || end > len(table) || !slices.Equal(table[at+1:end], values) {
				if at = len(table); !seen {
					first[[2]string{pe.Index, k}] = at
				}
				table = append(append(table, k), values...)
			}
			enc.u64(uint64(at))
			enc.u64(uint64(len(values)))
		}
		buf = enc.b
		b.Add(fmt.Sprintf("%s%s|%08d", ckptPoolPrefix, pe.Index, pe.Node), int64(pe.Node), string(buf))
	}
	b.Add(ckptPoolValues, int64(len(table)), table...)
	return buf
}

// decodePool reads one pooled cache, resolving its entries against the
// value table; caches then share the table's strings.
func decodePool(d *walDec, table []string) (e ixclient.PoolEntry) {
	e.Index = d.str()
	e.Node = sim.NodeID(d.u64())
	e.Hits = d.i64()
	e.Misses = d.i64()
	n := d.count()
	for i := uint64(0); i < n && d.err == nil; i++ {
		at, vn := d.u64(), d.u64()
		if d.err == nil && (at >= uint64(len(table)) || vn >= uint64(len(table))-at) {
			d.err = fmt.Errorf("jobsvc: pool entry of %d values at %d lies outside the %d-string value table", vn, at, len(table))
		} else if d.err == nil {
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
	decided := 0
	for _, j := range s.jobs {
		if !j.decided {
			continue
		}
		b.Add(fmt.Sprintf("%s%06d", ckptSubPrefix, j.idx), int64(j.status.State), string(encodeStatus(&j.status)))
		decided++
	}
	for _, t := range s.order {
		var e walEnc
		e.f64(t.spent)
		b.Add(ckptTenPrefix+t.cfg.Name, int64(t.seq), string(e.b))
	}
	b.Add(ckptLedMap, 0, string(encodeLedger(s.mapLedger)))
	b.Add(ckptLedReduce, 0, string(encodeLedger(s.reduceLedger)))
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
	jl.appendCkpt(name, decided)
	jl.newlyDecided = 0
}

// checkpoint is one loaded checkpoint snapshot.
type checkpoint struct {
	path    string
	decided map[int]JobStatus
	tenants map[string]tenantCkpt
	ledgers map[string]ledgerCkpt
	pool    []ixclient.PoolEntry
}

type tenantCkpt struct {
	seq   int
	spent float64
}

type ledgerCkpt struct {
	perNode int
	freeAt  []float64
}

// loadCheckpoint opens and fully decodes a checkpoint snapshot, merging
// registry coverage into reg when given. Entries are decoded from views
// of the mapping; the field decoders copy out what is kept. Any
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
		ledgers: make(map[string]ledgerCkpt),
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
	d := &walDec{b: v}
	switch {
	case key == ckptLedMap || key == ckptLedReduce:
		ck.ledgers[key] = decodeLedger(d)
	case strings.HasPrefix(key, ckptSubPrefix):
		idx, err := strconv.Atoi(key[len(ckptSubPrefix):])
		if err != nil {
			return fmt.Errorf("bad sub key %q", key)
		}
		ck.decided[idx] = decodeStatus(d)
	case strings.HasPrefix(key, ckptTenPrefix):
		ck.tenants[key[len(ckptTenPrefix):]] = tenantCkpt{seq: int(rev), spent: d.f64()}
	case strings.HasPrefix(key, ckptPoolPrefix):
		ck.pool = append(ck.pool, decodePool(d, table))
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return d.err
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
