package jobsvc

import (
	"fmt"
	"path/filepath"
	"strings"

	"efind/internal/core"
	"efind/internal/wal"
)

// RecoveryReport describes what Recover found and did.
type RecoveryReport struct {
	// Checkpoint is the snapshot file the recovered state came from
	// ("" when no checkpoint had been written before the crash).
	Checkpoint string
	// CheckpointsSkipped lists checkpoints named in the journal that
	// failed to load (corrupt, torn, missing), newest first; recovery
	// fell back past them.
	CheckpointsSkipped []string
	// RecordsReplayed counts the journal records read.
	RecordsReplayed int
	// TornTail reports whether the final segment ended mid-frame — the
	// signature of a crash during an append.
	TornTail bool
	// TornBytesDiscarded is how many trailing bytes the repair dropped.
	TornBytesDiscarded int
	// DecidedJobs is how many submissions the checkpoint already
	// decided; they report cached results without re-running.
	DecidedJobs int
	// OrphansRemoved counts the temp files of cut-short atomic writes
	// that recovery deleted.
	OrphansRemoved int
	// Divergences lists re-derived decisions that failed to byte-match
	// their journaled record. Empty on a faithful recovery; non-empty
	// means the environment or trace handed to Recover differs from the
	// original run's.
	Divergences []string
}

// Recover rebuilds a Service from a durability directory: it replays
// the write-ahead journal, restores the newest loadable checkpoint
// (decided job statuses, tenant accounting, slot ledgers, the shared
// cache pool's contents, and adaptive-registry coverage), repairs any
// torn journal tail, and returns a Service ready to Run the same
// submission trace. Checkpoint-decided submissions report their cached
// status (Recovered = true, Result synthesized from the journal — the
// output file itself is not reproduced); the rest re-execute
// deterministically, and every re-derived decision is verified against
// the journaled one, with mismatches collected in the report.
//
// The caller must rebuild the same deterministic environment the
// original run used (cluster, DFS inputs, stores, job confs): the
// service journals scheduling state, not the simulated world. Adaptive
// indexes should be re-attached to Options.Durable.Registry and
// re-materialized (adaptix.Buildable.Materialize) after Recover returns.
func Recover(rt *core.Runtime, tenants []TenantConfig, opts Options) (*Service, *RecoveryReport, error) {
	d := opts.Durable
	if d == nil {
		return nil, nil, fmt.Errorf("jobsvc: Recover requires Options.Durable")
	}
	fs := d.fsOrOS()
	rep := &RecoveryReport{}

	raw, torn, err := wal.Replay(fs, d.Dir)
	if err != nil {
		return nil, nil, err
	}
	rep.TornTail = torn
	rep.RecordsReplayed = len(raw)
	recs := make([]svcRec, 0, len(raw))
	for i, r := range raw {
		dr, err := decodeRec(r.Payload)
		if err != nil {
			return nil, nil, fmt.Errorf("jobsvc: journal record %d (%s): %w", i, r.Segment, err)
		}
		if dr.kind == recHello && dr.n != journalVersion {
			return nil, nil, fmt.Errorf("jobsvc: journal %s (%s) is format version %d, this build reads version %d only (the output fingerprint was redefined): re-run from a fresh journal directory",
				d.Dir, r.Segment, dr.n, journalVersion)
		}
		recs = append(recs, dr)
	}

	// Newest loadable checkpoint wins; corrupt or missing ones are
	// skipped (their records were durable, their files were not — e.g.
	// an injected rename failure after the journal append).
	var ck *checkpoint
	var ckFile string
	ckpts := 0 // checkpoint records; they name ckpt-000001.fst, ckpt-000002.fst, … in journal order
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].kind != recCkpt {
			continue
		}
		if ckpts++; ck != nil {
			continue
		}
		c, err := loadCheckpoint(filepath.Join(d.Dir, recs[i].file))
		if err != nil {
			rep.CheckpointsSkipped = append(rep.CheckpointsSkipped, fmt.Sprintf("%s: %v", recs[i].file, err))
			continue
		}
		ck, ckFile = c, recs[i].file
	}

	// Truncate the torn tail before the new segment opens, so the next
	// replay sees a clean record stream.
	discarded, err := wal.Repair(fs, d.Dir)
	if err != nil {
		return nil, nil, err
	}
	rep.TornBytesDiscarded = discarded
	// Best effort: the temp file of an atomic write the crash cut short.
	names, _ := fs.ReadDir(d.Dir)
	for _, name := range names {
		if (strings.HasPrefix(name, ".fstore-") || strings.HasPrefix(name, ".vfs-")) && fs.Remove(filepath.Join(d.Dir, name)) == nil {
			rep.OrphansRemoved++
		}
	}

	s, err := newService(rt, tenants, opts)
	if err != nil {
		return nil, nil, err
	}
	// Every check against the service comes before the journal's new
	// segment opens: a refused checkpoint leaves the directory as it was.
	if ck != nil {
		for _, tc := range ck.tenants {
			t, ok := s.tenants[tc.cfg.Name]
			if !ok {
				return nil, nil, fmt.Errorf("jobsvc: checkpoint %s names tenant %q the service does not configure", ckFile, tc.cfg.Name)
			}
			t.seq, t.spent = tc.seq, tc.spent
		}
		for i, led := range []*slotLedger{s.mapLedger, s.reduceLedger} {
			l := &ck.ledgers[i]
			if l.perNode != led.perNode || len(l.freeAt) != len(led.freeAt) {
				return nil, nil, fmt.Errorf("jobsvc: checkpoint %s %s ledger shaped %dx%d, cluster has %dx%d — recover against the same cluster config",
					ckFile, [2]string{"map", "reduce"}[i], len(l.freeAt)/max(l.perNode, 1), l.perNode, len(led.freeAt)/max(led.perNode, 1), led.perNode)
			}
			copy(led.freeAt, l.freeAt)
		}
		if len(ck.pool) > 0 && opts.SharedCache == nil {
			return nil, nil, fmt.Errorf("jobsvc: checkpoint %s holds shared-pool state but Options.SharedCache is nil", ckFile)
		}
	}
	jl, err := openJournal(d)
	if err != nil {
		return nil, nil, err
	}
	jl.report = rep
	jl.ckptSeq = ckpts
	jl.installExpectations(recs)

	if ck != nil {
		rep.Checkpoint = ckFile
		jl.decided = ck.decided
		rep.DecidedJobs = len(ck.decided)
		if len(ck.pool) > 0 {
			opts.SharedCache.Restore(ck.pool)
		}
		// Past every check: a Recover that fails leaves the registry as it was.
		if reg := d.Registry; reg != nil {
			for _, ix := range ck.indices {
				reg.Register(ix.name, ix.total)
				for _, split := range ix.splits {
					reg.MarkBuilt(ix.name, split)
				}
			}
		}
	}

	s.jl = jl
	jl.append(svcRec{kind: recHello, n: journalVersion, hash: tenantHash(tenants)})
	return s, rep, nil
}
