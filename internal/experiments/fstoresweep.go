package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"efind/internal/core"
	"efind/internal/fstore"
	"efind/internal/kvstore"
	"efind/internal/obs"
)

// synRunSignature holds everything a backend change must not alter: the
// virtual time, the output records' digest, the task counters (printed,
// which sorts them by name), and the index's lookup/miss totals — apart,
// so a divergence report can say which of them moved.
type synRunSignature struct {
	vtime    float64
	out      uint64
	counters string
	lookups  int64
	misses   int64
}

// runSynBackend executes the Fig. 11(f) synthetic join under the
// baseline strategy with the chosen storage backend. File-backed runs
// put both the DFS (input and every intermediate file) and the index
// store onto fstore snapshots, then release every mapping and verify
// none leaked.
func runSynBackend(scale Scale, tr *obs.Trace, l int, fileBacked bool) (synRunSignature, error) {
	backend := "mem"
	if fileBacked {
		backend = "file"
	}
	handles0 := fstore.OpenHandles()
	var dir string
	if fileBacked {
		var err error
		dir, err = os.MkdirTemp("", "efind-fstore-sweep")
		if err != nil {
			return synRunSignature{}, err
		}
		defer os.RemoveAll(dir)
	}

	var store *kvstore.Store
	lg := leg{trace: tr, section: fmt.Sprintf("fstore-sweep/l=%d/%s", l, backend), column: "base", job: "syn-" + backend}
	run, err := runLeg(lg, func(env *lab) (strategyJob, error) {
		if fileBacked {
			if err := env.fs.SetBacking(filepath.Join(dir, "dfs")); err != nil {
				return strategyJob{}, err
			}
		}
		input, s, err := env.genSyn(scale, l)
		if err != nil {
			return strategyJob{}, err
		}
		if store = s; fileBacked {
			if err := store.Freeze(filepath.Join(dir, "kv")); err != nil {
				return strategyJob{}, err
			}
		}
		build := func(name string) *core.IndexJobConf { return buildSynConf(name, input, store, core.ModeBaseline) }
		return strategyJob{build: build, op: "syn", ix: store.Name()}, nil
	})
	if err != nil {
		return synRunSignature{}, err
	}
	fp, err := run.res.Output.Fingerprint()
	if err != nil {
		return synRunSignature{}, err
	}
	sig := synRunSignature{
		vtime:    run.res.VTime,
		out:      fp,
		counters: fmt.Sprint(run.res.Counters),
		lookups:  store.Lookups(),
		misses:   store.Misses(),
	}

	if err := run.engine.Close(); err != nil {
		return synRunSignature{}, err
	}
	if err := store.Close(); err != nil {
		return synRunSignature{}, err
	}
	if leaked := fstore.OpenHandles() - handles0; leaked != 0 {
		return synRunSignature{}, fmt.Errorf("fstore-sweep l=%d %s: %d snapshot handle(s) leaked after shutdown", l, backend, leaked)
	}
	return sig, nil
}

// FStoreSweep compares the in-memory and file-backed (mmap snapshot)
// storage backends on the Fig. 11(f) synthetic family. The backends must
// agree bit-for-bit — same output records, same counters, same index
// traffic, same virtual time — because file-backing changes only where
// bytes live, never what the simulation computes; the "identical" column
// is 1 exactly when they do, and a 0 fails the experiment.
func FStoreSweep(scale Scale, tr *obs.Trace) (*Table, error) {
	t := &Table{
		Title:   "fstore sweep: in-memory vs mmap-snapshot backend — runtime (virtual s) vs index value size l",
		Columns: []string{"mem", "file", "identical"},
	}
	if !fstore.MmapAvailable() {
		t.Note("mmap unavailable on this platform; file-backed runs use the read fallback")
	}
	for _, l := range scale.SynSizes {
		mem, err := runSynBackend(scale, tr, l, false)
		if err != nil {
			return nil, err
		}
		file, err := runSynBackend(scale, tr, l, true)
		if err != nil {
			return nil, err
		}
		identical := 0.0
		if mem == file {
			identical = 1.0
		} else {
			t.Note("l=%dB DIVERGED: mem={vt=%.6f out=%016x lk=%d ms=%d} file={vt=%.6f out=%016x lk=%d ms=%d} counters equal: %v",
				l, mem.vtime, mem.out, mem.lookups, mem.misses, file.vtime, file.out, file.lookups, file.misses, mem.counters == file.counters)
		}
		t.Add(fmt.Sprintf("l=%dB", l), mem.vtime, file.vtime, identical)
	}
	t.claim(len(t.Rows) == len(scale.SynSizes), "%d rows, want one per size (%d)", len(t.Rows), len(scale.SynSizes))
	for _, r := range t.Rows {
		mem, file := t.at(r.Label, "mem"), t.at(r.Label, "file")
		t.claim(t.at(r.Label, "identical") == 1, "%s: file-backed leg diverged from in-memory (see the note)", r.Label)
		t.claim(mem > 0 && file > 0, "%s: runtimes non-positive: mem=%v file=%v", r.Label, mem, file)
		t.claim(mem == file, "%s: virtual runtimes differ: mem=%v file=%v", r.Label, mem, file)
	}
	return t, t.err
}
