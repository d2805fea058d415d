package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"efind/internal/index"
	"efind/internal/ixclient"
)

// flakyAccessor fails every failEvery-th lookup with a transient error.
// Safe for the parallel executor's concurrent lookups.
type flakyAccessor struct {
	fakeAccessor
	failEvery int64
	calls     atomic.Int64
}

func (f *flakyAccessor) Lookup(k string) ([]string, error) {
	if n := f.calls.Add(1); f.failEvery > 0 && n%f.failEvery == 0 {
		return nil, fmt.Errorf("flaky: %w", index.ErrTransient)
	}
	return f.fakeAccessor.Lookup(k)
}

// TestErrorFailJobReportsIndexAndKey: under ErrorFailJob an index error
// must fail the whole job — no silent empty results — and the error must
// name the failing index and the lookup key.
func TestErrorFailJobReportsIndexAndKey(t *testing.T) {
	e := newE2E(t, 100, 10)
	op := NewOperator("err-op", nil, nil).AddIndex(failingAccessor{fakeAccessor{name: "down"}})
	conf := e.conf("job-failpolicy", ModeBaseline, op, headPlace)
	conf.ErrorPolicy = ErrorFailJob
	_, err := e.rt.Submit(conf)
	if err == nil {
		t.Fatal("job with a failing index under ErrorFailJob must fail")
	}
	var ie *ixclient.IndexError
	if !errors.As(err, &ie) {
		t.Fatalf("error %v does not unwrap to an IndexError", err)
	}
	if ie.Index != "down" || ie.Op != "err-op" {
		t.Fatalf("IndexError names %s/%s, want err-op/down", ie.Op, ie.Index)
	}
	if ie.Key == "" || !strings.Contains(err.Error(), ie.Key) {
		t.Fatalf("error %q does not report the lookup key", err)
	}
}

// TestJobResultReportsIndexErrorTotals: every submission reports per-index
// error totals, zero entries included.
func TestJobResultReportsIndexErrorTotals(t *testing.T) {
	e := newE2E(t, 100, 10)

	op := NewOperator("err-op", nil, nil).AddIndex(failingAccessor{fakeAccessor{name: "down"}})
	res, err := e.rt.Submit(e.conf("job-errtotals", ModeBaseline, op, headPlace))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.IndexErrors["err-op/down"]; got != 100 {
		t.Fatalf("IndexErrors[err-op/down] = %d, want 100", got)
	}

	ok := e.lookupOp("ok-op")
	res, err = e.rt.Submit(e.conf("job-noerr", ModeBaseline, ok, headPlace))
	if err != nil {
		t.Fatal(err)
	}
	got, present := res.IndexErrors["ok-op/"+e.store.Name()]
	if !present {
		t.Fatal("IndexErrors must contain a zero entry for a healthy index")
	}
	if got != 0 {
		t.Fatalf("IndexErrors for healthy index = %d, want 0", got)
	}
}

// TestIdenticalCacheRunsAgree: two submissions of the same lookup-cache
// job on fresh environments charge the same virtual time and count the
// same counters.
func TestIdenticalCacheRunsAgree(t *testing.T) {
	run := func(name string) *JobResult {
		e := newE2E(t, 400, 25)
		res, err := e.rt.Submit(e.conf(name, ModeCache, e.lookupOp("iop"), headPlace))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run("job-ident-a"), run("job-ident-b")
	if a.VTime != b.VTime {
		t.Fatalf("vtime not deterministic: %g vs %g", a.VTime, b.VTime)
	}
	if len(a.Counters) != len(b.Counters) {
		t.Fatalf("%d counters vs %d", len(a.Counters), len(b.Counters))
	}
	for k, v := range a.Counters {
		if b.Counters[k] != v {
			t.Fatalf("counter %s differs: %d vs %d", k, v, b.Counters[k])
		}
	}
}

// TestRetryPolicySurvivesJobRun: a transiently flaky index with retries
// configured completes the job with full output and counted retries.
func TestRetryPolicySurvivesJobRun(t *testing.T) {
	e := newE2E(t, 100, 10)
	flaky := &flakyAccessor{fakeAccessor: fakeAccessor{name: "flaky"}, failEvery: 7}
	op := NewOperator("r-op", nil, nil).AddIndex(flaky)
	conf := e.conf("job-retry", ModeBaseline, op, headPlace)
	conf.Retry = RetryPolicy{Max: 2, Backoff: 0.0001}
	res, err := e.rt.Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Records() != 100 {
		t.Fatalf("records should still flow: %d", res.Output.Records())
	}
	if r := res.Counters[ixclient.CtrRetries("r-op", "flaky")]; r == 0 {
		t.Fatal("flaky index should have counted retries")
	}
	if n := res.IndexErrors["r-op/flaky"]; n != 0 {
		t.Fatalf("retried lookups should not surface errors, got %d", n)
	}
}
