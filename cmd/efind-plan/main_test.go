package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"efind/internal/core"
	"efind/internal/dfs"
	"efind/internal/jobsvc"
	"efind/internal/kvstore"
	"efind/internal/mapreduce"
	"efind/internal/obs"
	"efind/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/whatif.golden")

// whatIfInvocations are the what-if command lines the README and the
// command's doc comment show, plus the shapes they leave out: the chosen
// plan alone, an index without a partition scheme, and a buildable index
// that cannot build (tail operator, build strategy disabled).
var whatIfInvocations = []string{
	"-n1 100000 -nik 1 -sik 20 -siv 1024 -tj 0.8ms -theta 8 -r 0.9",
	"-theta 1 -r 1 -siv 30720",
	"-pos head -build-total 240 -build-covered 60",
	"-theta 8 -r 0.9 -siv 1024 -tj 0.8ms",
	"-explain -pos head -build-total 240 -build-covered 60",
	"-explain=false -theta 8 -r 0.9",
	"-explain=false -pos head -build-total 240 -build-covered 60",
	"-partitioned=false -pos tail -theta 40 -r 0.95",
	"-pos tail -build-total 16 -build-covered 16 -build-horizon -1 -partitioned=false",
	"-pos head -build-total 10 -build-covered 9 -build-offer 0.5 -build-horizon 2.5 -r 0.2",
}

// TestWhatIfGolden pins every byte the what-if mode prints. The golden was
// generated before the tool stopped assembling build models and stand-in
// accessors of its own, and that change does not regenerate it.
func TestWhatIfGolden(t *testing.T) {
	var got bytes.Buffer
	for _, inv := range whatIfInvocations {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(inv), &stdout, &stderr); code != 0 || stderr.Len() != 0 {
			t.Fatalf("efind-plan %s: exit %d, stderr %q", inv, code, stderr.String())
		}
		fmt.Fprintf(&got, "$ efind-plan %s\n%s\n", inv, stdout.String())
	}
	const path = "testdata/whatif.golden"
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Fatalf("what-if output moved; want\n%s\ngot\n%s", want, got.Bytes())
	}
}

// TestRejectedFlags: a flag value the model cannot price is one line on
// stderr and exit status 1, with nothing on stdout.
func TestRejectedFlags(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-pos middle", `unknown position "middle"`},
		{"-build-total 8 -build-covered 9", "-build-covered must be in [0, 8]"},
		{"-bw 0", "-bw must be positive"},
		{"-bw -125e6", "-bw must be positive"},
		{"-bw NaN", "-bw must be positive"},
		{"-n1 -1", "-n1 must not be negative"},
		{"-nik -0.5", "-nik must not be negative"},
		{"-sik -20", "-sik must not be negative"},
		{"-siv -1024", "-siv must not be negative"},
		{"-spre -1", "-spre must not be negative"},
		{"-spost -1", "-spost must not be negative"},
		{"-f -2.5e-8", "-f must not be negative"},
		{"-startup -0.005", "-startup must not be negative"},
		{"-tj -1ms", "-tj must not be negative"},
		{"-r 1.01", "-r must be in [0, 1]"},
		{"-r -0.1", "-r must be in [0, 1]"},
		{"-explain=false -r NaN", "-r must be in [0, 1]"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		msg := stderr.String()
		if code != 1 || stdout.Len() != 0 || !strings.Contains(msg, tc.want) ||
			!strings.HasPrefix(msg, "efind-plan: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("efind-plan %s: exit %d, stdout %q, stderr %q; want exit 1 and one line naming %q",
				tc.args, code, stdout.String(), msg, tc.want)
		}
	}
}

// TestProfileMode: -profile prints core.RenderProfile of the file, one
// line each.
func TestProfileMode(t *testing.T) {
	const path = "../efind-bench/testdata/fig12.json"
	p, err := obs.ReadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(core.RenderProfile(p), "\n") + "\n"
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-profile", path}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("efind-plan -profile: exit %d, stderr %q", code, stderr.String())
	}
	if stdout.String() != want {
		t.Fatalf("efind-plan -profile printed\n%s\nwant\n%s", stdout.String(), want)
	}
}

// TestWALMode: -wal prints jobsvc.DescribeJournal of the journal a
// one-job durable service writes, and rejects a directory without one.
func TestWALMode(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cluster := sim.NewCluster(sim.DefaultConfig())
	fs := dfs.New(cluster)
	input, err := fs.Create("in", []dfs.Record{{Key: "r1", Value: "k1"}, {Key: "r2", Value: "k2"}})
	if err != nil {
		t.Fatal(err)
	}
	store := kvstore.NewHash(cluster, "kv", 4, 2, 1e-4)
	store.Put("k1", "v1")
	conf := &core.IndexJobConf{Name: "solo", Input: input, Mode: core.ModeBaseline}
	conf.AddHeadIndexOperator(core.NewOperator("op", func(in core.Pair) core.PreResult {
		return core.PreResult{Pair: in, Keys: [][]string{{in.Value}}}
	}, nil).AddIndex(store))
	svc, err := jobsvc.New(core.NewRuntime(mapreduce.New(cluster, fs)), []jobsvc.TenantConfig{{Name: "t"}},
		jobsvc.Options{Durable: &jobsvc.Durability{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if st := svc.Run([]jobsvc.Submission{{Tenant: "t", Conf: conf}}); st[0].State != jobsvc.JobCompleted {
		t.Fatalf("job state %v, err %v", st[0].State, st[0].Err)
	}
	lines, err := jobsvc.DescribeJournal(dir)
	if err != nil || len(lines) == 0 {
		t.Fatalf("DescribeJournal: %d lines, err %v", len(lines), err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-wal", dir}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("efind-plan -wal: exit %d, stderr %q", code, stderr.String())
	}
	if want := strings.Join(lines, "\n") + "\n"; stdout.String() != want {
		t.Fatalf("efind-plan -wal printed\n%s\nwant\n%s", stdout.String(), want)
	}

	stdout.Reset()
	stderr.Reset()
	missing := filepath.Join(t.TempDir(), "no-such-journal")
	code := run([]string{"-wal", missing}, &stdout, &stderr)
	msg := stderr.String()
	if code != 1 || stdout.Len() != 0 || !strings.HasPrefix(msg, "efind-plan: no journal segment in ") || strings.Count(msg, "\n") != 1 {
		t.Fatalf("efind-plan -wal %s: exit %d, stdout %q, stderr %q; want exit 1 and one line", missing, code, stdout.String(), msg)
	}
}
