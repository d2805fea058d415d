package fstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"efind/internal/chaos"
	"efind/internal/vfs"
)

// tempLeft reports any leftover temp files in dir — an atomic write that
// failed must clean up after itself.
func tempLeft(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".fstore-") {
			left = append(left, e.Name())
		}
	}
	return left
}

func TestWriteFileFSUnderInjectedFaults(t *testing.T) {
	mkBuilder := func(tag string) *Builder {
		b := NewBuilder()
		b.Add("alpha", 1, "first-"+tag)
		b.Add("beta", 2, "second-"+tag)
		return b
	}

	for _, kind := range []chaos.FaultKind{chaos.TornWrite, chaos.ShortWrite, chaos.NoSpace, chaos.RenameFail} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "snap.fmc1")

			// A durable generation-1 snapshot the fault must not destroy.
			if err := mkBuilder("old").WriteFile(path); err != nil {
				t.Fatal(err)
			}
			oldBytes, _ := os.ReadFile(path)

			match := ".fstore-"
			if kind == chaos.RenameFail {
				match = "snap.fmc1"
			}
			ffs := chaos.NewFaultFS(vfs.OS{}, chaos.FileFault{Kind: kind, Match: match})
			err := mkBuilder("new").WriteFileFS(ffs, path)
			if err == nil {
				t.Fatalf("%v must surface as an error (even the lying short write, via read-back verification)", kind)
			}
			if kind == chaos.ShortWrite && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("short write error = %v, want write-verification ErrCorrupt", err)
			}

			// The previous durable snapshot is byte-identical and loadable.
			got, _ := os.ReadFile(path)
			if string(got) != string(oldBytes) {
				t.Fatalf("%v damaged the durable snapshot", kind)
			}
			s, err := Open(path, Options{})
			if err != nil {
				t.Fatalf("durable snapshot unreadable after %v: %v", kind, err)
			}
			if _, ok := s.Find("alpha"); !ok {
				t.Fatalf("durable snapshot lost its entries after %v", kind)
			}
			s.Close()

			if left := tempLeft(t, dir); len(left) != 0 {
				t.Fatalf("%v left temp files behind: %v", kind, left)
			}
		})
	}
}

func TestWriteFileFSRetrySucceedsAfterFault(t *testing.T) {
	// One-shot faults model transient storage trouble: the very next
	// write of the same snapshot must commit cleanly.
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.fmc1")
	b := NewBuilder()
	b.Add("k", 7, "v")
	ffs := chaos.NewFaultFS(vfs.OS{}, chaos.FileFault{Kind: chaos.TornWrite, Match: ".fstore-"})
	if err := b.WriteFileFS(ffs, path); err == nil {
		t.Fatal("first write should hit the injected fault")
	}
	if err := b.WriteFileFS(ffs, path); err != nil {
		t.Fatalf("retry after one-shot fault: %v", err)
	}
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if i, ok := s.Find("k"); !ok || s.Revision(i) != 7 {
		t.Fatalf("retried snapshot contents wrong: i=%d ok=%v", i, ok)
	}
}

func TestOpenFailuresLeakNoHandles(t *testing.T) {
	// Every corruption profile that makes Open fail must release the fd
	// and mapping: OpenHandles is the process-global leak meter.
	valid, err := os.ReadFile(writeSnapshot(t, map[string][]string{"a": {"1"}, "b": {"2"}}))
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string]func([]byte) []byte{
		"truncated-header":  func(d []byte) []byte { return d[:20] },
		"bad-magic":         func(d []byte) []byte { c := append([]byte{}, d...); c[0] ^= 0xff; return c },
		"flipped-header":    func(d []byte) []byte { c := append([]byte{}, d...); c[12] ^= 0x01; return c },
		"flipped-tail":      func(d []byte) []byte { c := append([]byte{}, d...); c[len(c)-1] ^= 0xff; return c },
		"truncated-data":    func(d []byte) []byte { return d[:len(d)-3] },
		"empty":             func([]byte) []byte { return nil },
		"grown":             func(d []byte) []byte { return append(append([]byte{}, d...), 0xde, 0xad) },
		"mid-section-zeros": func(d []byte) []byte { c := append([]byte{}, d...); copy(c[len(c)/2:], make([]byte, 8)); return c },
	}
	for name, mutate := range damage {
		for _, noMmap := range []bool{false, true} {
			base := OpenHandles()
			path := filepath.Join(t.TempDir(), name+".fmc1")
			if err := os.WriteFile(path, mutate(append([]byte{}, valid...)), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(path, Options{NoMmap: noMmap})
			if err == nil {
				// Some single-bit damage may land in slack the checksums do
				// not cover; if Open accepted it, the handle must still
				// balance on Close.
				s.Close()
			}
			if got := OpenHandles(); got != base {
				t.Fatalf("%s (noMmap=%v): OpenHandles = %d, want %d — Open leaked on its error path", name, noMmap, got, base)
			}
		}
	}
}

func TestOpenMissingFileLeaksNoHandles(t *testing.T) {
	base := OpenHandles()
	if _, err := Open(filepath.Join(t.TempDir(), "absent.fmc1"), Options{}); err == nil {
		t.Fatal("want error for a missing file")
	}
	if got := OpenHandles(); got != base {
		t.Fatalf("OpenHandles = %d, want %d", got, base)
	}
}

// TestStreamedWriteFaults is the fault matrix of a snapshot that streams
// through several windows: every fault kind at every Write the stream
// makes — a lying short write in the middle shifts everything after it —
// surfaces as an error while the generation-1 snapshot at the path stays
// byte-identical and loadable, leaves no temp file, and an immediate
// retry on the same Builder commits.
func TestStreamedWriteFaults(t *testing.T) {
	value := strings.Repeat("0123456789abcdef", 256) // 4 KB
	mkBuilder := func(rev int64) *Builder {
		b := NewBuilder()
		for i := 0; i < 150; i++ {
			b.Add(fmt.Sprintf("key-%04d", i), rev, value)
		}
		return b
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.fmc1")
	if err := mkBuilder(1).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	gen1, _ := os.ReadFile(path)

	for _, kind := range []chaos.FaultKind{chaos.TornWrite, chaos.ShortWrite, chaos.NoSpace, chaos.RenameFail} {
		writes := 0
		for nth := 1; ; nth++ {
			fault := chaos.FileFault{Kind: kind, Match: ".fstore-", Nth: nth}
			if kind == chaos.RenameFail {
				fault.Match = "snap.fmc1"
			}
			ffs := chaos.NewFaultFS(vfs.OS{}, fault)
			b := mkBuilder(2)
			err := b.WriteFileFS(ffs, path)
			if len(ffs.Injected()) == 0 {
				// The stream makes fewer than nth writes: this write
				// committed generation 2. Restore generation 1 and stop.
				if err != nil {
					t.Fatalf("%v: fault-free write failed: %v", kind, err)
				}
				if err := os.WriteFile(path, gen1, 0o644); err != nil {
					t.Fatal(err)
				}
				break
			}
			writes = nth
			if err == nil {
				t.Fatalf("%v at write %d: no error", kind, nth)
			}
			if kind == chaos.ShortWrite && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("short write at write %d: error = %v, want ErrCorrupt from verification", nth, err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, gen1) {
				t.Fatalf("%v at write %d damaged the snapshot at the path", kind, nth)
			}
			s, err := Open(path, Options{})
			if err != nil {
				t.Fatalf("%v at write %d: generation 1 unreadable: %v", kind, nth, err)
			}
			if i, ok := s.Find("key-0149"); !ok || s.Revision(i) != 1 {
				t.Fatalf("%v at write %d: generation 1 lost its entries", kind, nth)
			}
			s.Close()
			if left := tempLeft(t, dir); len(left) != 0 {
				t.Fatalf("%v at write %d left temp files behind: %v", kind, nth, left)
			}
			// The fault was one-shot: the same builder now commits.
			if err := b.WriteFileFS(ffs, path); err != nil {
				t.Fatalf("%v at write %d: retry: %v", kind, nth, err)
			}
			s, err = Open(path, Options{})
			if err != nil {
				t.Fatalf("%v at write %d: retried snapshot: %v", kind, nth, err)
			}
			if i, ok := s.Find("key-0000"); !ok || s.Revision(i) != 2 {
				t.Fatalf("%v at write %d: retry did not commit generation 2", kind, nth)
			}
			s.Close()
			if err := os.WriteFile(path, gen1, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if want := 4; kind != chaos.RenameFail && writes < want {
			t.Fatalf("%v: the snapshot streamed in %d writes, want >= %d windows", kind, writes, want)
		}
	}

	// Damage between the write and its verification: the temp file changes
	// as it is closed, after every Write was acknowledged in full.
	for name, hurt := range tempDamage {
		err := mkBuilder(2).WriteFileFS(damagingFS{vfs.OS{}, hurt}, path)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("temp file %s before verification: error = %v, want ErrCorrupt", name, err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, gen1) {
			t.Fatalf("temp file %s: the snapshot at the path changed", name)
		}
		if left := tempLeft(t, dir); len(left) != 0 {
			t.Fatalf("temp file %s: temp files left behind: %v", name, left)
		}
	}
}

// tempDamage hurts a closed temp file, by name, before it is verified.
var tempDamage = map[string]func(name string) error{
	"flipped": func(name string) error {
		data, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0x01
		return os.WriteFile(name, data, 0o644)
	},
	"appended": func(name string) error {
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = f.Write([]byte{0})
		return err
	},
	"truncated": func(name string) error {
		info, err := os.Stat(name)
		if err != nil {
			return err
		}
		return os.Truncate(name, info.Size()-1)
	},
}

// damagingFS hands out temp files that are damaged as they are closed —
// after the last write, before the writer verifies what it wrote.
type damagingFS struct {
	vfs.FS
	hurt func(name string) error
}

func (d damagingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	f, err := d.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return damagedOnClose{f, d.hurt}, nil
}

type damagedOnClose struct {
	vfs.File
	hurt func(name string) error
}

func (f damagedOnClose) Close() error {
	if err := f.File.Close(); err != nil {
		return err
	}
	return f.hurt(f.Name())
}

// TestWriteSnapshotServesWhatOpenReads: the snapshot a write returns is
// the file at the path as Open reads it — length, keys, revisions and
// values — under either read path, and it counts as one open handle until
// it is closed.
func TestWriteSnapshotServesWhatOpenReads(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 3*window/16) // spans windows
	for _, opts := range []Options{{}, {NoMmap: true}} {
		for _, n := range []int{0, 1, 300} {
			b := NewBuilder()
			for i := n - 1; i >= 0; i-- { // out of order: the write sorts
				switch i % 3 {
				case 0:
					b.Add(fmt.Sprintf("key-%04d", i), int64(i), fmt.Sprint(i), "")
				case 1:
					b.Add(fmt.Sprintf("key-%04d", i), -int64(i))
				default:
					b.AddSeq(fmt.Sprintf("k-%d", i), int64(i)<<40, byPass([]string{big, "tail"}))
				}
			}
			base := OpenHandles()
			path := filepath.Join(t.TempDir(), "served.fmc1")
			s, err := b.WriteSnapshot(path, opts)
			if err != nil {
				t.Fatalf("%+v, %d entries: %v", opts, n, err)
			}
			if got := OpenHandles(); got != base+1 {
				t.Fatalf("%+v, %d entries: OpenHandles = %d after the write, want %d", opts, n, got, base+1)
			}
			if s.Path() != path {
				t.Fatalf("Path() = %q, want %q", s.Path(), path)
			}
			o, err := Open(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			if s.Len() != n || o.Len() != n {
				t.Fatalf("%+v: written snapshot holds %d entries, reopened %d, want %d", opts, s.Len(), o.Len(), n)
			}
			for i := 0; i < n; i++ {
				sv, serr := s.Values(i)
				ov, oerr := o.Values(i)
				if s.Key(i) != o.Key(i) || s.Revision(i) != o.Revision(i) || serr != nil || oerr != nil || !slices.Equal(sv, ov) {
					t.Fatalf("%+v: slot %d served as %q/%d/%d values (%v), reopened as %q/%d/%d values (%v)",
						opts, i, s.Key(i), s.Revision(i), len(sv), serr, o.Key(i), o.Revision(i), len(ov), oerr)
				}
				if !s.KeyIs(i, o.Key(i)) || s.KeyIs(i, o.Key(i)+"x") || s.KeyIs(i, o.Key(i)[:len(o.Key(i))-1]) {
					t.Fatalf("KeyIs(%d) disagrees with Key(%d) = %q", i, i, o.Key(i))
				}
			}
			s.Close()
			o.Close()
			if got := OpenHandles(); got != base {
				t.Fatalf("OpenHandles = %d after closing both, want %d", got, base)
			}
		}
	}
}

// TestFailedWritesLeakNothing: a write that fails — a sequence that does
// not render what it measured, any injected storage fault at any write of
// a streamed snapshot, a rename that fails after verification, a temp file
// damaged before it — leaves the open-handle count where it was and no
// temp file behind.
func TestFailedWritesLeakNothing(t *testing.T) {
	check := func(t *testing.T, what string, dir string, base int64, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: write succeeded", what)
		}
		if got := OpenHandles(); got != base {
			t.Fatalf("%s: OpenHandles = %d, want %d (error %v)", what, got, base, err)
		}
		if left := tempLeft(t, dir); len(left) != 0 {
			t.Fatalf("%s: temp files left behind: %v", what, left)
		}
	}

	// The passes of TestRenderMustFillItsDeclaredWindow's cases.
	m := []string{"12345678"}
	renders := map[string][][]string{
		"short":                    {m, {"1234567"}},
		"long":                     {m, {"123456789"}},
		"nil":                      {m, nil},
		"unstable seq":             {{"sized"}, {"filled!"}},
		"unstable seq, same bytes": {{"abc"}, {"a", "b"}},
		"shifted":                  {m, m, {"23456781"}},
		"short on compare":         {m, m, {"1234567"}},
		"regrouped on compare":     {{"abc"}, {"abc"}, {"a", "b"}},
		"extra value on compare":   {m, m, {"12345678", ""}},
		// Same sizes, other bytes from the write on: the file is what the
		// compare sees, but not what the plan checksummed.
		"rewritten after measuring": {m, {"87654321"}},
	}
	for name, passes := range renders {
		for _, key := range []string{"k", "zz"} {
			for _, opts := range []Options{{}, {NoMmap: true}} {
				dir := t.TempDir()
				b := NewBuilder()
				b.Add("before", 0, "x")
				b.AddSeq(key, 1, byPass(passes...))
				b.Add("z-after", 0, "y")
				base := OpenHandles()
				s, err := b.WriteSnapshot(filepath.Join(dir, "never.fmc1"), opts)
				if s != nil {
					t.Fatalf("%s: a failed write returned a snapshot", name)
				}
				check(t, fmt.Sprintf("%s (key %q, %+v)", name, key, opts), dir, base, err)
			}
		}
	}

	value := strings.Repeat("0123456789abcdef", 256)
	mkBuilder := func() *Builder {
		b := NewBuilder()
		for i := 0; i < 150; i++ {
			b.Add(fmt.Sprintf("key-%04d", i), 2, value)
		}
		return b
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.fmc1")
	for _, kind := range []chaos.FaultKind{chaos.TornWrite, chaos.ShortWrite, chaos.NoSpace, chaos.RenameFail} {
		for nth := 1; ; nth++ {
			fault := chaos.FileFault{Kind: kind, Match: ".fstore-", Nth: nth}
			if kind == chaos.RenameFail {
				fault.Match = "snap.fmc1"
			}
			ffs := chaos.NewFaultFS(vfs.OS{}, fault)
			base := OpenHandles()
			err := mkBuilder().WriteFileFS(ffs, path)
			if len(ffs.Injected()) == 0 {
				if err != nil || OpenHandles() != base {
					t.Fatalf("%v: fault-free write: %v, OpenHandles %d, want %d", kind, err, OpenHandles(), base)
				}
				break
			}
			check(t, fmt.Sprintf("%v at write %d", kind, nth), dir, base, err)
		}
	}
	for name, hurt := range tempDamage {
		base := OpenHandles()
		err := mkBuilder().WriteFileFS(damagingFS{vfs.OS{}, hurt}, path)
		check(t, "temp file "+name, dir, base, err)
	}
}
