package fstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	damage := map[string]func(name string) error{
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
		"truncated": func(name string) error { return os.Truncate(name, int64(len(gen1))-1) },
	}
	for name, hurt := range damage {
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
