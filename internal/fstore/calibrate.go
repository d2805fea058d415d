package fstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"efind/internal/vfs"
)

// CalibrateConfig shapes the calibration workload: Entries keys of
// KeyBytes bytes, each holding one ValueBytes-byte value, looked up
// Lookups times per measured pass.
type CalibrateConfig struct {
	Entries    int
	KeyBytes   int
	ValueBytes int
	Lookups    int
	Seed       int64
}

// DefaultCalibrateConfig sizes the calibration near the paper's synthetic
// workload: tens of thousands of keys with 1 KB values.
func DefaultCalibrateConfig() CalibrateConfig {
	return CalibrateConfig{Entries: 20000, KeyBytes: 8, ValueBytes: 1024, Lookups: 50000, Seed: 42}
}

// Calibration is the measured cost of the store, in the units the cost
// model consumes: F in seconds per byte (the paper's f — store one byte
// and retrieve it once through the snapshot), T-terms in seconds per
// lookup (the paper's T_j — index-local serve time).
type Calibration struct {
	// F is seconds per byte to write the snapshot and read every byte
	// back once through a fresh mapping.
	F float64
	// TjCold is seconds per lookup against a freshly opened mapping
	// (first touch of each page; page-cache warm in-process, so this is
	// mapping/fault overhead, not device latency).
	TjCold float64
	// TjWarm is seconds per lookup once the mapping is hot — the steady
	// state T_j the cost model uses.
	TjWarm float64
	// TjProbe is seconds per index-only probe (slot section binary
	// search, no value materialization).
	TjProbe float64
	// WriteBytesPerSec and ReadBytesPerSec are the raw throughputs
	// behind F, for reporting.
	WriteBytesPerSec float64
	ReadBytesPerSec  float64
	// Entries and Bytes describe the measured snapshot.
	Entries int
	Bytes   int
}

func (c Calibration) String() string {
	return fmt.Sprintf("f=%.3gs/B (write %.0f MB/s, read %.0f MB/s)  Tj cold=%.3gs warm=%.3gs probe=%.3gs  (%d entries, %d bytes)",
		c.F, c.WriteBytesPerSec/1e6, c.ReadBytesPerSec/1e6, c.TjCold, c.TjWarm, c.TjProbe, c.Entries, c.Bytes)
}

// Calibrate builds a snapshot in dir, measures real store behaviour, and
// returns the measured terms. The measurement is wall-clock and machine-
// dependent by design: it replaces the cost model's constant f and T_j
// with numbers from the hardware the simulation runs on.
func Calibrate(dir string, cfg CalibrateConfig) (Calibration, error) {
	if cfg.Entries <= 0 || cfg.Lookups <= 0 {
		return Calibration{}, fmt.Errorf("fstore: calibration needs entries and lookups > 0")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	value := make([]byte, cfg.ValueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	keys := make([]string, cfg.Entries)
	b := NewBuilder()
	for i := range keys {
		keys[i] = fmt.Sprintf("k%0*d", cfg.KeyBytes-1, i)
		b.Add(keys[i], int64(i), string(value))
	}
	path := filepath.Join(dir, "calibration.fmc1")
	defer os.Remove(path)

	writeStart := time.Now()
	if err := b.WriteFileFS(vfs.OS{}, path); err != nil { // the synced write: f prices a byte that is stored
		return Calibration{}, err
	}
	writeDur := time.Since(writeStart)

	// Cold pass: a fresh mapping, every key once in random order. Each
	// lookup materializes its values so the data pages are really read.
	perm := rng.Perm(cfg.Entries)
	s, err := Open(path, Options{})
	if err != nil {
		return Calibration{}, err
	}
	defer s.Close()
	bytesRead := 0
	coldStart := time.Now()
	for _, i := range perm {
		vals, ok, err := s.Lookup(keys[i])
		if err != nil {
			return Calibration{}, err
		}
		if !ok {
			return Calibration{}, fmt.Errorf("fstore: calibration key %q missing", keys[i])
		}
		for _, v := range vals {
			bytesRead += len(v)
		}
	}
	coldDur := time.Since(coldStart)

	// Warm pass: random lookups against the hot mapping.
	warmStart := time.Now()
	for j := 0; j < cfg.Lookups; j++ {
		if _, ok, err := s.Lookup(keys[rng.Intn(cfg.Entries)]); err != nil || !ok {
			return Calibration{}, fmt.Errorf("fstore: warm lookup failed: %v", err)
		}
	}
	warmDur := time.Since(warmStart)

	// Probe pass: index-only, same key stream shape.
	probeStart := time.Now()
	for j := 0; j < cfg.Lookups; j++ {
		if ok, _ := s.Probe(keys[rng.Intn(cfg.Entries)]); !ok {
			return Calibration{}, fmt.Errorf("fstore: probe missed a present key")
		}
	}
	probeDur := time.Since(probeStart)

	total := s.Bytes()
	cal := Calibration{
		TjCold:           coldDur.Seconds() / float64(cfg.Entries),
		TjWarm:           warmDur.Seconds() / float64(cfg.Lookups),
		TjProbe:          probeDur.Seconds() / float64(cfg.Lookups),
		WriteBytesPerSec: float64(total) / writeDur.Seconds(),
		ReadBytesPerSec:  float64(bytesRead) / coldDur.Seconds(),
		Entries:          cfg.Entries,
		Bytes:            total,
	}
	// f is store-plus-retrieve per byte: one write of the snapshot and
	// one cold read of every data byte.
	cal.F = writeDur.Seconds()/float64(total) + coldDur.Seconds()/float64(bytesRead)
	return cal, nil
}
