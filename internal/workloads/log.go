// Package workloads generates the paper's evaluation data sets, scaled to
// simulation size while preserving the structural properties the
// experiments depend on:
//
//   - LOG: web log events whose source IPs exhibit both local redundancy
//     (an IP visits several URLs in a short window, landing in the same
//     log file) and cross-machine redundancy (the visits are served by
//     two or more web servers, so they appear in different log files);
//   - Synthetic: uniform integer keys from a configurable domain joined
//     against an index with configurable value size l;
//   - Spatial: OSM-shaped 2-D location records for the kNN join.
package workloads

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"efind/internal/dfs"
)

// LogConfig shapes the LOG data set (paper: 15M events, 7GB, from a
// popular web site).
type LogConfig struct {
	// Events is the number of log events.
	Events int
	// IPs is the number of distinct source IPs.
	IPs int
	// URLs is the number of distinct URLs.
	URLs int
	// VisitsPerSession is how many URLs an IP visits in one short window
	// (the source of redundancy in geo lookups).
	VisitsPerSession int
	// Servers is the number of web servers whose log files interleave a
	// session's events (the source of cross-machine redundancy).
	Servers int
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultLogConfig is the scaled-down default used by tests and benches.
func DefaultLogConfig() LogConfig {
	return LogConfig{
		Events:           60000,
		IPs:              1500,
		URLs:             500,
		VisitsPerSession: 8,
		Servers:          4,
		Seed:             42,
	}
}

// LogEvent is one parsed web log record.
type LogEvent struct {
	EventID   string
	Timestamp int64
	SourceIP  string
	URL       string
	Extra     string
}

// Value renders the event as the stored record value (tab-separated, like
// the paper's multi-field event records).
func (e LogEvent) Value() string {
	return fmt.Sprintf("%s\t%d\t%s\t%s\t%s", e.EventID, e.Timestamp, e.SourceIP, e.URL, e.Extra)
}

// ParseLogValue splits a stored value back into fields. It returns ok =
// false for malformed records.
func ParseLogValue(v string) (ip, url string, ts int64, ok bool) {
	fields := strings.Split(v, "\t")
	if len(fields) < 4 {
		return "", "", 0, false
	}
	t, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", "", 0, false
	}
	return fields[2], fields[3], t, true
}

// GenerateLog generates the LOG data set's records in file order.
// Events are generated session by session: an IP visits VisitsPerSession
// URLs within a short time window, and each visit is appended to a
// round-robin chosen server's log stream; the streams are concatenated so
// one session's events land in different regions of the file (hence
// different splits).
func GenerateLog(cfg LogConfig) ([]dfs.Record, error) {
	if cfg.Events <= 0 {
		return nil, fmt.Errorf("workloads: log config needs events > 0")
	}
	if cfg.Servers < 1 {
		cfg.Servers = 1
	}
	if cfg.VisitsPerSession < 1 {
		cfg.VisitsPerSession = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	streams := make([][]LogEvent, cfg.Servers)
	ts := int64(1_300_000_000)
	event := 0
	for event < cfg.Events {
		ip := fmt.Sprintf("10.%d.%d.%d", rng.Intn(64), rng.Intn(256), rng.Intn(256))
		for v := 0; v < cfg.VisitsPerSession && event < cfg.Events; v++ {
			e := LogEvent{
				EventID:   fmt.Sprintf("e%08d", event),
				Timestamp: ts,
				SourceIP:  ip,
				URL:       fmt.Sprintf("/page/%04d", rng.Intn(cfg.URLs)),
				Extra:     fmt.Sprintf("f5=%d|f6=%d|f7=%d", rng.Intn(100), rng.Intn(100), rng.Intn(100)),
			}
			streams[(event+v)%cfg.Servers] = append(streams[(event+v)%cfg.Servers], e)
			ts += int64(rng.Intn(5) + 1)
			event++
		}
	}

	recs := make([]dfs.Record, 0, cfg.Events)
	for _, stream := range streams {
		for _, e := range stream {
			recs = append(recs, dfs.Record{Key: e.EventID, Value: e.Value()})
		}
	}
	return recs, nil
}
