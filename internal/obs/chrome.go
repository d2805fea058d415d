package obs

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// array flavour), viewable in chrome://tracing and Perfetto. Timestamps
// are microseconds; ours carry VIRTUAL microseconds, so the UI's time
// axis reads as simulated time.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	ID   *int              `json:"id,omitempty"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

const usPerSecond = 1e6

// WriteChrome serializes the trace as a Chrome trace-event JSON file:
// one process per simulated node, one thread per execution slot, "X"
// complete events for spans, "b"/"e" async pairs for queued→scheduled
// waits, and global "i" instants for adaptive events. Event order — and
// therefore the output bytes — is deterministic for a deterministic
// trace: spans sort by (start, node, slot, name), which the virtual-time
// scheduler fully determines (the trace's spans are sorted in place). The
// events stream to w one at a time, as an indented {"traceEvents": [...],
// "displayTimeUnit": "ms"} object.
func (t *Trace) WriteChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	slices.SortStableFunc(spans, func(a, b Span) int {
		// Equal starts on one slot: the longer (enclosing) span first, so
		// the viewer nests children inside parents.
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Node, b.Node), cmp.Compare(a.Slot, b.Slot),
			cmp.Compare(b.Dur, a.Dur), strings.Compare(a.Name, b.Name))
	})

	bw := bufio.NewWriter(w)
	bw.WriteString("{\n \"traceEvents\": [")
	sep := "\n  "
	var buf []byte
	emit := func(ev chromeEvent) {
		buf = appendChromeEvent(buf[:0], ev)
		bw.WriteString(sep)
		bw.Write(buf)
		sep = ",\n  "
	}

	// Name the lanes: one process per node, one thread per slot.
	lanes := map[[2]int]bool{}
	for _, s := range spans {
		lanes[[2]int{s.Node, s.Slot}] = true
	}
	laneKeys := make([][2]int, 0, len(lanes))
	for k := range lanes {
		laneKeys = append(laneKeys, k)
	}
	slices.SortFunc(laneKeys, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	for _, k := range laneKeys {
		emit(chromeEvent{Name: "process_name", Ph: "M", Pid: k[0], Tid: k[1],
			Args: map[string]string{"name": fmt.Sprintf("node %d", k[0])}})
		emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: k[0], Tid: k[1],
			Args: map[string]string{"name": fmt.Sprintf("slot %d", k[1])}})
	}

	for _, s := range spans {
		dur := s.Dur * usPerSecond
		emit(chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts: s.Start * usPerSecond, Dur: &dur,
			Pid: s.Node, Tid: s.Slot,
		})
	}
	for i, q := range t.queued {
		id := i // a wait's async ID: its place in recording order
		emit(chromeEvent{Name: q.Name, Cat: "queued", Ph: "b", Ts: q.Start * usPerSecond, Pid: q.Node, ID: &id})
		emit(chromeEvent{Name: q.Name, Cat: "queued", Ph: "e", Ts: q.End * usPerSecond, Pid: q.Node, ID: &id})
	}
	for _, in := range t.instants {
		emit(chromeEvent{Name: in.Name, Cat: in.Cat, Ph: "i", Ts: in.Time * usPerSecond, S: "g"})
	}

	if sep != "\n  " {
		bw.WriteString("\n ")
	}
	bw.WriteString("],\n \"displayTimeUnit\": \"ms\"\n}\n")
	return bw.Flush()
}

// appendChromeEvent appends ev as json.MarshalIndent(ev, "  ", " ") writes
// it: its fields in declaration order, one to a line, the empty optional
// ones left out; args is a nested object with its keys sorted. It panics
// on a NaN or infinite time, which MarshalIndent refuses.
func appendChromeEvent(b []byte, ev chromeEvent) []byte {
	sep := byte('{')
	field := func(name string) {
		b = append(b, sep, '\n', ' ', ' ', ' ', '"')
		b = append(append(b, name...), "\": "...)
		sep = ','
	}
	str := func(name, v string) {
		field(name)
		b = appendJSONString(b, v)
	}
	str("name", ev.Name)
	if ev.Cat != "" {
		str("cat", ev.Cat)
	}
	str("ph", ev.Ph)
	field("ts")
	b = appendJSONFloat(b, ev.Ts)
	if ev.Dur != nil {
		field("dur")
		b = appendJSONFloat(b, *ev.Dur)
	}
	field("pid")
	b = strconv.AppendInt(b, int64(ev.Pid), 10)
	field("tid")
	b = strconv.AppendInt(b, int64(ev.Tid), 10)
	if ev.ID != nil {
		field("id")
		b = strconv.AppendInt(b, int64(*ev.ID), 10)
	}
	if ev.S != "" {
		str("s", ev.S)
	}
	if len(ev.Args) > 0 {
		field("args")
		keys := make([]string, 0, len(ev.Args))
		for k := range ev.Args {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		sep = '{'
		for _, k := range keys {
			b = append(b, sep, '\n', ' ', ' ', ' ', ' ')
			sep = ','
			b = append(appendJSONString(b, k), ": "...)
			b = appendJSONString(b, ev.Args[k])
		}
		b = append(b, "\n   }"...)
	}
	return append(b, "\n  }"...)
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest decimal that reads back as f, in exponent form below 1e-6 and
// from 1e21 on (magnitudes), with no leading zero in a negative exponent.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic(fmt.Sprintf("obs: trace time %v has no JSON form", f))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b
}

// appendJSONString appends s quoted as encoding/json writes a string: '"'
// and '\\' escaped, the control bytes as \b, \f, \n, \r, \t or \u00XX, '<',
// '>' and '&' as \u00XX (HTML-safe), an invalid UTF-8 byte as \ufffd, and
// U+2028 and U+2029 as \u2028 and \u2029.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == '"' || r == '\\':
			b = append(b, '\\', byte(r))
		case r < 0x20 || r == '<' || r == '>' || r == '&':
			if k := strings.IndexByte("\b\f\n\r\t", byte(r)); k >= 0 {
				b = append(b, '\\', "bfnrt"[k])
			} else {
				b = append(b, '\\', 'u', '0', '0', hex[r>>4], hex[r&0xF])
			}
		case r == utf8.RuneError && size == 1:
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, `\u202`...), hex[r&0xF])
		default:
			b = append(b, s[i:i+size]...)
		}
		i += size
	}
	return append(b, '"')
}
