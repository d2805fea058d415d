package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
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
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Slot != b.Slot {
			return a.Slot < b.Slot
		}
		// Equal starts on one slot: the longer (enclosing) span first, so
		// the viewer nests children inside parents.
		if a.Dur != b.Dur {
			return a.Dur > b.Dur
		}
		return a.Name < b.Name
	})

	bw := bufio.NewWriter(w)
	bw.WriteString("{\n \"traceEvents\": [")
	sep := "\n  "
	emit := func(ev chromeEvent) {
		b, err := json.MarshalIndent(ev, "  ", " ")
		if err != nil {
			panic(err) // a chromeEvent always marshals
		}
		bw.WriteString(sep)
		bw.Write(b)
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
	sort.Slice(laneKeys, func(i, j int) bool {
		if laneKeys[i][0] != laneKeys[j][0] {
			return laneKeys[i][0] < laneKeys[j][0]
		}
		return laneKeys[i][1] < laneKeys[j][1]
	})
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
