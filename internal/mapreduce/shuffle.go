package mapreduce

import (
	"fmt"
	"slices"

	"efind/internal/sim"
)

// staging is a multi-reducer map task's transient shuffle buffer: what it
// emitted, in order, and the per-partition counts the scatter needs. It
// rides on its task frame from task to task of one map phase, so it counts
// that phase's job's NumReduce partitions.
type staging struct {
	recs    []Pair
	parts   []int32 // parts[i] is the partition of recs[i]
	counts  []int32 // per partition; all zero between tasks
	touched []int32 // the partitions with a non-zero count
}

func (s *staging) add(p Pair, part int32) {
	if s.counts[part] == 0 {
		s.touched = append(s.touched, part)
	}
	s.counts[part]++
	s.recs, s.parts = append(s.recs, p), append(s.parts, part)
}

// scatter moves the staged records into out as windows of one exact-size
// slab, ascending by reducer (count → prefix → fill; stable, so a bucket
// keeps emission order), and wipes the buffer, which then pins none of
// them. It returns the number of records moved.
func (s *staging) scatter(out *MapOutput) int {
	n := len(s.recs)
	if n == 0 {
		return 0
	}
	slices.Sort(s.touched)
	out.Buckets, out.Reducers = out.one[:], out.oneR[:]
	if len(s.touched) > 1 {
		out.Buckets, out.Reducers = make([][]Pair, len(s.touched)), make([]int32, len(s.touched))
	}
	slab := make([]Pair, n)
	off := 0
	for i, part := range s.touched {
		end := off + int(s.counts[part])
		// Capped: an append by anyone reallocates, not overruns the next bucket.
		out.Buckets[i], out.Reducers[i] = slab[off:end:end], part
		s.counts[part] = int32(off) // from here on: the bucket's fill cursor
		off = end
	}
	for i, p := range s.recs {
		at := &s.counts[s.parts[i]]
		slab[*at] = p
		*at++
	}
	for _, part := range s.touched {
		s.counts[part] = 0
	}
	clear(s.recs)
	s.recs, s.parts, s.touched = s.recs[:0], s.parts[:0], s.touched[:0]
	return n
}

// shuffleRun is one non-empty bucket on its way to a reducer, with the node
// that produced it (a local fetch is a disk read, a remote one a transfer).
type shuffleRun struct {
	pairs []Pair
	node  sim.NodeID
}

// shuffleIndex transposes a reduce phase's map outputs once (count →
// prefix → fill): reducer r's runs are runs[start[r]:start[r+1]], in
// map-output order — the order a walk over every output's buckets visits
// them in, so each reduce task charges the same float sum. O(non-empty
// buckets) and two allocations whatever maps × reducers. A missing output
// (its map task failed) or one partitioned for another count is an error.
func shuffleIndex(job *Job, outputs []*MapOutput) (runs []shuffleRun, start []int, err error) {
	start = make([]int, job.NumReduce+1)
	for i, o := range outputs {
		if o == nil {
			return nil, nil, fmt.Errorf("mapreduce: job %q map output %d is missing: its map task did not complete", job.Name, i)
		}
		if o.Parts != job.NumReduce {
			return nil, nil, fmt.Errorf("mapreduce: job %q map output %d is partitioned for %d reducers, want %d", job.Name, i, o.Parts, job.NumReduce)
		}
		for _, r := range o.Reducers {
			start[r+1]++
		}
	}
	at := 0
	for r := 1; r <= job.NumReduce; r++ {
		start[r], at = at, at+start[r] // r-1's fill cursor, until the fill has passed
	}
	runs = make([]shuffleRun, at)
	for _, o := range outputs {
		for i, r := range o.Reducers {
			runs[start[r+1]] = shuffleRun{o.Buckets[i], o.Node}
			start[r+1]++
		}
	}
	return runs, start, nil
}
