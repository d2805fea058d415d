package mapreduce

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

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
// window of the frame's pairs, ascending by reducer (count → prefix → fill;
// stable, so a bucket keeps emission order), and wipes the buffer, which
// then pins none of them. The bucket and reducer lists are windows of the
// frame's blocks too. It returns the number of records moved.
func (s *staging) scatter(out *MapOutput, keeps *taskFrame) int {
	n := len(s.recs)
	if n == 0 {
		return 0
	}
	slices.Sort(s.touched)
	out.Buckets, out.Reducers = keeps.buckets.cut(len(s.touched)), keeps.parts.cut(len(s.touched))
	slab := keeps.pairs.cut(n)
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

// maxRef is the most runs a reducer, and the most records a bucket, can have:
// a keyRef counts both in 32 bits.
const maxRef = math.MaxUint32

// shuffleIndex transposes a reduce phase's map outputs once (count →
// prefix → fill): reducer r's runs are runs[start[r]:start[r+1]], in
// map-output order — the order a walk over every output's buckets visits
// them in, so each reduce task charges the same float sum. O(non-empty
// buckets) and two allocations whatever maps × reducers. A missing output
// (its map task failed), one partitioned for another count, a bucket of more
// than maxRef records or a reducer with more than maxRef runs is an error.
func shuffleIndex(job *Job, outputs []*MapOutput) (runs []shuffleRun, start []int, err error) {
	start = make([]int, job.NumReduce+1)
	for i, o := range outputs {
		if o == nil {
			return nil, nil, fmt.Errorf("mapreduce: job %q map output %d is missing: its map task did not complete", job.Name, i)
		}
		if o.Parts != job.NumReduce {
			return nil, nil, fmt.Errorf("mapreduce: job %q map output %d is partitioned for %d reducers, want %d", job.Name, i, o.Parts, job.NumReduce)
		}
		for bi, r := range o.Reducers {
			if n := len(o.Buckets[bi]); n > maxRef {
				return nil, nil, fmt.Errorf("mapreduce: job %q map output %d holds %d records for reducer %d, more than the %d a reduce task can index", job.Name, i, n, r, maxRef)
			}
			start[r+1]++
		}
	}
	at := 0
	for r := 1; r <= job.NumReduce; r++ {
		if start[r] > maxRef {
			return nil, nil, fmt.Errorf("mapreduce: job %q reducer %d receives %d map-output buckets, more than the %d a reduce task can index", job.Name, r-1, start[r], maxRef)
		}
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

// keyRef names one record of a task's runs — runs[run].pairs[pos] — and
// carries the eight key bytes behind the prefix all the task's keys share,
// big-endian and zero-padded, so that most comparisons read no record. It
// holds no pointer: sorting refs moves 16 bytes at a time under no write
// barrier, and the records, which the phase's map outputs retain, stay where
// they are.
type keyRef struct {
	prefix   uint64
	run, pos uint32
}

// keyOrder puts the records of a task's runs in key order, equal keys in the
// order of the runs' concatenation, without moving one: add every key, in
// any order, then sort. The runs are only read.
type keyOrder struct {
	runs  []shuffleRun
	first string // the first key added; first[:lcp] is the prefix all share
	lcp   int
	n     int // keys added
	// The shortest and the longest key added: equal windows are equal keys
	// when the two are one length the window covers.
	minLen, maxLen int
	exact          bool // equal windows are equal keys: set by sort
	refs           []keyRef
}

// sortBufs is what sorting keeps on a worker's frame from task to task: the
// refs and the radix passes' second buffer. Neither holds a pointer, so
// keeping them pins no record.
type sortBufs struct {
	refs, tmp []keyRef
}

// radixMin is the fewest records the radix passes sort. Below it pdqsort's
// comparisons cost less than up to eight passes' 256 counters: the two cross
// between 48 and 64 records of distinct, paired and Q3-like keys.
const radixMin = 64

// add notes one key of the runs: the shared prefix can only shrink.
func (o *keyOrder) add(key string) {
	if o.n++; o.n == 1 {
		o.first, o.lcp = key, len(key)
		o.minLen, o.maxLen = len(key), len(key)
		return
	}
	o.minLen, o.maxLen = min(o.minLen, len(key)), max(o.maxLen, len(key))
	if len(key) >= o.lcp && key[:o.lcp] == o.first[:o.lcp] {
		return
	}
	i, n := 0, min(o.lcp, len(key))
	for i < n && key[i] == o.first[i] {
		i++
	}
	o.lcp = i
}

// window is key's eight bytes from lcp on, big-endian, zero-padded.
func window(key string, lcp int) (w uint64) {
	tail := key[lcp:]
	for i := 0; i < min(len(tail), 8); i++ {
		w |= uint64(tail[i]) << (56 - 8*i)
	}
	return w
}

// sort builds one ref per record, on the frame's buffers, and sorts them by
// (key, run, pos). That order is total and is the stable order of the runs'
// concatenation, so an unstable sort yields it. Below radixMin records
// pdqsort does; from it, a stable LSD radix sort on the windows does — one
// pass per window byte that varies, the refs starting in (run, pos) order —,
// and only runs of equal windows go through compare, unless the keys are one
// length the window covers, which makes equal windows equal keys.
func (o *keyOrder) sort(bufs *sortBufs) {
	o.exact = o.minLen == o.maxLen && o.maxLen <= o.lcp+8
	refs := slices.Grow(bufs.refs[:0], o.n)
	and, or := ^uint64(0), uint64(0)
	for ri, run := range o.runs {
		for pi := range run.pairs {
			w := window(run.pairs[pi].Key, o.lcp)
			and, or = and&w, or|w
			refs = append(refs, keyRef{w, uint32(ri), uint32(pi)})
		}
	}
	bufs.refs, o.refs = refs, refs
	if len(refs) < radixMin {
		slices.SortFunc(refs, o.compare)
		return
	}
	tmp := slices.Grow(bufs.tmp[:0], len(refs))[:len(refs)]
	for shift := 0; shift < 64; shift += 8 {
		if (and^or)>>shift&0xff != 0 {
			radixPass(refs, tmp, shift)
			refs, tmp = tmp, refs
		}
	}
	bufs.refs, bufs.tmp, o.refs = refs, tmp, refs
	if o.exact {
		return // ties are equal keys, already in (run, pos) order
	}
	for i := 0; i < len(refs); {
		j := i + 1
		for j < len(refs) && refs[j].prefix == refs[i].prefix {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(refs[i:j], o.compare)
		}
		i = j
	}
}

// radixPass moves src into dst stably by the prefixes' byte at shift.
func radixPass(src, dst []keyRef, shift int) {
	var at [256]int
	for _, r := range src {
		at[byte(r.prefix>>shift)]++
	}
	sum := 0
	for b, n := range at {
		at[b], sum = sum, sum+n
	}
	for _, r := range src {
		b := byte(r.prefix >> shift)
		dst[at[b]] = r
		at[b]++
	}
}

func (o *keyOrder) pair(r keyRef) *Pair { return &o.runs[r.run].pairs[r.pos] }

// compare orders two refs by key, then position. Keys with different windows
// compare as their windows do. With equal windows, two keys that both run on
// past the window compare by what follows it; otherwise the zero padding
// stood for nothing or for real zero bytes, the shorter key is a prefix of
// the longer, and the lengths decide.
func (o *keyOrder) compare(a, b keyRef) int {
	if a.prefix != b.prefix {
		return cmp.Compare(a.prefix, b.prefix)
	}
	ka, kb, w := o.pair(a).Key, o.pair(b).Key, o.lcp+8
	c := cmp.Compare(len(ka), len(kb))
	if len(ka) > w && len(kb) > w {
		c = strings.Compare(ka[w:], kb[w:])
	}
	if c != 0 {
		return c
	}
	return cmp.Compare(uint64(a.run)<<32|uint64(a.pos), uint64(b.run)<<32|uint64(b.pos))
}

// key returns the key of the i-th record in key order.
func (o *keyOrder) key(i int) string { return o.pair(o.refs[i]).Key }

// sameKey reports whether the i-th and j-th records in key order have one
// key; it reads the records only when the windows tie and do not decide.
func (o *keyOrder) sameKey(i, j int) bool {
	return o.refs[i].prefix == o.refs[j].prefix && (o.exact || o.key(i) == o.key(j))
}

// nextGroup returns where the key group after the one starting at the i-th
// record starts.
func (o *keyOrder) nextGroup(i int) int {
	j := i + 1
	for j < len(o.refs) && o.sameKey(i, j) {
		j++
	}
	return j
}

// values copies the records' values into one slab, in key order, and counts
// the key groups. The values of the group [i, j) are slab[i:j:j]: disjoint,
// capacity-capped windows that are never reused, so a reduce function may
// keep its values slice or append to it without seeing or disturbing another
// group's.
func (o *keyOrder) values() (slab []string, groups int) {
	slab = make([]string, len(o.refs))
	for i, r := range o.refs {
		slab[i] = o.pair(r).Value
		if i == 0 || !o.sameKey(i-1, i) {
			groups++
		}
	}
	return slab, groups
}
