package mapreduce

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The reference the reduce side is held to: the engine's former sort — copy
// every run into one slice, stable-sort the pairs by key — and its grouping,
// kept here as they were.

func refSortByKey(pairs []Pair) {
	slices.SortStableFunc(pairs, func(a, b Pair) int { return strings.Compare(a.Key, b.Key) })
}

func refGroupEnd(sorted []Pair, i int) int {
	j := i + 1
	for j < len(sorted) && sorted[j].Key == sorted[i].Key {
		j++
	}
	return j
}

// keyGroup is one call of a reduce or combine function.
type keyGroup struct {
	key    string
	values []string
}

// refGroups is the group sequence of the runs' concatenation.
func refGroups(runs []shuffleRun) []keyGroup {
	var input []Pair
	for _, run := range runs {
		input = append(input, run.pairs...)
	}
	refSortByKey(input)
	var groups []keyGroup
	for i := 0; i < len(input); {
		j := refGroupEnd(input, i)
		g := keyGroup{key: input[i].Key}
		for _, p := range input[i:j] {
			g.values = append(g.values, p.Value)
		}
		groups = append(groups, g)
		i = j
	}
	return groups
}

// keyPools are the key shapes the window, its padding and its tie rules have
// to get right. Every pool shares prefix, which may be empty.
var keyPools = []struct {
	name string
	keys func(rng *rand.Rand, prefix string) []string
}{
	{"differences inside and beyond the window", func(rng *rand.Rand, prefix string) []string {
		keys := make([]string, 40)
		for i := range keys {
			keys[i] = fmt.Sprintf("%s%c%c-common-%c%c", prefix, 'a'+rng.Intn(3), 'a'+rng.Intn(3), 'a'+rng.Intn(3), 'a'+rng.Intn(3))
		}
		return keys
	}},
	{"shorter than the window", func(rng *rand.Rand, prefix string) []string {
		keys := []string{prefix}
		for i := 0; i < 30; i++ {
			keys = append(keys, prefix+"abcabcabc"[rng.Intn(3):][:rng.Intn(7)])
		}
		return keys
	}},
	{"across the window's end", func(rng *rand.Rand, prefix string) []string {
		keys := make([]string, 30)
		for i := range keys {
			keys[i] = prefix + "12345678abc"[:6+rng.Intn(6)]
		}
		return keys
	}},
	{"trailing zero bytes", func(rng *rand.Rand, prefix string) []string {
		keys := make([]string, 30)
		for i := range keys {
			keys[i] = prefix + "ab"[:rng.Intn(3)] + strings.Repeat("\x00", rng.Intn(12)) + "z"[:rng.Intn(2)]
		}
		return keys
	}},
	{"pass keys beside lookup keys", func(rng *rand.Rand, prefix string) []string {
		keys := make([]string, 30)
		for i := range keys {
			keys[i] = fmt.Sprintf("%s%08d", prefix, rng.Intn(12))
			if rng.Intn(2) == 0 {
				keys[i] = "\x00p" + keys[i] // core's passKeyPrefix
			}
		}
		return keys
	}},
	{"one key", func(_ *rand.Rand, prefix string) []string { return []string{prefix + "only"} }},
	{"the empty key among others", func(rng *rand.Rand, prefix string) []string {
		return []string{"", prefix, prefix + "a", "\x00", "\x00\x00", fmt.Sprintf("%d", rng.Intn(10))}
	}},
	{"one varying window byte", func(rng *rand.Rand, prefix string) []string {
		keys := make([]string, 40)
		for i := range keys {
			keys[i] = fmt.Sprintf("%s%c-the-rest-is-fixed", prefix, 'a'+rng.Intn(26))
		}
		return keys
	}},
	{"all eight window bytes varying", func(rng *rand.Rand, prefix string) []string {
		keys := make([]string, 500)
		for i := range keys {
			keys[i] = fmt.Sprintf("%s%08x", prefix, rng.Uint32())
		}
		return keys
	}},
	{"equal windows, long tails (Q3's orderkey|date|prio)", func(rng *rand.Rand, prefix string) []string {
		keys := make([]string, 200)
		for i := range keys {
			keys[i] = fmt.Sprintf("%s%07d|1995-03-%02d|%d-URGENT", prefix, 1000000+rng.Intn(8), 1+rng.Intn(28), 1+rng.Intn(5))
		}
		return keys
	}},
	{"random bytes", func(rng *rand.Rand, prefix string) []string {
		keys := make([]string, 50)
		for i := range keys {
			b := make([]byte, rng.Intn(20))
			for j := range b {
				b[j] = byte(rng.Intn(4) * 85) // 0x00, 0x55, 0xaa, 0xff
			}
			keys[i] = prefix + string(b)
		}
		return keys
	}},
}

// randomRuns draws 1–maxRuns runs of 0–40 pairs over a pool's keys.
func randomRuns(rng *rand.Rand, pool []string, maxRuns int) []shuffleRun {
	runs := make([]shuffleRun, 1+rng.Intn(maxRuns))
	for r := range runs {
		runs[r].pairs = make([]Pair, rng.Intn(41))
	}
	return fillRuns(rng, pool, runs)
}

// sizedRuns deals exactly records pairs over a pool's keys into 1–maxRuns
// runs, some of them empty.
func sizedRuns(rng *rand.Rand, pool []string, records, maxRuns int) []shuffleRun {
	runs := make([]shuffleRun, 1+rng.Intn(maxRuns))
	for i := 0; i < records; i++ {
		r := &runs[rng.Intn(len(runs))]
		r.pairs = append(r.pairs, Pair{})
	}
	return fillRuns(rng, pool, runs)
}

// fillRuns fills the runs' pairs with a pool's keys, in random, sorted or
// reverse-sorted key order; a value names its place in the concatenation,
// so a group's values show whether the order was stable.
func fillRuns(rng *rand.Rand, pool []string, runs []shuffleRun) []shuffleRun {
	var keys []string
	for _, run := range runs {
		for range run.pairs {
			keys = append(keys, pool[rng.Intn(len(pool))])
		}
	}
	switch rng.Intn(3) {
	case 1:
		slices.Sort(keys)
	case 2:
		slices.Sort(keys)
		slices.Reverse(keys)
	}
	at := 0
	for r := range runs {
		runs[r].node = 1 // not the task's: the shuffle charge takes the network
		for i := range runs[r].pairs {
			runs[r].pairs[i] = Pair{Key: keys[at], Value: fmt.Sprintf("run %d pair %d", r, i)}
			at++
		}
	}
	return runs
}

func cloneRuns(runs []shuffleRun) []shuffleRun {
	c := slices.Clone(runs)
	for i := range c {
		c[i].pairs = slices.Clone(c[i].pairs)
	}
	return c
}

// TestKeyOrderMatchesStableSort: over random run sets the reduce task and the
// combiner call their functions with exactly the (key, values) groups, in
// exactly the order, that a stable sort of the runs' concatenation gives —
// and leave the runs, which are retained map-output buckets, as they found
// them. Small sets go through pdqsort; every pool also runs at radixMin − 1,
// radixMin and 4,000 records, on both sides of the switch to the radix
// passes. One frame serves every trial, so a task's sort reads buffers a
// larger task has filled. Run under -race -count=10.
func TestKeyOrderMatchesStableSort(t *testing.T) {
	_, _, e := testEnv(t)
	rng := rand.New(rand.NewSource(23))
	frames := e.newPhaseFrames(1)
	prefixes := []string{"", "k", "a-long-shared-prefix/", "\x00p"}
	for trial := 0; trial < 120; trial++ {
		pool := keyPools[trial%len(keyPools)]
		prefix := prefixes[rng.Intn(len(prefixes))]
		runs := randomRuns(rng, pool.keys(rng, prefix), []int{3, 30, 300}[trial%3])
		checkKeyOrder(t, e, frames, fmt.Sprintf("trial %d (%s, prefix %q, %d runs)", trial, pool.name, prefix, len(runs)), runs)
	}
	// One run makes the combiner's one bucket as large as the reduce task's
	// input; 240 make the reduce task's runs many. The large sets take one
	// of the two per pool, in turn.
	for _, records := range []int{radixMin - 1, radixMin, 4000} {
		for pi, pool := range keyPools {
			for _, maxRuns := range []int{1, 240} {
				if records > radixMin && maxRuns != []int{1, 240}[pi%2] {
					continue
				}
				prefix := prefixes[rng.Intn(len(prefixes))]
				runs := sizedRuns(rng, pool.keys(rng, prefix), records, maxRuns)
				checkKeyOrder(t, e, frames, fmt.Sprintf("%d records (%s, prefix %q, %d runs)", records, pool.name, prefix, len(runs)), runs)
			}
		}
	}
}

// checkKeyOrder runs one run set through a reduce task and, a run per
// bucket, through the combiner, both on the worker-0 frame of frames.
func checkKeyOrder(t *testing.T, e *Engine, frames *phaseFrames, name string, runs []shuffleRun) {
	t.Helper()
	before := cloneRuns(runs)
	var got []keyGroup
	record := func(_ *TaskContext, key string, values []string, emit Emit) {
		got = append(got, keyGroup{key, slices.Clone(values)})
		emit(Pair{Key: key, Value: strings.Join(values, ",")})
	}
	want := refGroups(runs)
	shard, st := e.runReduceTask(&Job{Name: "order", Reduce: record, NumReduce: 1}, 0, 0, runs, 0, frames, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the reduce task saw\n%q\nwant\n%q", name, got, want)
	}
	if len(shard) != len(want) || st.Counters.Get(slotOutputRecords) != int64(len(want)) {
		t.Fatalf("%s: %d records in the shard, %d counted, want %d", name, len(shard), st.Counters.Get(slotOutputRecords), len(want))
	}
	for i, g := range want {
		if shard[i].Key != g.key || shard[i].Value != strings.Join(g.values, ",") {
			t.Fatalf("%s: shard[%d] = %q, want group %q", name, i, shard[i], g)
		}
	}

	// The combiner: every non-empty run is one bucket of a map output.
	out := &MapOutput{Parts: len(runs)}
	got, want = nil, nil
	for r, run := range runs {
		if len(run.pairs) > 0 {
			out.Buckets, out.Reducers = append(out.Buckets, run.pairs), append(out.Reducers, int32(r))
			want = append(want, refGroups(runs[r:r+1])...)
		}
	}
	f := frames.start(0, e, 0, 0, MapTask, 0)
	left := e.combineBuckets(&f.ctx, &Job{Name: "order", Combine: record}, out, &f.sort)
	frames.done(0, f)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the combiner saw\n%q\nwant\n%q", name, got, want)
	}
	at := 0
	for _, bucket := range out.Buckets {
		for _, p := range bucket {
			if p.Key != want[at].key || p.Value != strings.Join(want[at].values, ",") {
				t.Fatalf("%s: combined record %d = %q, want group %q", name, at, p, want[at])
			}
			at++
		}
	}
	if at != len(want) || left != len(want) {
		t.Fatalf("%s: %d combined records, %d reported, want %d", name, at, left, len(want))
	}
	if !reflect.DeepEqual(runs, before) {
		t.Fatalf("%s: the runs were written to", name)
	}
}
