// Package core implements EFind: an efficient and flexible index access
// layer for MapReduce (Ma, Cao, Feng, Chen, Wang — EDBT 2014). It provides
//
//   - the index access interface: IndexOperator (preProcess/postProcess)
//     over one or more index.Accessors, placeable before Map, between Map
//     and Reduce, and after Reduce (IndexJobConf);
//   - the four index access strategies of §3 — baseline, lookup cache,
//     re-partitioning, index locality — with the paper's cost model;
//   - plan enumeration for multiple indices per operator (FullEnumerate
//     and k-Repart, §3.5, Properties 1–4);
//   - the adaptive runtime of §4: on-the-fly statistics via counters and
//     Flajolet–Martin sketches, a variance gate, dynamic re-optimization
//     (Algorithm 1), and mid-job plan changes that reuse completed tasks
//     (Figure 10).
//
// EFind implements no index itself; indices are black boxes behind
// index.Accessor.
package core

import (
	"fmt"
	"strings"

	"efind/internal/index"
	"efind/internal/mapreduce"
)

// Pair aliases the MapReduce record type for API convenience.
type Pair = mapreduce.Pair

// Emit aliases the MapReduce emit type.
type Emit = mapreduce.Emit

// PreResult is what preProcess produces from an input (k1, v1): the
// possibly modified pair plus one key list per index of the operator
// (the paper's (k1', v1', {{ik_1}, ..., {ik_m}})). OneKey builds the
// common case, one key for the first index, without the lists.
type PreResult struct {
	Pair Pair
	// Keys[j] holds the lookup keys for the operator's j-th index (in
	// AddIndex order). A nil or empty list skips that index for this
	// record. Set on a OneKey result, it replaces the key.
	Keys [][]string

	key string // OneKey's key, when one is set
	one bool
}

// OneKey returns the PreResult that looks key up in the operator's first
// index and skips the others: PreResult{Pair: pair, Keys:
// [][]string{{key}}} without allocating the lists, which the runtime cuts
// from the record's own scratch. The empty string is a key.
func OneKey(pair Pair, key string) PreResult {
	return PreResult{Pair: pair, key: key, one: true}
}

// KeyResult is one index lookup outcome: the key and its value list {iv}.
type KeyResult struct {
	Key    string
	Values []string
}

// PreFunc is the user preProcess method. The runtime reads the key lists it
// returns until the record's postProcess has returned and keeps nothing
// afterwards: it may return shared read-only lists, but not ones it
// rewrites from call to call — tasks on different nodes call it at once.
// A OneKey result has no list to share: the runtime holds its key in the
// task's scratch for the same span, and the key may be any string, a
// substring of the record included.
type PreFunc func(in Pair) PreResult

// PostFunc is the user postProcess method: it combines the (possibly
// modified) pair with the per-index lookup results into output pairs
// (k2, v2), optionally filtering (emit zero times) or fanning out.
// results[j][i] corresponds to Keys[j][i] from preProcess.
//
// results and its inner slices (each []KeyResult, each Values list) are
// the task's scratch, refilled for the next record: they are valid until
// the function returns and must not be modified or kept — copy what has to
// outlive the call. The strings inside (pair, keys, values) are never
// reused and may be kept.
type PostFunc func(pair Pair, results [][]KeyResult, emit Emit)

// Operator is the paper's IndexOperator: invocation-specific pre/post
// logic around one or more reusable IndexAccessors, placed at a single
// point of a MapReduce data flow.
type Operator struct {
	name      string
	accessors []index.Accessor
	pre       PreFunc
	post      PostFunc
}

// NewOperator builds an operator. A nil pre defaults to "look up the
// record key in every index, pair unchanged"; a nil post defaults to
// appending all lookup values to the record value, tab-separated.
func NewOperator(name string, pre PreFunc, post PostFunc) *Operator {
	return &Operator{name: name, pre: pre, post: post}
}

// AddIndex attaches an accessor; the paper's addIndex. Indices added to
// the same operator must be independent (their keys must not depend on
// each other's results); dependent accesses belong in chained operators.
func (o *Operator) AddIndex(a index.Accessor) *Operator {
	o.accessors = append(o.accessors, a)
	return o
}

// Name returns the operator's label.
func (o *Operator) Name() string { return o.name }

// Indices returns the attached accessors in AddIndex order.
func (o *Operator) Indices() []index.Accessor { return o.accessors }

// NumIndices returns m, the number of indices at this operator.
func (o *Operator) NumIndices() int { return len(o.accessors) }

// runPre applies the user preProcess (or the default) into the carrier,
// one key list per index: the default's and OneKey's are cut from the
// carrier's own slabs, and a preProcess that returned fewer lists — how
// an operator skips a record — is padded from its own headers.
func (o *Operator) runPre(in Pair, c *carrier) {
	n := len(o.accessors)
	c.reset(n)
	if o.pre == nil {
		c.Pair = in
		c.oneKey(in.Key, n, true)
		return
	}
	r := o.pre(in)
	c.Pair, c.Keys = r.Pair, r.Keys
	if r.one && r.Keys == nil {
		c.oneKey(r.key, n, false)
		return
	}
	if len(r.Keys) < n {
		c.lists = append(c.lists, r.Keys...)
		for len(c.lists) < n {
			c.lists = append(c.lists, nil)
		}
		c.Keys = c.lists
	}
}

// runPost applies the user postProcess (or the default).
func (o *Operator) runPost(pair Pair, results [][]KeyResult, emit Emit) {
	if o.post != nil {
		o.post(pair, results, emit)
		return
	}
	size := len(pair.Value)
	for _, rs := range results {
		for _, kr := range rs {
			for _, iv := range kr.Values {
				size += 1 + len(iv)
			}
		}
	}
	var v strings.Builder
	v.Grow(size)
	v.WriteString(pair.Value)
	for _, rs := range results {
		for _, kr := range rs {
			for _, iv := range kr.Values {
				v.WriteByte('\t')
				v.WriteString(iv)
			}
		}
	}
	emit(Pair{Key: pair.Key, Value: v.String()})
}

// validate rejects operators that cannot run.
func (o *Operator) validate() error {
	if len(o.accessors) == 0 {
		return fmt.Errorf("efind: operator %q has no indices", o.name)
	}
	seen := map[string]bool{}
	for _, a := range o.accessors {
		if seen[a.Name()] {
			return fmt.Errorf("efind: operator %q attaches index %q twice", o.name, a.Name())
		}
		seen[a.Name()] = true
	}
	return nil
}
