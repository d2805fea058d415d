package main

import (
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"unsafe"

	"efind/internal/dfs"
	"efind/internal/kvstore"
	"efind/internal/tpch"
	"efind/internal/workloads"
)

// digest is an order-independent fingerprint of a multiset of records:
// the record count, the payload byte count, and the wrapping sum of one
// 64-bit hash per record. Reducers write their shards in scheduler
// order, so two correct runs may order the output differently; what must
// match is the multiset. A flipped byte changes that record's CRC and so
// the sum; a dropped or duplicated record changes the count.
type digest struct {
	Records uint64
	Bytes   uint64
	Sum     uint64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// stringBytes views s as bytes without copying; syn_large hashes ~250 MB
// of output per op, and a copy per value would double the cost of the
// untimed check. The bytes are only read.
func stringBytes(s string) []byte {
	if s == "" {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// add folds one record into the digest. The value may be given in parts:
// the CRC streams over them, so a reference evaluator can describe
// "record value + separator + index value" without building the string.
func (d *digest) add(key string, valueParts ...string) {
	kc := crc32.Update(0, castagnoli, stringBytes(key))
	var vc uint32
	n := 0
	for _, p := range valueParts {
		vc = crc32.Update(vc, castagnoli, stringBytes(p))
		n += len(p)
	}
	h := uint64(kc)<<32 | uint64(vc)
	h ^= uint64(len(key))*0x9e3779b97f4a7c15 + uint64(n)
	// murmur3 finalizer: spreads the two CRCs over all 64 bits so sums
	// of many records do not cancel structurally.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	d.Records++
	d.Bytes += uint64(len(key) + n)
	d.Sum += h
}

func (d digest) String() string {
	return fmt.Sprintf("%d records/%d B/%016x", d.Records, d.Bytes, d.Sum)
}

// digestRecords fingerprints a record slice.
func digestRecords(recs []dfs.Record) digest {
	var d digest
	for _, r := range recs {
		d.add(r.Key, r.Value)
	}
	return d
}

// digestFile fingerprints a job's output file.
func digestFile(f *dfs.File) (digest, error) {
	var d digest
	for _, c := range f.Chunks {
		recs, err := c.Records()
		if err != nil {
			return digest{}, err
		}
		for _, r := range recs {
			d.add(r.Key, r.Value)
		}
	}
	return d, nil
}

// synReference evaluates the synthetic join (§5.1) by nested loop: every
// input record is joined with the l-byte value of its key and grouped by
// record key (record keys are unique, so the group-by is the identity).
// The index is rebuilt here from the generator's contract — each key that
// occurs maps to indexValueSize bytes of 'v' — not read from the store,
// so a store, cache, strategy or scheduler bug cannot hide in both sides.
func synReference(input []dfs.Record, indexValueSize int) digest {
	ival := strings.Repeat("v", indexValueSize)
	idx := make(map[string]string)
	for _, r := range input {
		idx[workloads.SyntheticKey(r.Value)] = ival
	}
	var d digest
	for _, r := range input {
		d.add(r.Key, r.Value, "\x00", idx[workloads.SyntheticKey(r.Value)])
	}
	return d
}

// firstOf is a raw index read: the store's first value for key.
func firstOf(s *kvstore.Store, key string) (string, bool) {
	vs, err := s.Lookup(key)
	if err != nil || len(vs) == 0 {
		return "", false
	}
	return vs[0], true
}

// sumDigest fingerprints the (group, sum) rows of an aggregate.
func sumDigest(sums map[string]int) digest {
	var d digest
	for k, v := range sums {
		d.add(k, strconv.Itoa(v))
	}
	return d
}

// q3Reference evaluates TPC-H Q3 as plain nested-loop joins straight
// against the tables: shipdate > cutoff, orderdate < cutoff, market
// segment BUILDING; revenue summed per (orderkey, orderdate, priority).
func q3Reference(w *tpch.Workload) digest {
	sums := make(map[string]int)
	for _, r := range w.Input.All() {
		li, ok := tpch.ParseLineItem(r.Value)
		if !ok || li.ShipDate <= tpch.Q3DateCutoff {
			continue
		}
		order, ok := firstOf(w.Orders, li.OrderKey)
		if !ok {
			continue
		}
		o := strings.Split(order, "|") // custkey|orderdate|priority
		if len(o) != 3 {
			continue
		}
		date, err := strconv.Atoi(o[1])
		if err != nil || date >= tpch.Q3DateCutoff {
			continue
		}
		cust, ok := firstOf(w.Customer, o[0])
		if !ok || strings.SplitN(cust, "|", 2)[0] != "BUILDING" {
			continue
		}
		sums[li.OrderKey+"|"+o[1]+"|"+o[2]] += li.Revenue()
	}
	return sumDigest(sums)
}

// q9Reference evaluates TPC-H Q9: parts named *green*, profit =
// revenue − supplycost·quantity, summed per (supplier nation, order year).
func q9Reference(w *tpch.Workload) digest {
	sums := make(map[string]int)
	for _, r := range w.Input.All() {
		li, ok := tpch.ParseLineItem(r.Value)
		if !ok {
			continue
		}
		supp, ok := firstOf(w.Supplier, li.SuppKey)
		if !ok {
			continue
		}
		part, ok := firstOf(w.Part, li.PartKey)
		if !ok || !strings.Contains(strings.SplitN(part, "|", 2)[0], "green") {
			continue
		}
		costStr, ok := firstOf(w.PartSupp, li.PartKey+":"+li.SuppKey)
		if !ok {
			continue
		}
		cost, err := strconv.Atoi(costStr)
		if err != nil {
			continue
		}
		order, ok := firstOf(w.Orders, li.OrderKey)
		if !ok {
			continue
		}
		o := strings.Split(order, "|")
		if len(o) != 3 {
			continue
		}
		date, err := strconv.Atoi(o[1])
		if err != nil {
			continue
		}
		nation, ok := firstOf(w.Nation, strings.SplitN(supp, "|", 2)[0])
		if !ok {
			continue
		}
		sums[nation+"|"+strconv.Itoa(1992+date/365)] += li.Revenue() - cost*li.Quantity
	}
	return sumDigest(sums)
}
