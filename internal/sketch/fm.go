// Package sketch implements the Flajolet–Martin probabilistic distinct
// counter the paper uses (§4.2) to estimate Θ, the average number of
// duplicates per index lookup key: each map/reduce task keeps an FM bit
// vector updated by the lookup keys, the per-task vectors are OR-ed
// together, and the total key count divided by the estimated distinct
// count gives Θ.
package sketch

import (
	"hash/fnv"
	"math"
	"math/bits"
)

// phi is the Flajolet–Martin correction factor (1/0.77351).
const phi = 0.77351

// FM is a Flajolet–Martin distinct-count sketch using m independent bit
// vectors (stochastic averaging over hash-selected vectors) to tighten the
// estimate. The zero value is not usable; call New.
type FM struct {
	vectors []uint64
}

// New returns a sketch with m bit vectors. Typical m is 64; the paper's
// accuracy needs are modest (Θ feeds a coarse cost model). m is clamped to
// at least 1.
func New(m int) *FM {
	if m < 1 {
		m = 1
	}
	return &FM{vectors: make([]uint64, m)}
}

// Add registers one occurrence of key.
func (f *FM) Add(key string) {
	h := fnv.New64a()
	h.Write([]byte(key))
	v := h.Sum64()
	// Low bits select the vector; the remaining bits drive the
	// least-significant-one position, as in the original algorithm.
	idx := int(v % uint64(len(f.vectors)))
	rest := v / uint64(len(f.vectors))
	r := bits.TrailingZeros64(rest)
	if r > 63 {
		r = 63
	}
	f.vectors[idx] |= 1 << uint(r)
}

// MergeVectors ORs another sketch's vectors, as Vectors returned them, into
// this one. Both sketches must have been created with the same m;
// MergeVectors panics otherwise because the result would silently be wrong.
func (f *FM) MergeVectors(vs []uint64) {
	if len(f.vectors) != len(vs) {
		panic("sketch: merging FM sketches of different widths")
	}
	for i, v := range vs {
		f.vectors[i] |= v
	}
}

// Reset empties the sketch, keeping its width.
func (f *FM) Reset() { clear(f.vectors) }

// Estimate returns the estimated number of distinct keys added.
func (f *FM) Estimate() float64 {
	if len(f.vectors) == 0 {
		return 0
	}
	sum := 0.0
	empty := true
	for _, v := range f.vectors {
		r := firstZero(v)
		sum += float64(r)
		if v != 0 {
			empty = false
		}
	}
	if empty {
		return 0
	}
	m := float64(len(f.vectors))
	mean := sum / m
	return m * math.Pow(2, mean) / phi
}

// Vectors exposes the raw bit vectors, not a copy, so the MapReduce layer
// can ship them out of a task: they change with the next Add or Reset.
func (f *FM) Vectors() []uint64 { return f.vectors }

// FromVectors rebuilds a sketch from raw vectors.
func FromVectors(vs []uint64) *FM {
	f := &FM{vectors: make([]uint64, len(vs))}
	copy(f.vectors, vs)
	return f
}

// firstZero returns the position of the lowest zero bit in v.
func firstZero(v uint64) int {
	return bits.TrailingZeros64(^v)
}
