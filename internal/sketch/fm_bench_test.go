package sketch

import (
	"fmt"
	"testing"
)

func BenchmarkAdd(b *testing.B) {
	fm := New(64)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fm.Add(keys[i%len(keys)])
	}
}

func BenchmarkEstimate(b *testing.B) {
	fm := New(64)
	for i := 0; i < 100000; i++ {
		fm.Add(fmt.Sprintf("key-%08d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fm.Estimate()
	}
}

func BenchmarkMerge(b *testing.B) {
	a, c := New(64), New(64)
	for i := 0; i < 10000; i++ {
		a.Add(fmt.Sprintf("a-%d", i))
		c.Add(fmt.Sprintf("c-%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MergeVectors(c.Vectors())
	}
}
