package stats

import (
	"fmt"
	"testing"
)

// quantileSink keeps the benchmarked queries from being optimized away.
var quantileSink float64

func filledRecorder(n int) *LatencyRecorder {
	r := NewRNG(5)
	l := NewLatencyRecorder(n)
	for i := 0; i < n; i++ {
		l.Add(r.ExpFloat64())
	}
	return l
}

// BenchmarkLatencyRecorderRepeatQuantile times a p99 query repeated
// with no Add in between, as a fleet coordinator's hedge threshold is
// read on every dispatch. Only the first query selects; the rest read
// the placed ranks, so ns/op must not grow with the sample count.
func BenchmarkLatencyRecorderRepeatQuantile(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			l := filledRecorder(n)
			l.Quantile(0.99)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				quantileSink = l.Quantile(0.99)
			}
		})
	}
}

// BenchmarkLatencyRecorderAddQuantile times one Add followed by a p99
// query, the hedge threshold read after each completed cell, over a
// history held between n and 2n samples (refilling costs one more Add
// per iteration).
func BenchmarkLatencyRecorderAddQuantile(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			l := NewLatencyRecorder(2 * n)
			r := NewRNG(9)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%n == 0 {
					l.Reset()
					for j := 0; j < n; j++ {
						l.Add(r.ExpFloat64())
					}
				}
				l.Add(r.ExpFloat64())
				quantileSink = l.Quantile(0.99)
			}
		})
	}
}
