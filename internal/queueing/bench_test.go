package queueing

import (
	"testing"

	"duplexity/internal/stats"
)

// BenchmarkQueueingConverge measures a simulation that runs past the
// MinRequests floor and through many convergence checks over a large
// sample set, the regime of the tail cells' 400k floor. Each check is
// one multi-rank selection (the p99 pair and its CI bounds) over the
// whole buffer, and the final summary one more; nothing is sorted.
func BenchmarkQueueingConverge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(Config{
			ArrivalQPS: 80_000,
			ServiceUs:  stats.Lognormal{MeanVal: 10, CV: 2},
			// A high floor forces ~MinRequests/8192 convergence checks
			// over a large sample set even when the tail converges early.
			MinRequests: 400_000,
			MaxRequests: 500_000,
			Seed:        uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed < 400_000 {
			b.Fatalf("completed %d < floor", res.Completed)
		}
	}
}

// BenchmarkQueueingManyChecks measures the many-check regime: a low
// floor (the energy-proportionality cells sit at 30k) and an
// unreachable target, so a check runs every 8192 requests from 20k all
// the way to a 1M-request cap. The checks' total selection work grows
// quadratically with the run length, so this is where per-check cost
// shows against per-request cost.
func BenchmarkQueueingManyChecks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(Config{
			ArrivalQPS:   80_000,
			ServiceUs:    stats.Scaled{Base: stats.Lognormal{MeanVal: 10, CV: 2}, Factor: 1},
			MinRequests:  20_000,
			MaxRequests:  1_000_000,
			TargetRelErr: 1e-9,
			Seed:         uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Converged || res.Completed != 1_000_000 {
			b.Fatalf("completed %d converged %t, want the full 1M window", res.Completed, res.Converged)
		}
	}
}
