package stats

import (
	"math"
	"sort"
	"testing"
)

func TestLatencyRecorderBasics(t *testing.T) {
	l := NewLatencyRecorder(16)
	if l.Count() != 0 {
		t.Fatal("fresh recorder not empty")
	}
	if !math.IsNaN(l.Mean()) {
		t.Fatal("mean of empty recorder should be NaN")
	}
	for i := 1; i <= 100; i++ {
		l.Add(float64(i))
	}
	if l.Count() != 100 {
		t.Fatalf("count = %d", l.Count())
	}
	if math.Abs(l.Mean()-50.5) > 1e-9 {
		t.Fatalf("mean = %v", l.Mean())
	}
	if p := l.P99(); math.Abs(p-99.01) > 0.5 {
		t.Fatalf("p99 = %v, want ~99", p)
	}
	l.Reset()
	if l.Count() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestLatencyRecorderInterleavedSort(t *testing.T) {
	l := NewLatencyRecorder(4)
	l.Add(5)
	l.Add(1)
	if got := l.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	l.Add(0.5) // must re-sort after adding
	if got := l.Quantile(0); got != 0.5 {
		t.Fatalf("q0 after add = %v", got)
	}
}

// TestLatencyRecorderMergeMatchesFullSort interleaves adds with
// quantile queries (the convergence-check access pattern) and verifies
// the recorder agrees with a full sort of the same observations at
// every checkpoint.
func TestLatencyRecorderMergeMatchesFullSort(t *testing.T) {
	rng := NewRNG(7)
	l := NewLatencyRecorder(64)
	var ref []float64
	for round := 0; round < 50; round++ {
		// Uneven batch sizes exercise empty, tiny, and large tails.
		n := int(rng.Uint64() % 300)
		for i := 0; i < n; i++ {
			x := rng.ExpFloat64() * 100
			l.Add(x)
			ref = append(ref, x)
		}
		sorted := append([]float64(nil), ref...)
		sort.Float64s(sorted)
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			if got, want := l.Quantile(q), Quantile(sorted, q); got != want {
				t.Fatalf("round %d: q%.2f = %v, want %v", round, q, got, want)
			}
		}
		if len(ref) > 0 {
			est, lo, hi := l.QuantileCI(0.99, 1.96)
			if math.IsNaN(est) || lo > est || hi < est {
				t.Fatalf("round %d: CI %v [%v, %v] inconsistent", round, est, lo, hi)
			}
		}
		got := l.Samples()
		if len(got) != len(sorted) {
			t.Fatalf("round %d: Samples len %d, want %d", round, len(got), len(sorted))
		}
		for i := range got {
			if got[i] != sorted[i] {
				t.Fatalf("round %d: Samples[%d] = %v, want %v", round, i, got[i], sorted[i])
			}
		}
	}
}

func TestQuantileCI(t *testing.T) {
	l := NewLatencyRecorder(100000)
	r := NewRNG(33)
	e := Exponential{MeanVal: 1}
	for i := 0; i < 100000; i++ {
		l.Add(e.Sample(r))
	}
	est, lo, hi := l.QuantileCI(0.99, 1.96)
	// Analytic p99 of Exp(1) is -ln(0.01) = 4.605.
	want := -math.Log(0.01)
	if math.Abs(est-want)/want > 0.05 {
		t.Fatalf("p99 = %v, want ~%v", est, want)
	}
	if !(lo <= est && est <= hi) {
		t.Fatalf("CI [%v,%v] does not bracket estimate %v", lo, hi, est)
	}
	if !l.RelativeQuantileErrorBelow(0.99, 1.96, 0.05) {
		t.Fatal("100k exponential samples should satisfy BigHouse 5% criterion")
	}
}

func TestQuantileCIEmpty(t *testing.T) {
	l := NewLatencyRecorder(0)
	est, lo, hi := l.QuantileCI(0.99, 1.96)
	if !math.IsNaN(est) || !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Fatal("empty recorder should return NaN CI")
	}
	if l.RelativeQuantileErrorBelow(0.99, 1.96, 0.05) {
		t.Fatal("empty recorder cannot satisfy error criterion")
	}
}

func TestBinomialPMFSanity(t *testing.T) {
	// Sum over all k must be 1.
	for _, n := range []int{1, 8, 32, 100} {
		for _, p := range []float64{0.1, 0.5, 0.9} {
			sum := 0.0
			for k := 0; k <= n; k++ {
				sum += BinomialPMF(n, p, k)
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("PMF(n=%d,p=%v) sums to %v", n, p, sum)
			}
		}
	}
	// Known value: Binomial(4, 0.5) at k=2 is 6/16.
	if got := BinomialPMF(4, 0.5, 2); math.Abs(got-0.375) > 1e-12 {
		t.Fatalf("PMF(4,0.5,2) = %v", got)
	}
	if BinomialPMF(4, 0.5, -1) != 0 || BinomialPMF(4, 0.5, 5) != 0 {
		t.Fatal("out-of-range k should have zero mass")
	}
	if BinomialPMF(4, 0, 0) != 1 || BinomialPMF(4, 1, 4) != 1 {
		t.Fatal("degenerate p should concentrate mass")
	}
}

func TestBinomialTail(t *testing.T) {
	if got := BinomialTail(10, 0.5, 0); got != 1 {
		t.Fatalf("tail k=0 = %v", got)
	}
	if got := BinomialTail(10, 0.5, 11); got != 0 {
		t.Fatalf("tail k>n = %v", got)
	}
	// P(X>=5) for Binomial(10,0.5) = 0.623046875.
	if got := BinomialTail(10, 0.5, 5); math.Abs(got-0.623046875) > 1e-9 {
		t.Fatalf("tail = %v", got)
	}
}

// Property check against Monte-Carlo: the paper's Fig 2(b) numbers.
// With threads stalled 10% of the time, 11 virtual contexts keep 8
// physical contexts busy ~90% of the time.
func TestBinomialTailPaperNumbers(t *testing.T) {
	if got := BinomialTail(11, 0.9, 8); got < 0.88 || got > 0.99 {
		t.Fatalf("P(>=8 ready | n=11, p_ready=0.9) = %v, want ~0.9+", got)
	}
	// With 50% stall probability, 21 virtual contexts are needed.
	if got := BinomialTail(21, 0.5, 8); got < 0.85 {
		t.Fatalf("P(>=8 ready | n=21, p_ready=0.5) = %v, want >=0.85", got)
	}
	if got := BinomialTail(16, 0.5, 8); got > 0.75 {
		t.Fatalf("P(>=8 ready | n=16, p_ready=0.5) = %v, should be clearly below target", got)
	}
}

func TestBinomialTailMonteCarlo(t *testing.T) {
	r := NewRNG(77)
	const n, trials = 21, 200000
	p := 0.5
	hits := 0
	for i := 0; i < trials; i++ {
		ready := 0
		for j := 0; j < n; j++ {
			if r.Bernoulli(p) {
				ready++
			}
		}
		if ready >= 8 {
			hits++
		}
	}
	mc := float64(hits) / trials
	an := BinomialTail(n, p, 8)
	if math.Abs(mc-an) > 0.01 {
		t.Fatalf("Monte-Carlo %v vs analytic %v", mc, an)
	}
}
