package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {105, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {5, 50},
	} {
		if got := tailPercentile(c.n, 99); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n, 99); c.n >= 20 && c.n-rankOf(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond", c.n, p, c.n-rankOf(c.n, p))
		}
	}
	if got := tailPercentile(1000, 95); got != 95 {
		t.Errorf("tailPercentile(1000, 95) = %g, want 95", got)
	}
}

func TestPercentileHarrellDavis(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	if got := percentile(xs, 50); math.Abs(got-50) > 1e-9 {
		t.Errorf("median of 0..100 = %v, want 50", got)
	}
	if got := percentile(xs, 90); got < 88 || got > 92 {
		t.Errorf("p90 of 0..100 = %v, want about 90", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
	// Weights sum to one: a constant sample set estimates the constant.
	if got := percentile([]float64{3, 3, 3, 3, 3, 3}, 99); math.Abs(got-3) > 1e-12 {
		t.Errorf("percentile of constants = %v", got)
	}
}

func TestRegIncBeta(t *testing.T) {
	// I_x(1, 1) = x; I_x(2, 1) = x^2; I_x(a, b) = 1 - I_{1-x}(b, a).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := regIncBeta(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Errorf("I_%g(1,1) = %v", x, got)
		}
		if got := regIncBeta(2, 1, x); math.Abs(got-x*x) > 1e-12 {
			t.Errorf("I_%g(2,1) = %v", x, got)
		}
		if got, want := regIncBeta(30.5, 2.5, x), 1-regIncBeta(2.5, 30.5, 1-x); math.Abs(got-want) > 1e-12 {
			t.Errorf("symmetry at %g: %v vs %v", x, got, want)
		}
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := mean([]float64{1, 2, 3, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
}

func TestBusyFrac(t *testing.T) {
	if got := busyFrac(20*time.Second, 10*time.Second, 2); got != 1 {
		t.Errorf("fully busy callers = %v, want 1", got)
	}
	// One caller idles for the last 4 s while the other finishes a
	// straggler cell.
	if got := busyFrac(16*time.Second, 10*time.Second, 2); got != 0.8 {
		t.Errorf("straggler = %v, want 0.8", got)
	}
	if got := busyFrac(time.Second, 0, 2); got != 0 {
		t.Errorf("zero wall = %v, want 0", got)
	}
}

func TestScheduleDeterministicFromSeed(t *testing.T) {
	const dead = 250 * time.Millisecond
	a1, f1 := schedule(7, 100, 10*time.Second, 18, 6, 0.05, dead, 2)
	a2, f2 := schedule(7, 100, 10*time.Second, 18, 6, 0.05, dead, 2)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(f1, f2) {
		t.Fatal("the same seed gave different schedules")
	}
	b, _ := schedule(8, 100, 10*time.Second, 18, 6, 0.05, dead, 2)
	if reflect.DeepEqual(a1, b) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a1); n < 850 || n > 1150 {
		t.Errorf("%d arrivals at 100/s over 10 s", n)
	}
	var prev time.Duration
	for i, a := range a1 {
		if a.Due < prev || a.Due >= 10*time.Second {
			t.Fatalf("arrival %d due %v out of order or range", i, a.Due)
		}
		prev = a.Due
	}
	// Every fresh cell is sent as a burst of duplicates due together.
	seen := make(map[int][]time.Duration)
	for _, a := range a1 {
		if a.Warm < 0 {
			seen[a.Fresh] = append(seen[a.Fresh], a.Due)
		}
	}
	if len(seen) != len(f1) || len(f1) == 0 {
		t.Fatalf("%d fresh cells scheduled, %d drawn", len(seen), len(f1))
	}
	lastDue := time.Duration(-1)
	for i := range f1 {
		dues := seen[i]
		if len(dues) != 2 || dues[0] != dues[1] {
			t.Errorf("fresh cell %d sent as %v", i, dues)
		}
		if i > 0 && dues[0]-lastDue < dead {
			t.Errorf("fresh cell %d starts %v after the previous one", i, dues[0]-lastDue)
		}
		lastDue = dues[0]
		if l := f1[i].Load; l < freshLoadLo || l >= freshLoadHi {
			t.Errorf("fresh load %v out of range", l)
		}
	}
}

func TestRegridLoads(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		g := regridLoads(seed)
		if !reflect.DeepEqual(g, regridLoads(seed)) {
			t.Fatalf("seed %d: grid not deterministic", seed)
		}
		for _, l := range g {
			if l == 0.3 || l == 0.5 || l == 0.7 {
				t.Fatalf("seed %d: grid %v reuses a default load", seed, g)
			}
		}
		if g[0] > 0.25 || g[2] < 0.8 {
			t.Fatalf("seed %d: grid %v lacks a low or a high load", seed, g)
		}
	}
}
