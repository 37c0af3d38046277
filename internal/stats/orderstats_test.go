package stats

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sort"
	"testing"
)

// checkQs spans both extremes, the interpolating interior and the tail
// ranks the queueing simulator reads.
var checkQs = []float64{0, 1e-9, 0.01, 0.25, 0.5, 0.95, 0.99, 0.999, 1 - 1e-12, 1}

// sameFloat reports a == b, counting two NaNs as equal.
func sameFloat(a, b float64) bool { return a == b || a != a && b != b }

// refCI is the binomial order-statistic interval of QuantileCI, read
// from a fully sorted copy.
func refCI(sorted []float64, q, z float64) (est, lo, hi float64) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	sd := z * math.Sqrt(float64(n)*q*(1-q))
	loIdx := min(max(int(math.Floor(q*float64(n)-sd)), 0), n-1)
	hiIdx := min(max(int(math.Ceil(q*float64(n)+sd)), 0), n-1)
	return Quantile(sorted, q), sorted[loIdx], sorted[hiIdx]
}

// checkAgainstSort compares every order-statistic answer of l with a
// sort.Float64s reference over ref. Queries run in an order drawn from
// r, so ranks placed by earlier queries bound later selections in
// varied ways.
func checkAgainstSort(t testing.TB, l *LatencyRecorder, ref []float64, r *RNG) {
	t.Helper()
	sorted := slices.Clone(ref)
	sort.Float64s(sorted)
	n := len(sorted)
	if l.Count() != n {
		t.Fatalf("Count = %d, want %d", l.Count(), n)
	}
	for _, idx := range r.Perm(len(checkQs)) {
		q := checkQs[idx]
		if got, want := l.Quantile(q), Quantile(sorted, q); !sameFloat(got, want) {
			t.Fatalf("n=%d: Quantile(%v) = %v, want %v", n, q, got, want)
		}
		est, lo, hi := l.QuantileCI(q, 1.96)
		we, wl, wh := refCI(sorted, q, 1.96)
		if !sameFloat(est, we) || !sameFloat(lo, wl) || !sameFloat(hi, wh) {
			t.Fatalf("n=%d: QuantileCI(%v) = %v [%v, %v], want %v [%v, %v]", n, q, est, lo, hi, we, wl, wh)
		}
	}
	if got, want := l.P99(), Quantile(sorted, 0.99); !sameFloat(got, want) {
		t.Fatalf("n=%d: P99 = %v, want %v", n, got, want)
	}
	qs := []float64{0.50, 0.95, 0.99}
	ests := make([]float64, len(qs))
	lo, hi := l.QuantilesCI(1.96, qs, ests)
	_, wl, wh := refCI(sorted, 0.99, 1.96)
	for i, q := range qs {
		if want := Quantile(sorted, q); !sameFloat(ests[i], want) {
			t.Fatalf("n=%d: QuantilesCI q=%v = %v, want %v", n, q, ests[i], want)
		}
	}
	if !sameFloat(lo, wl) || !sameFloat(hi, wh) {
		t.Fatalf("n=%d: QuantilesCI interval [%v, %v], want [%v, %v]", n, lo, hi, wl, wh)
	}
}

// checkSamples compares Samples() with the sorted reference.
func checkSamples(t testing.TB, l *LatencyRecorder, ref []float64) {
	t.Helper()
	sorted := slices.Clone(ref)
	sort.Float64s(sorted)
	got := l.Samples()
	if len(got) != len(sorted) {
		t.Fatalf("Samples has %d values, want %d", len(got), len(sorted))
	}
	for i := range got {
		if !sameFloat(got[i], sorted[i]) {
			t.Fatalf("Samples[%d] = %v, want %v", i, got[i], sorted[i])
		}
	}
}

// TestLatencyRecorderMatchesSortReference checks selection-based
// answers against sorting, at sizes around the small-range cut-offs and
// at the tail cells' first convergence check (401,408 samples), over
// inputs that stress partitioning: all-equal values, heavy duplicates,
// and already ordered or reversed data.
func TestLatencyRecorderMatchesSortReference(t *testing.T) {
	gens := map[string]func(r *RNG, i, n int) float64{
		"exponential": func(r *RNG, _, _ int) float64 { return r.ExpFloat64() * 100 },
		"all-equal":   func(*RNG, int, int) float64 { return 7 },
		"three-values": func(r *RNG, _, _ int) float64 {
			return float64(r.Intn(3))
		},
		"ascending":  func(_ *RNG, i, _ int) float64 { return float64(i) },
		"descending": func(_ *RNG, i, n int) float64 { return float64(n - i) },
		"organ-pipe": func(_ *RNG, i, n int) float64 { return float64(min(i, n-i)) },
	}
	for _, n := range []int{0, 1, 2, 16, 17, 1000, 401_408} {
		for name, gen := range gens {
			r := NewRNG(uint64(n) + 3)
			l := NewLatencyRecorder(n)
			ref := make([]float64, n)
			for i := range ref {
				ref[i] = gen(r, i, n)
				l.Add(ref[i])
			}
			checkAgainstSort(t, l, ref, r)
			checkSamples(t, l, ref)
			// Queries on the sorted buffer read it directly.
			checkAgainstSort(t, l, ref, r)
			l.Reset()
			if l.Count() != 0 || !math.IsNaN(l.Mean()) || !math.IsNaN(l.Quantile(0.5)) {
				t.Fatalf("%s n=%d: Reset left %d samples", name, n, l.Count())
			}
			for _, x := range ref[:min(n, 5)] {
				l.Add(x)
			}
			checkAgainstSort(t, l, ref[:min(n, 5)], r)
		}
	}
}

// TestLatencyRecorderInterleavedOps mixes Adds, queries, Samples and
// Resets the way long-lived recorders see them, including Adds right
// after a query (which must invalidate placed ranks) and after Samples
// (which must invalidate the sorted order).
func TestLatencyRecorderInterleavedOps(t *testing.T) {
	r := NewRNG(11)
	l := NewLatencyRecorder(8)
	var ref []float64
	for step := 0; step < 400; step++ {
		switch op := r.Intn(10); {
		case op < 6:
			for i, k := 0, r.Intn(40); i < k; i++ {
				x := r.ExpFloat64()
				if r.Bernoulli(0.3) {
					x = float64(r.Intn(4))
				}
				l.Add(x)
				ref = append(ref, x)
			}
		case op < 8:
			checkAgainstSort(t, l, ref, r)
		case op < 9:
			checkSamples(t, l, ref)
		default:
			l.Reset()
			ref = ref[:0]
		}
	}
	checkAgainstSort(t, l, ref, r)
}

// TestLatencyRecorderRepeatQueryDoesNotReselect pins the hedge-threshold
// path: a query repeated with no Add in between reads the ranks the
// first one placed. Every other slot is then overwritten with +Inf; a
// query that selected again would see the corruption.
func TestLatencyRecorderRepeatQueryDoesNotReselect(t *testing.T) {
	r := NewRNG(2)
	l := NewLatencyRecorder(0)
	for i := 0; i < 50_000; i++ {
		l.Add(r.ExpFloat64())
	}
	p99 := l.Quantile(0.99)
	est, lo, hi := l.QuantileCI(0.99, 1.96)
	for i := range l.buf {
		if _, placed := slices.BinarySearch(l.placed, i); !placed {
			l.buf[i] = math.Inf(1)
		}
	}
	if got := l.Quantile(0.99); got != p99 {
		t.Fatalf("repeated Quantile = %v, want %v: it selected again", got, p99)
	}
	if e, a, b := l.QuantileCI(0.99, 1.96); e != est || a != lo || b != hi {
		t.Fatalf("repeated QuantileCI = %v [%v, %v], want %v [%v, %v]", e, a, b, est, lo, hi)
	}
	l.Add(1)
	if got := l.Quantile(0.99); got == p99 {
		t.Fatalf("Quantile after Add = %v: the Add did not invalidate placed ranks", got)
	}
}

// encodeAdds renders xs as fuzz input: one full-precision Add each.
func encodeAdds(xs ...float64) []byte {
	var b []byte
	for _, x := range xs {
		b = append(b, 0)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// FuzzLatencyRecorderOrderStats drives a recorder with an operation
// stream and checks every answer against sorting. Each op byte's low
// three bits pick the operation: 0-4 Add (bit 3 set: a small integer
// from the next byte, for duplicates; clear: the next eight bytes as
// raw float64 bits, NaN and infinities included), 5 a round of
// queries, 6 Samples, 7 Reset. Inputs are cut at 4 KiB. The seed
// corpus runs under go test.
func FuzzLatencyRecorderOrderStats(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 1, 8, 1, 8, 0, 8, 3, 5, 8, 2, 6, 8, 0, 5})
	f.Add(append(encodeAdds(3, math.Inf(1), math.Copysign(0, -1), 0, math.Inf(-1), 2, 2), 5, 6, 7, 8, 9, 5))
	f.Add(append(encodeAdds(1, math.NaN(), 4, 4), 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6))
	r := NewRNG(21)
	var xs []float64
	for i := 0; i < 300; i++ {
		xs = append(xs, r.ExpFloat64())
	}
	f.Add(append(encodeAdds(xs...), 5))
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Every query round re-sorts the reference, so the work grows
		// with the square of the input; keep each input quick.
		ops = ops[:min(len(ops), 4096)]
		l := NewLatencyRecorder(0)
		var ref []float64
		r := NewRNG(uint64(len(ops)))
		for len(ops) > 0 {
			op := ops[0]
			ops = ops[1:]
			switch op & 7 {
			case 5:
				checkAgainstSort(t, l, ref, r)
			case 6:
				checkSamples(t, l, ref)
			case 7:
				l.Reset()
				ref = ref[:0]
			default:
				var x float64
				switch {
				case op&8 != 0 && len(ops) >= 1:
					x = float64(ops[0] % 4)
					ops = ops[1:]
				case op&8 == 0 && len(ops) >= 8:
					x = math.Float64frombits(binary.LittleEndian.Uint64(ops))
					ops = ops[8:]
				default:
					ops = nil
					continue
				}
				l.Add(x)
				ref = append(ref, x)
			}
		}
		checkAgainstSort(t, l, ref, r)
		checkSamples(t, l, ref)
	})
}

// TestNthElementPartitions checks the selection kernel directly: for
// every rank, a[k] is the k-th smallest and a is partitioned around it,
// also when a zero or tiny depth budget forces the sorting fallback.
func TestNthElementPartitions(t *testing.T) {
	r := NewRNG(4)
	for _, n := range []int{1, 2, 3, 17, 100, 1500} {
		gens := map[string]func(i int) float64{
			"random":    func(int) float64 { return r.ExpFloat64() },
			"dups":      func(int) float64 { return float64(r.Intn(3)) },
			"ascending": func(i int) float64 { return float64(i) },
		}
		for name, gen := range gens {
			in := make([]float64, n)
			for i := range in {
				in[i] = gen(i)
			}
			sorted := slices.Clone(in)
			sort.Float64s(sorted)
			for _, budget := range []int{0, 1, 2 * bits.Len(uint(n))} {
				for k := range in {
					a := slices.Clone(in)
					nthElement(a, k, budget)
					if a[k] != sorted[k] {
						t.Fatalf("%s n=%d budget=%d: a[%d] = %v, want %v", name, n, budget, k, a[k], sorted[k])
					}
					for i, x := range a {
						if i < k && x > a[k] || i > k && x < a[k] {
							t.Fatalf("%s n=%d budget=%d k=%d: a[%d] = %v on the wrong side of %v", name, n, budget, k, i, x, a[k])
						}
					}
				}
			}
		}
	}
}
