package stats

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// LatencyRecorder collects latency observations and answers quantile
// queries. It keeps every sample (request-granularity simulations in this
// repository produce at most a few million observations), which makes
// quantiles exact — important for 99th-percentile comparisons.
//
// Samples live in one unsorted buffer. A query places only the order
// statistics it reads, by in-place multi-rank selection (nth_element),
// in expected O(n) per query instead of a sort. Placed ranks are
// remembered until the next Add: a repeated query reads them directly,
// and a new rank is selected only within the gap between its placed
// neighbours. The BigHouse stopping criterion polls the p99 and its CI
// every few thousand requests, so each poll costs one linear pass.
type LatencyRecorder struct {
	buf []float64
	sum float64
	// placed lists, ascending, the ranks k whose order statistic sits
	// at buf[k] with buf[:k] <= buf[k] <= buf[k+1:]. Add clears it.
	placed []int
	sorted bool // buf is ascending; Add clears it
	nan    bool // a NaN was added; queries fall back to sorting
}

// NewLatencyRecorder returns a recorder with capacity hint n.
func NewLatencyRecorder(n int) *LatencyRecorder {
	return &LatencyRecorder{buf: make([]float64, 0, n)}
}

// Add records one latency observation.
func (l *LatencyRecorder) Add(x float64) {
	l.buf = append(l.buf, x)
	l.sum += x
	l.placed = l.placed[:0]
	l.sorted = false
	if x != x {
		l.nan = true
	}
}

// Count returns the number of observations.
func (l *LatencyRecorder) Count() int { return len(l.buf) }

// Mean returns the mean latency (NaN if empty).
func (l *LatencyRecorder) Mean() float64 {
	if l.Count() == 0 {
		return math.NaN()
	}
	return l.sum / float64(l.Count())
}

// Quantile returns the q-quantile of the recorded samples.
func (l *LatencyRecorder) Quantile(q float64) float64 {
	if len(l.buf) == 0 {
		return math.NaN()
	}
	i, j, frac := quantileRanks(len(l.buf), q)
	l.place(i, j)
	return interpolate(l.buf, i, j, frac)
}

// P99 returns the 99th percentile, the paper's headline tail metric.
func (l *LatencyRecorder) P99() float64 { return l.Quantile(0.99) }

// QuantileCI estimates a confidence interval for the q-quantile using the
// binomial order-statistic method at confidence z (e.g. 1.96 for 95%).
// It returns the point estimate and the interval bounds.
func (l *LatencyRecorder) QuantileCI(q, z float64) (est, lo, hi float64) {
	var e [1]float64
	lo, hi = l.QuantilesCI(z, []float64{q}, e[:])
	return e[0], lo, hi
}

// QuantilesCI writes the qs[i]-quantile to ests[i] and returns the
// z-level confidence interval of the last quantile in qs, as QuantileCI
// does, placing every order statistic involved in one multi-rank
// selection. It reports NaNs when the recorder is empty.
func (l *LatencyRecorder) QuantilesCI(z float64, qs, ests []float64) (lo, hi float64) {
	n := len(l.buf)
	if n == 0 {
		for i := range qs {
			ests[i] = math.NaN()
		}
		return math.NaN(), math.NaN()
	}
	var stack [16]int
	ranks := stack[:0]
	for _, q := range qs {
		i, j, _ := quantileRanks(n, q)
		ranks = append(ranks, i, j)
	}
	// Order-statistic indices: q*n +/- z*sqrt(n*q*(1-q)).
	q := qs[len(qs)-1]
	sd := z * math.Sqrt(float64(n)*q*(1-q))
	// Both ends clamp both ways: at q = 1 the lower index is n.
	loIdx := min(max(int(math.Floor(q*float64(n)-sd)), 0), n-1)
	hiIdx := min(max(int(math.Ceil(q*float64(n)+sd)), 0), n-1)
	l.place(append(ranks, loIdx, hiIdx)...)
	for k, q := range qs {
		i, j, frac := quantileRanks(n, q)
		ests[k] = interpolate(l.buf, i, j, frac)
	}
	return l.buf[loIdx], l.buf[hiIdx]
}

// place puts the order statistic of every rank in ranks at its index.
// Ranks placed since the last Add cost a binary search; a new rank is
// selected only within the gap between its placed neighbours, and ranks
// are taken in ascending order so each bounds the next.
func (l *LatencyRecorder) place(ranks ...int) {
	if l.sorted {
		return
	}
	if l.nan {
		// Selection's comparisons assume a total order; sort.Float64s
		// defines the order NaNs take.
		sort.Float64s(l.buf)
		l.sorted = true
		return
	}
	slices.Sort(ranks)
	for _, k := range ranks {
		pos, found := slices.BinarySearch(l.placed, k)
		if found {
			continue
		}
		lo, hi := 0, len(l.buf)
		if pos > 0 {
			lo = l.placed[pos-1] + 1
		}
		if pos < len(l.placed) {
			hi = l.placed[pos]
		}
		nthElement(l.buf[lo:hi], k-lo, 2*bits.Len(uint(hi-lo)))
		l.placed = slices.Insert(l.placed, pos, k)
	}
}

// nthElement permutes a so that a[k] is its k-th smallest element, with
// a[:k] <= a[k] <= a[k+1:]: Hoare partitioning around a sampled pivot,
// narrowing to the side that holds k. After budget passes it sorts what
// is left; callers pass 2*log2(len(a)), bounding adversarial inputs at
// O(n log n). a holds no NaN.
func nthElement(a []float64, k, budget int) {
	lo, hi := 0, len(a)-1
	for ; hi > lo; budget-- {
		if budget == 0 {
			slices.Sort(a[lo : hi+1])
			return
		}
		p := pivot(a[lo:hi+1], k-lo)
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for p < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo..j] <= p <= a[i..hi], and anything between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// pivot picks a partitioning value, one of a's elements, for placing
// rank k. Small ranges take the median of the quartile elements, not of
// the ends: the ends of a range just partitioned hold what the last pass
// swapped there, and with them a query repeated after one Add degrades
// to near-minimum pivots. Large ranges follow Floyd and Rivest: select
// from a strided sample of about n^(2/3) elements the one whose sample
// rank matches k, offset toward the middle by their margin, so that k
// almost surely lands on the smaller side of the partition. A tail rank
// such as the p99 then leaves a few percent of a after a single pass.
func pivot(a []float64, k int) float64 {
	n := len(a)
	if n < 1024 {
		x, y, z := a[n/4], a[n/2], a[n-1-n/4]
		if y < x {
			x, y = y, x
		}
		if z < y {
			y = z
			if y < x {
				y = x
			}
		}
		return y
	}
	fn := float64(n)
	ln := math.Log(fn)
	s := int(0.5 * math.Exp(2*ln/3))
	stride := n / s
	for t := 0; t < s; t++ {
		a[t], a[t*stride] = a[t*stride], a[t]
	}
	sd := 0.5 * math.Sqrt(ln*float64(s)*(fn-float64(s))/fn)
	if 2*k < n {
		sd = -sd
	}
	ks := int(float64(k)*float64(s)/fn - sd)
	ks = max(0, min(s-1, ks))
	nthElement(a[:s], ks, 2*bits.Len(uint(s)))
	return a[ks]
}

// RelativeQuantileErrorBelow reports whether the q-quantile's confidence
// interval half-width is within frac of the estimate — the BigHouse
// stopping criterion (95% CI within 5%).
func (l *LatencyRecorder) RelativeQuantileErrorBelow(q, z, frac float64) bool {
	est, lo, hi := l.QuantileCI(q, z)
	if math.IsNaN(est) || est == 0 {
		return false
	}
	return (hi-lo)/2/est < frac
}

// Reset discards all recorded samples but keeps capacity.
func (l *LatencyRecorder) Reset() {
	l.buf = l.buf[:0]
	l.sum = 0
	l.placed = l.placed[:0]
	l.sorted = false
	l.nan = false
}

// Samples returns the recorded observations in ascending order (shared
// backing array; do not mutate). It sorts the buffer once; later
// queries read it directly until the next Add.
func (l *LatencyRecorder) Samples() []float64 {
	if !l.sorted {
		sort.Float64s(l.buf)
		l.sorted = true
	}
	return l.buf
}

// BinomialPMF returns P(X = k) for X ~ Binomial(n, p), computed in log
// space for numerical stability at large n.
func BinomialPMF(n int, p float64, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lg := lnChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(lg)
}

// BinomialTail returns P(X >= k) for X ~ Binomial(n, p). The paper's
// Figure 2(b) plots this for k=8 as the probability that at least 8
// virtual contexts are ready.
func BinomialTail(n int, p float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	sum := 0.0
	for i := k; i <= n; i++ {
		sum += BinomialPMF(n, p, i)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// lnChoose returns ln(n choose k) via the log-gamma function.
func lnChoose(n, k int) float64 {
	return lnGamma(float64(n)+1) - lnGamma(float64(k)+1) - lnGamma(float64(n-k)+1)
}

// lnGamma is a Lanczos approximation of the log-gamma function, sufficient
// for binomial coefficients (relative error ~1e-13).
func lnGamma(x float64) float64 {
	// Coefficients for g=7, n=9 Lanczos.
	g := []float64{
		0.99999999999980993,
		676.5203681218851,
		-1259.1392167224028,
		771.32342877765313,
		-176.61502916214059,
		12.507343278686905,
		-0.13857109526572012,
		9.9843695780195716e-6,
		1.5056327351493116e-7,
	}
	if x < 0.5 {
		// Reflection formula.
		return math.Log(math.Pi/math.Sin(math.Pi*x)) - lnGamma(1-x)
	}
	x--
	a := g[0]
	t := x + 7.5
	for i := 1; i < 9; i++ {
		a += g[i] / (x + float64(i))
	}
	return 0.5*math.Log(2*math.Pi) + (x+0.5)*math.Log(t) - t + math.Log(a)
}
