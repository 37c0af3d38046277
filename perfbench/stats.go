package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// tailLadder lists the percentiles tailPercentile may report, highest
// first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder, no
// higher than want, that has at least minBeyond of n samples beyond it
// (50 when none has).
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		if n-rankOf(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// rankOf is the 1-based nearest rank of percentile p among n samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile estimates percentile p of xs with the Harrell-Davis
// estimator: a Beta-weighted mean of all order statistics. Unlike a
// single order statistic it moves smoothly when a sample set is
// bimodal (a cell that leads a micro-sim takes several times longer
// than one that finds it memoized), so run-to-run spread stays small.
// It returns NaN for an empty xs; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	q := p / 100
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := regIncBeta(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by Lentz's continued fraction.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	if x > (a+1)/(a+b+2) {
		return 1 - regIncBeta(b, a, 1-x)
	}
	lg := func(v float64) float64 { l, _ := math.Lgamma(v); return l }
	front := math.Exp(lg(a+b) - lg(a) - lg(b) + a*math.Log(x) + b*math.Log1p(-x))
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	f := d
	for m := 1; m <= 10000; m++ {
		fm := float64(m)
		for _, num := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			f *= c * d
		}
		if math.Abs(c*d-1) < 1e-15 {
			break
		}
	}
	return front * f / a
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count; NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// busyFrac is the share of the callers' capacity spent inside cell
// calls: the summed cell durations over wall time times the number of
// callers. A closed loop that keeps every caller busy reads 1; a
// straggler cell that leaves the other callers idle at the end of a
// pass pulls it down.
func busyFrac(cellSum, wall time.Duration, callers int) float64 {
	if wall <= 0 || callers <= 0 {
		return 0
	}
	return float64(cellSum) / (float64(wall) * float64(callers))
}

// arrival is one scheduled request of the open-loop generator.
type arrival struct {
	// Due is the request's send time relative to the start of the
	// step; latency is measured from it.
	Due time.Duration
	// Warm indexes the warm cell set; it is -1 for a fresh cell.
	Warm int
	// Fresh indexes the step's fresh cells when Warm is -1.
	Fresh int
}

// freshCell is a tail cell no earlier request asked for: one of the
// warm (design, workload) pairs at a new arrival rate.
type freshCell struct {
	Pair int
	// Load is the offered load the arrival rate is drawn at; it is in
	// [freshLoadLo, freshLoadHi) and carries 6 decimals, so two fresh
	// cells never share a rate.
	Load float64
}

// Fresh-cell loads stay low (ρ ≤ 0.6 even at a 1.5x slowdown), where
// every queueing simulation converges at its 400,000-request floor, so
// that fresh cells cost about the same whichever the seed draws.
const (
	freshLoadLo = 0.25
	freshLoadHi = 0.40
)

// schedule draws a seeded Poisson arrival sequence at rate requests per
// second over dur. Each arrival is a warm-set hit, except that with
// probability freshProb it starts a fresh cell, sent as burst
// duplicates due at the same instant, unless the previous fresh cell
// started less than deadTime before: a fresh cell then blocks every
// connection for one computation, and the dead time keeps two of them
// from stacking. The same arguments always give the same schedule.
func schedule(seed uint64, rate float64, dur time.Duration, nWarm, nPairs int, freshProb float64, deadTime time.Duration, burst int) ([]arrival, []freshCell) {
	rng := rand.New(rand.NewPCG(seed, 0x5e57e))
	var out []arrival
	var fresh []freshCell
	lastFresh := time.Duration(-1 << 62)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out, fresh
		}
		if rng.Float64() < freshProb && due-lastFresh >= deadTime {
			lastFresh = due
			u := freshLoadLo + (freshLoadHi-freshLoadLo)*rng.Float64()
			fresh = append(fresh, freshCell{Pair: rng.IntN(nPairs), Load: math.Round(u*1e6) / 1e6})
			for b := 0; b < burst; b++ {
				out = append(out, arrival{Due: due, Warm: -1, Fresh: len(fresh) - 1})
			}
			continue
		}
		out = append(out, arrival{Due: due, Warm: rng.IntN(nWarm)})
	}
}

// regridLoads draws the tails-regrid load grid from the seed: one low
// load, one middle load and one high load, at which the slow designs'
// queues pass ρ ≥ 0.95 and are measured over a finite window. The
// ranges exclude the default grid {0.3, 0.5, 0.7}, so no cell of the
// grid is one the default campaign computes.
func regridLoads(seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 0x9e71d))
	draw := func(lo, hi float64) float64 {
		return math.Round((lo+(hi-lo)*rng.Float64())*100) / 100
	}
	return []float64{draw(0.10, 0.25), draw(0.55, 0.65), draw(0.80, 0.86)}
}
