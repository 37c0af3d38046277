package queueing

import (
	"fmt"
	"math"
	"testing"

	"duplexity/internal/idle"
	"duplexity/internal/stats"
)

// goldenResult is the bit pattern of one Simulate result: every float
// field as math.Float64bits, in declaration order, plus the counters.
type goldenResult struct {
	Floats                   [13]uint64
	Completed, IdleIntervals int
	TotalRequests            int
	Converged                bool
}

func goldenOf(r Result) goldenResult {
	fs := []float64{r.MeanUs, r.P50Us, r.P95Us, r.P99Us, r.P99LoUs, r.P99HiUs,
		r.Utilization, r.MeanQueueDepth, r.IdleFraction, r.MeanIdleUs,
		r.MeanBusyUs, r.WakeChargedUs, r.SimulatedUs}
	var g goldenResult
	for i, f := range fs {
		g.Floats[i] = math.Float64bits(f)
	}
	g.Completed, g.IdleIntervals = r.Completed, r.IdleIntervals
	g.TotalRequests, g.Converged = r.TotalRequests, r.Converged
	return g
}

// TestSimulateGolden pins Simulate's output bit for bit. Cached campaign
// payloads are digests of these numbers, so a change to the recorder,
// the quantile selection or distribution sampling that moves a single
// bit fails here; such a change must bump core.ModelVersion and re-pin
// the table.
func TestSimulateGolden(t *testing.T) {
	gov, ok := idle.ByName(idle.GovAdaptive)
	if !ok {
		t.Fatal("adaptive governor missing")
	}
	cases := []struct {
		name string
		cfg  Config
		want goldenResult
	}{
		{"lognormal-cv0.5-scaled", Config{
			ArrivalQPS: 60_000,
			ServiceUs:  stats.Scaled{Base: stats.Lognormal{MeanVal: 8, CV: 0.5}, Factor: 1.25},
			Seed:       101,
		}, goldenResult{Floats: [13]uint64{
			0x4033a5ec5d031d84, 0x402e428e7f51c000, 0x4048f20ca54f3d00, 0x40527638790b3600,
			0x4051f3a339b87000, 0x4053151e2d553000, 0x3fe3329a16722729, 0x3fe281e650075840,
			0x3fd99acbd31bb1b4, 0x4030add24526ab76, 0x403902c8b7165d01, 0x0000000000000000,
			0x411a105524e9f824},
			Completed: 24576, IdleIntervals: 10243, TotalRequests: 25576, Converged: true,
		}},
		{"lognormal-cv1-scaled", Config{
			ArrivalQPS: 50_000,
			ServiceUs:  stats.Scaled{Base: stats.Lognormal{MeanVal: 10, CV: 1}, Factor: 1.1},
			Seed:       102,
		}, goldenResult{Floats: [13]uint64{
			0x40385bebffb03ca3, 0x402ef1e254ca5000, 0x405329aff3e8e500, 0x405fc8602c5e6400,
			0x405e83a3452ea000, 0x40609a52ab42c800, 0x3fe17238c4e59c12, 0x3fe53cee9f8e89c6,
			0x3fdd1b8e7634c754, 0x4034414d70618565, 0x403847ce10508bb4, 0x0000000000000000,
			0x411f65f9bfcf8a88},
			Completed: 24576, IdleIntervals: 11551, TotalRequests: 25576, Converged: true,
		}},
		{"lognormal-cv2-scaled", Config{
			ArrivalQPS: 40_000,
			ServiceUs:  stats.Scaled{Base: stats.Lognormal{MeanVal: 10, CV: 2}, Factor: 1.4},
			Seed:       103,
		}, goldenResult{Floats: [13]uint64{
			0x404c5c35b32727c9, 0x4034b9d17f2a6000, 0x406c7568bf2c43fa, 0x407def43ec52a986,
			0x407d0c06db12fb00, 0x407f2aa44270b800, 0x3fe1e9957e6c830f, 0x3ffb86a095f5193a,
			0x3fdc2cd50326f967, 0x4038c4428cc197bc, 0x403f7dafaa11ad0d, 0x0000000000000000,
			0x4129af1b74c7b439},
			Completed: 32768, IdleIntervals: 14960, TotalRequests: 33768, Converged: true,
		}},
		{"deterministic-extra", Config{
			ArrivalQPS: 70_000,
			ServiceUs:  stats.Deterministic{Value: 9},
			ExtraUs:    stats.Shifted{Base: stats.Lognormal{MeanVal: 1.5, CV: 1}, Shift: 0.5},
			Seed:       104,
		}, goldenResult{Floats: [13]uint64{
			0x403dc7e4591959f5, 0x4036e18999f66000, 0x405272ec94033d00, 0x405a720b1adae500,
			0x405a0a7e83750800, 0x405aee7a6da10000, 0x3fe8b009d1982e2d, 0x3ff517e5e35ce42d,
			0x3fcd3fd8b99f46cc, 0x402c5cd5f7c87ef7, 0x4047f06eaae7a9d5, 0x0000000000000000,
			0x411640e2e2abf07e},
			Completed: 24576, IdleIntervals: 5875, TotalRequests: 25576, Converged: true,
		}},
		// The tail cells' saturated point: a floor above the window, so
		// no convergence check ever runs.
		{"unstable-window", Config{
			ArrivalQPS:    120_000,
			ServiceUs:     stats.Scaled{Base: stats.Lognormal{MeanVal: 10, CV: 1}, Factor: 1},
			AllowUnstable: true,
			MinRequests:   400_000,
			MaxRequests:   50_000,
			Seed:          105,
		}, goldenResult{Floats: [13]uint64{
			0x40e599593fa767ae, 0x40e665a086e1f16e, 0x40f449ba610fd4d1, 0x40f532646f3a7ae1,
			0x40f530fe692916b0, 0x40f537905230a8c8, 0x3fefffe4e6be1681, 0x40b0dde4b6ccbd2f,
			0x3eeb1941e97f65f7, 0x401a7a92ad32680b, 0x411f4482c1aacf0c, 0x0000000000000000,
			0x411f449d3c3d7c3e},
			Completed: 50000, IdleIntervals: 1, TotalRequests: 51000, Converged: false,
		}},
		// The tail cells' stable floor: the first check sees 401,408
		// samples.
		{"tail-floor", Config{
			ArrivalQPS:  75_000,
			ServiceUs:   stats.Scaled{Base: stats.Lognormal{MeanVal: 10, CV: 1}, Factor: 1.2},
			MinRequests: 400_000,
			MaxRequests: 3_000_000,
			Seed:        108,
		}, goldenResult{Floats: [13]uint64{
			0x405e3c3bc3f7be51, 0x405454db584cd800, 0x4076e90a77a8db32, 0x4081b99bf7d147b8,
			0x40819ce059fdb000, 0x4081dd4f4efaf000, 0x3fecca0f701f6cd6, 0x4020549f3d11f73f,
			0x3fb9af847f049e8e, 0x402ac67ade2a909f, 0x405e02bb0eb704cc, 0x0000000000000000,
			0x41547a9ce803b942},
			Completed: 401408, IdleIntervals: 40234, TotalRequests: 402408, Converged: true,
		}},
		// A tight target: dozens of checks over a growing buffer.
		{"many-checks", Config{
			ArrivalQPS:   50_000,
			ServiceUs:    stats.Scaled{Base: stats.Lognormal{MeanVal: 10, CV: 2}, Factor: 1},
			MinRequests:  30_000,
			MaxRequests:  600_000,
			TargetRelErr: 0.01,
			Seed:         109,
		}, goldenResult{Floats: [13]uint64{
			0x4041eaebadd6b97b, 0x4028768f5d9a0000, 0x4062289f03bcbff8, 0x4074e8b4a4577003,
			0x4074afdf9b08c000, 0x407527d72d9d2000, 0x3fe003e9de9a1e20, 0x3ff4b4a03a3970f1,
			0x3fdff82c42cbc29b, 0x4033f7ce586d6981, 0x40340195670336d2, 0x0000000000000000,
			0x4166e41eefcba628},
			Completed: 600000, IdleIntervals: 300232, TotalRequests: 601000, Converged: false,
		}},
		// Light deterministic load: most sojourns are exactly equal, the
		// worst case for selection's partitioning.
		{"heavy-duplicates", Config{
			ArrivalQPS: 5_000,
			ServiceUs:  stats.Deterministic{Value: 10},
			Seed:       110,
		}, goldenResult{Floats: [13]uint64{
			0x4024893674766be6, 0x4024000000000000, 0x40246d3e1e6a0000, 0x40324ed4cca48000,
			0x40320dcbf2f40000, 0x403288c4af6e0000, 0x3fa9a568effbc187, 0x3f56269d515d4dd3,
			0x3fee65a9710043e8, 0x4068fb0a7030da29, 0x402513838898bc2d, 0x0000000000000000,
			0x41537a53af306ed5},
			Completed: 24576, IdleIntervals: 24270, TotalRequests: 25576, Converged: true,
		}},
		{"idle-governor", Config{
			ArrivalQPS: 20_000,
			ServiceUs:  stats.Lognormal{MeanVal: 10, CV: 1},
			IdleGov:    gov,
			Seed:       106,
		}, goldenResult{Floats: [13]uint64{
			0x403b4ff2fd6a08d3, 0x4032a1b82a61b000, 0x4050ee0fbd5e4400, 0x4056f8e4d8232700,
			0x40565cc95b5b4000, 0x4057b40dc5b0c000, 0x3fd75b3f2c2ed613, 0x3fd60a74df481c12,
			0x3fe4526069e894c6, 0x4048fe59b11e1a8b, 0x403cb9d0aa3f25c0, 0x4109c92be39bac9a,
			0x4133890a2bbd097c},
			Completed: 24576, IdleIntervals: 16265, TotalRequests: 25576, Converged: true,
		}},
		{"never-converges", Config{
			ArrivalQPS:   50_000,
			ServiceUs:    stats.Exponential{MeanVal: 10},
			TargetRelErr: 1e-9,
			MaxRequests:  60_000,
			Seed:         107,
		}, goldenResult{Floats: [13]uint64{
			0x4033c70777d53263, 0x402b6c2d8c2dc000, 0x404e05e27a224ffd, 0x405681000cbbfd8a,
			0x405636360a341000, 0x4056e22ef04d0000, 0x3fe002081905d692, 0x3fdf8056b6790fea,
			0x3fdffbefcdf45351, 0x4033de1c4b1790e0, 0x4033e32892822fbf, 0x0000000000000000,
			0x413280466f6cc46e},
			Completed: 60000, IdleIntervals: 30499, TotalRequests: 61000, Converged: false,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Simulate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenOf(res); got != tc.want {
				t.Errorf("result moved:\n got  %s\n want %s", fmtGolden(got), fmtGolden(tc.want))
			}
		})
	}
}

// fmtGolden prints a goldenResult as a Go literal, so a deliberate,
// ModelVersion-bumping change can re-pin the table by copy-paste.
func fmtGolden(g goldenResult) string {
	s := "goldenResult{Floats: [13]uint64{"
	for i, b := range g.Floats {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%#016x", b)
	}
	return s + fmt.Sprintf("}, Completed: %d, IdleIntervals: %d, TotalRequests: %d, Converged: %t}",
		g.Completed, g.IdleIntervals, g.TotalRequests, g.Converged)
}
