package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"duplexity/internal/campaign"
	"duplexity/internal/core"
	"duplexity/internal/expt"
	"duplexity/internal/telemetry"
)

// campaignWorkload is one of the in-process workloads: a closed loop of
// nproc callers resolving every cell of an expt campaign, each through
// expt.Suite.RunServedRawTraced, on a fresh cache.
type campaignWorkload struct {
	kind string
	// nominal is a typical pass time on a 2-CPU host. It fixes the
	// number of passes a run makes, so a faster program does the same
	// work in less time rather than more work.
	nominal time.Duration
	// regrid resolves the 35 slowdown micro-sims in set-up and then
	// measures tail cells at a seed-drawn load grid over that warm
	// micro-sim layer.
	regrid bool
}

var (
	tailsCold   = campaignWorkload{kind: expt.CampaignTails, nominal: 12 * time.Second}
	tailsRegrid = campaignWorkload{kind: expt.CampaignTails, nominal: 6 * time.Second, regrid: true}
	matrixCold  = campaignWorkload{kind: expt.CampaignMatrix, nominal: 30 * time.Second}
)

// cheapSetups is how many times a run repeats a set-up that costs
// milliseconds, so that setup_s is a median rather than one sample.
const cheapSetups = 21

// passes is the number of whole passes a run of the given length makes.
func passes(seconds int, nominal time.Duration) int {
	n := int(math.Round(float64(time.Duration(seconds)*time.Second) / float64(nominal)))
	return max(n, 1)
}

// passResult is one pass over a campaign's cells.
type passResult struct {
	setup, wall time.Duration
	// lat holds each cell call's latency in ms; cellSum their sum.
	lat []float64
	// gaps holds, in ms, how long each caller took between one cell
	// call's return and its next call: the closed loop's own lateness.
	gaps    []float64
	cellSum time.Duration
	results []expt.RawCellResult
	failed  int
	digest  string
	stats   campaign.Summary
	journal []campaign.JournalEntry
	// slow maps "design/workload" to the frequency-adjusted slowdown
	// the pass's micro-sims measured (traced passes only).
	slow map[string]float64
}

func runCampaign(rc *runCtx, w campaignWorkload) error {
	cs := expt.CampaignSpec{Kind: w.kind}
	var base []campaign.Entry
	var warm *passResult
	if w.regrid {
		cs.Loads = regridLoads(rc.seed)
		note("regrid loads %v", cs.Loads)
		var err error
		if warm, base, err = warmMicro(rc); err != nil {
			return err
		}
	}
	cells, err := cs.Expand()
	if err != nil {
		return err
	}
	if w.kind == expt.CampaignTails {
		cliOrder(cells)
	}
	pass := func(i int, tr *tracer) (*passResult, error) {
		dir := filepath.Join(rc.work, "pass-"+strconv.Itoa(i))
		p, err := campaignPass(rc, cells, base, dir, tr)
		if err != nil {
			return nil, err
		}
		checkPass(rc, w, cells, p)
		return p, os.RemoveAll(dir)
	}

	// Set-up is timed first, while the heap is small, so that the
	// median of the repetitions reads the set-up and not a collector
	// cycle left over from a pass.
	var setups []float64
	if !rc.traced {
		runtime.GC()
		for i := 0; i < cheapSetups; i++ {
			d, err := dryCampaignSetup(rc, cells, base, filepath.Join(rc.work, "setup-"+strconv.Itoa(i)))
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
	}
	n := passes(rc.seconds, w.nominal)
	if rc.traced {
		n = 1
	}
	var runs []*passResult
	for i := 0; i < n; i++ {
		p, err := pass(i, nil)
		if err != nil {
			return err
		}
		runs = append(runs, p)
	}
	for _, p := range runs[1:] {
		if p.digest != runs[0].digest {
			rc.fail("pass payload digests differ: %s vs %s", p.digest, runs[0].digest)
		}
	}
	checkGolden(rc, rc.workload, runs[0].digest)

	if !rc.traced {
		// Every figure is taken per pass and reported as the median
		// over passes, so one slow pass (the first one grows the heap)
		// does not set the tail.
		pct := tailPercentile(len(cells), 99)
		var rates, p50s, tails []float64
		for _, p := range runs {
			rates = append(rates, float64(len(cells))/p.wall.Seconds())
			p50s = append(p50s, percentile(p.lat, 50))
			tails = append(tails, percentile(p.lat, pct))
		}
		setup := median(setups)
		if warm != nil {
			setup += warm.wall.Seconds() + warm.setup.Seconds()
		}
		rss, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		rc.metrics["cells_per_s"] = median(rates)
		rc.metrics["req_p50_ms"] = median(p50s)
		rc.metrics["req_p99_ms"] = median(tails)
		rc.metrics["setup_s"] = setup
		rc.metrics["peak_rss_mb"] = rss
		note("passes %d of %d cells; req_p99_ms reports p%g of a pass's cell latencies, median over passes", len(runs), len(cells), pct)
		return nil
	}

	tr := &tracer{}
	tp, err := pass(1, tr)
	if err != nil {
		return err
	}
	if tp.digest != runs[0].digest {
		rc.fail("traced payload digest %s differs from untraced %s", tp.digest, runs[0].digest)
	}
	spans := tr.snapshot()
	m := rc.metrics
	m["trace.overhead_pct"] = (tp.wall.Seconds()/runs[0].wall.Seconds() - 1) * 100
	if s := byName(spans, "expt.tail_cell"); len(s) > 0 {
		m["expt.tail_cell_ms"] = meanMs(s)
	}
	if s := byName(spans, "expt.matrix_cell"); len(s) > 0 {
		m["expt.matrix_cell_ms"] = meanMs(s)
		m["expt.sim_minst_per_s"] = simMinst(tp)
	}
	journal := tp.journal
	if warm != nil {
		journal = warm.journal
	}
	setSlowdownComputes(m, journal)
	setSummary(m, tp.stats)
	var microWall float64
	for _, e := range tp.journal {
		if e.Layer == campaign.LayerMicrosim && !e.Cached {
			microWall += e.WallSeconds
		}
	}
	var gap time.Duration
	for _, s := range byName(spans, "campaign.micro") {
		gap += s.dur()
	}
	m["campaign.micro_wait_ms"] = math.Max(0, gap.Seconds()-microWall) * 1e3
	m["campaign.busy_frac"] = busyFrac(tp.cellSum, tp.wall, rc.callers)
	m["campaign.cache_get_us"] = meanUs(byName(spans, "campaign.cache"))
	m["campaign.cache_put_us"] = meanUs(byName(spans, "campaign.serialize"))
	m["loadgen.lag_ms"] = percentile(tp.gaps, tailPercentile(len(tp.gaps), 99))
	m["serve.max_rps_at_slo"] = 0
	if err := probeMissing(rc, cells[0]); err != nil {
		return err
	}
	if err := runProbes(rc, probeInputs(cells, tp.slow)); err != nil {
		return err
	}
	return writeSpans(filepath.Join(rc.root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", rc.workload, rc.seed)), spans)
}

// cliOrder puts tail cells in the order the duplexity CLI's tails
// campaign submits them (expt.TailMatrix): workload, then load, then
// design. Each design's micro-sim is then led by its cell at the first
// load, and the cells at later loads find it memoized.
func cliOrder(cells []expt.CellSpec) {
	rank := func(names []string) map[string]int {
		r := make(map[string]int, len(names))
		for i, n := range names {
			r[n] = i
		}
		return r
	}
	wl, ds := rank(expt.KnownWorkloadNames()), rank(expt.KnownDesignNames())
	sort.SliceStable(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Workload != b.Workload {
			return wl[a.Workload] < wl[b.Workload]
		}
		if a.Load != b.Load {
			return a.Load < b.Load
		}
		return ds[a.Design] < ds[b.Design]
	})
}

// setSummary copies the campaign engine's per-layer counters.
func setSummary(m map[string]float64, s campaign.Summary) {
	m["campaign.microsim_misses"] = float64(s.MicrosimMisses)
	m["campaign.microsim_hit_ratio"] = 0
	if n := s.MicrosimHits + s.MicrosimMisses; n > 0 {
		m["campaign.microsim_hit_ratio"] = float64(s.MicrosimHits) / float64(n)
	}
	m["campaign.queueing_hits"] = float64(s.QueueingHits)
	m["campaign.queueing_misses"] = float64(s.QueueingMisses)
}

// setSlowdownComputes records the count of the slowdown micro-sims a
// journal records as computed and, when there are any, their mean wall
// time in ms.
func setSlowdownComputes(m map[string]float64, journal []campaign.JournalEntry) {
	var walls []float64
	for _, e := range journal {
		if e.Kind == expt.KindSlowdown && !e.Cached && e.Status == "" {
			walls = append(walls, e.WallSeconds*1e3)
		}
	}
	m["expt.slowdown_cell_count"] = float64(len(walls))
	if len(walls) > 0 {
		m["expt.slowdown_cell_ms"] = mean(walls)
	}
}

// simMinst is the simulated instructions retired on all cores of a
// pass's matrix cells, in millions per host second.
func simMinst(p *passResult) float64 {
	var inst float64
	for _, r := range p.results {
		inst += retired(r.Result)
	}
	return inst / 1e6 / p.wall.Seconds()
}

// retired is the instructions a matrix cell payload retired on all
// cores (0 for other payloads).
func retired(raw json.RawMessage) float64 {
	var c struct {
		OoO uint64 `json:"ooo_retired"`
		InO uint64 `json:"ino_retired"`
	}
	if json.Unmarshal(raw, &c) != nil {
		return 0
	}
	return float64(c.OoO + c.InO)
}

// warmMicro is the tails-regrid set-up: it resolves the 35 slowdown
// cells in a fixed order on nproc callers and returns their cache
// entries, which every measured pass starts from.
func warmMicro(rc *runCtx) (*passResult, []campaign.Entry, error) {
	cells, err := expt.CampaignSpec{Kind: expt.CampaignSlowdowns}.Expand()
	if err != nil {
		return nil, nil, err
	}
	dir := filepath.Join(rc.work, "micro")
	p, err := campaignPass(rc, cells, nil, dir, nil)
	if err != nil {
		return nil, nil, err
	}
	if p.stats.Misses != len(cells) {
		rc.fail("regrid set-up computed %d of %d slowdown cells", p.stats.Misses, len(cells))
	}
	c, err := campaign.OpenCache(dir)
	if err != nil {
		return nil, nil, err
	}
	var out []campaign.Entry
	for _, r := range p.results {
		e, ok := c.GetEntry(r.Digest)
		if !ok {
			return nil, nil, fmt.Errorf("regrid set-up: slowdown entry %s missing", r.Digest)
		}
		out = append(out, e)
	}
	return p, out, os.RemoveAll(dir)
}

// openPassSuite is a pass's set-up: a fresh cache (seeded with base
// entries), the suite over it, and the content address of every cell,
// which the pass checks its answers against.
func openPassSuite(rc *runCtx, cells []expt.CellSpec, base []campaign.Entry, dir string) (*expt.Suite, []string, error) {
	if len(base) > 0 {
		c, err := campaign.OpenCache(dir)
		if err != nil {
			return nil, nil, err
		}
		for _, e := range base {
			if err := c.Put(e.Key.Digest(), e); err != nil {
				return nil, nil, err
			}
		}
	}
	suite := expt.NewSuite(expt.Options{Scale: benchScale, Seed: rc.seed, Workers: rc.callers, CacheDir: dir})
	if err := suite.Err(); err != nil {
		return nil, nil, err
	}
	digests := make([]string, len(cells))
	for i, c := range cells {
		k, err := suite.ServedKey(c)
		if err != nil {
			return nil, nil, err
		}
		digests[i] = k.Digest()
	}
	return suite, digests, nil
}

// dryCampaignSetup times one pass set-up without running the pass.
func dryCampaignSetup(rc *runCtx, cells []expt.CellSpec, base []campaign.Entry, dir string) (time.Duration, error) {
	t0 := time.Now()
	_, _, err := openPassSuite(rc, cells, base, dir)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, os.RemoveAll(dir)
}

// campaignPass resolves cells on a fresh cache in dir (left for the
// caller to remove) with a closed
// loop of nproc callers that take cells in order. With a tracer it
// records a span per cell call and adopts the engine's stage spans.
func campaignPass(rc *runCtx, cells []expt.CellSpec, base []campaign.Entry, dir string, tr *tracer) (*passResult, error) {
	t0 := time.Now()
	suite, digests, err := openPassSuite(rc, cells, base, dir)
	if err != nil {
		return nil, err
	}
	p := &passResult{setup: time.Since(t0), results: make([]expt.RawCellResult, len(cells))}
	lat := make([]time.Duration, len(cells))
	errs := make([]error, len(cells))

	start := time.Now()
	root := tr.add(0, "", "bench.pass", start, start, "")
	var next atomic.Int64
	var wg sync.WaitGroup
	gaps := make([][]float64, rc.callers)
	for c := 0; c < rc.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := start
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cells) {
					return
				}
				var ct *telemetry.CellTrace
				if tr != nil {
					ct = telemetry.NewCellTrace(telemetry.TraceContext{}, "")
				}
				s := time.Now()
				gaps[c] = append(gaps[c], s.Sub(last).Seconds()*1e3)
				r, err := suite.RunServedRawTraced(cells[i], ct)
				e := time.Now()
				last = e
				p.results[i], errs[i], lat[i] = r, err, e.Sub(s)
				if tr != nil {
					req := strconv.Itoa(i)
					id := tr.add(root, req, "expt."+cells[i].Kind+"_cell", s, e, "")
					tr.adopt(id, req, ct.Spans())
				}
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	tr.end(root, start.Add(p.wall))
	for _, g := range gaps {
		p.gaps = append(p.gaps, g...)
	}

	payloads := make(map[string][]byte, len(cells))
	for i, r := range p.results {
		p.lat = append(p.lat, lat[i].Seconds()*1e3)
		p.cellSum += lat[i]
		if errs[i] != nil {
			p.failed++
			rc.fail("cell %d (%+v): %v", i, cells[i], errs[i])
			continue
		}
		if r.Digest != digests[i] {
			rc.fail("cell %d answered digest %s, want that of %+v", i, r.Digest, cells[i])
		}
		payloads[r.Digest] = r.Result
	}
	p.digest = payloadDigest(payloads)
	p.stats = suite.CampaignStats()
	rc.attempted += len(cells)
	rc.failed += p.failed
	if p.journal, err = campaign.ReadJournal(filepath.Join(dir, "journal.jsonl")); err != nil {
		return nil, err
	}
	if tr != nil {
		p.slow = slowdowns(suite, cells)
	}
	return p, nil
}

// slowdowns recovers the frequency-adjusted slowdown of every (design,
// workload) pair of tail cells from the pass's cached micro-sims, with
// the arithmetic the program uses (expt.freqAdjSlowdown).
func slowdowns(suite *expt.Suite, cells []expt.CellSpec) map[string]float64 {
	cyc := func(design, wl string) (float64, bool) {
		k, err := suite.ServedKey(expt.CellSpec{Kind: expt.KindSlowdown, Design: design, Workload: wl})
		if err != nil {
			return 0, false
		}
		e, ok := suite.Engine().Lookup(k)
		if !ok {
			return 0, false
		}
		var v float64
		return v, json.Unmarshal(e.Result, &v) == nil
	}
	out := make(map[string]float64)
	for _, c := range cells {
		d, _ := expt.ParseDesign(c.Design)
		if d == core.DesignBaseline {
			out[c.Design+"/"+c.Workload] = 1
			continue
		}
		v, ok1 := cyc(c.Design, c.Workload)
		b, ok2 := cyc(core.DesignBaseline.String(), c.Workload)
		if ok1 && ok2 {
			out[c.Design+"/"+c.Workload] = (v / d.FreqGHz()) / (b / core.DesignBaseline.FreqGHz())
		}
	}
	return out
}

// checkPass checks a pass's invariants: the per-layer miss counts the
// workload implies, and a finite, positive p99 in every tail cell.
func checkPass(rc *runCtx, w campaignWorkload, cells []expt.CellSpec, p *passResult) {
	s := p.stats
	switch {
	case w.kind == expt.CampaignMatrix:
		if s.Misses != len(cells) {
			rc.fail("matrix pass computed %d of %d cells", s.Misses, len(cells))
		}
	case w.regrid:
		if s.MicrosimMisses != 0 || s.QueueingMisses != len(cells) {
			rc.fail("tails-regrid pass: %d micro-sim misses (want 0), %d queueing misses (want %d)", s.MicrosimMisses, s.QueueingMisses, len(cells))
		}
	default:
		if s.MicrosimMisses != 35 || s.QueueingMisses != len(cells) {
			rc.fail("tails-cold pass: %d micro-sim misses (want 35), %d queueing misses (want %d)", s.MicrosimMisses, s.QueueingMisses, len(cells))
		}
	}
	for i, r := range p.results {
		if r.Result == nil {
			continue
		}
		switch cells[i].Kind {
		case expt.KindTail:
			var c struct {
				P99Us float64 `json:"p99_us"`
			}
			if err := json.Unmarshal(r.Result, &c); err != nil || !(c.P99Us > 0) || math.IsInf(c.P99Us, 0) {
				rc.fail("tail cell %d: p99 %v (%v)", i, c.P99Us, err)
			}
		case expt.KindMatrix:
			var c struct {
				OoORetired uint64  `json:"ooo_retired"`
				Seconds    float64 `json:"seconds"`
			}
			if err := json.Unmarshal(r.Result, &c); err != nil || c.OoORetired == 0 || !(c.Seconds > 0) {
				rc.fail("matrix cell %d: %s (%v)", i, r.Result, err)
			}
		}
	}
}
