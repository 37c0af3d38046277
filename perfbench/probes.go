package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"duplexity/internal/bpred"
	"duplexity/internal/cache"
	"duplexity/internal/core"
	"duplexity/internal/cpu"
	"duplexity/internal/expt"
	"duplexity/internal/graphwl"
	"duplexity/internal/hsmt"
	"duplexity/internal/isa"
	"duplexity/internal/memsys"
	"duplexity/internal/queueing"
	"duplexity/internal/serve"
	"duplexity/internal/stats"
	"duplexity/internal/telemetry"
	"duplexity/internal/workload"
)

// Layer probes run after the traced pass, so they do not inflate the
// tracing overhead. Each times public functions of one layer on inputs
// taken from the workload's own cells.

// probeCell is one workload cell the probes take their inputs from.
type probeCell struct {
	design core.Design
	spec   *workload.Spec
	load   float64
	lambda float64
	// slow is the cell's frequency-adjusted service slowdown (1 for the
	// baseline and for cells whose micro-sims the run did not measure).
	slow float64
}

// probeSamples is how many of the workload's cells the queueing probe
// simulates.
const probeSamples = 4

// probeCycles is the simulated length of every cycle-level probe.
const probeCycles = 200_000

// probeOps is the length of every per-operation probe.
const probeOps = 1_000_000

func specByName(name string) *workload.Spec {
	for _, s := range workload.Microservices() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// probeInputs picks probeSamples cells spread evenly over the
// workload's cell list. A matrix cell becomes its baseline tail cell at
// the same workload and load.
func probeInputs(cells []expt.CellSpec, slow map[string]float64) []probeCell {
	var out []probeCell
	for i := 0; i < probeSamples; i++ {
		c := cells[i*len(cells)/probeSamples]
		d, _ := expt.ParseDesign(c.Design)
		spec := specByName(c.Workload)
		s, ok := slow[c.Design+"/"+c.Workload]
		if !ok {
			d, s = core.DesignBaseline, 1
		}
		lambda := c.Lambda
		if lambda == 0 {
			lambda = spec.QPSAtLoad(c.Load)
		}
		out = append(out, probeCell{design: d, spec: spec, load: c.Load, lambda: lambda, slow: s})
	}
	return out
}

// queueConfig builds the queueing simulation a tail cell runs, from
// public workload.Spec and core.Design fields, as the program's tail
// cell does (expt.queueTail).
func queueConfig(seed uint64, p probeCell) queueing.Config {
	var extra stats.Distribution
	if r := p.design.RestartLat(); r > 0 {
		restartUs := float64(r) / (p.design.FreqGHz() * 1e3)
		extra = stats.Deterministic{Value: restartUs * (1 - p.load)}
	}
	cfg := queueing.Config{
		ArrivalQPS:  p.lambda,
		ServiceUs:   stats.Scaled{Base: p.spec.ServiceDist(), Factor: p.slow},
		ExtraUs:     extra,
		Seed:        seed*131 + uint64(len(p.spec.Name))*977 + uint64(p.load*1000),
		MinRequests: 400_000,
		MaxRequests: 3_000_000,
	}
	if p.lambda*p.spec.NominalServiceUs*p.slow/1e6 >= 0.95 {
		cfg.AllowUnstable = true
		cfg.MaxRequests = max(int(benchScale*400_000), 50_000)
	}
	return cfg
}

// runProbes fills the probe metrics.
func runProbes(rc *runCtx, cells []probeCell) error {
	m := rc.metrics
	seed := rc.seed

	var ns, reqs, conv float64
	for _, p := range cells {
		t0 := time.Now()
		res, err := queueing.Simulate(queueConfig(seed, p))
		if err != nil {
			return err
		}
		ns += float64(time.Since(t0).Nanoseconds())
		reqs += float64(res.TotalRequests)
		if res.Converged {
			conv++
		}
	}
	m["queueing.ns_per_request"] = ns / reqs
	m["queueing.requests_per_cell"] = reqs / float64(len(cells))
	m["queueing.converged_frac"] = conv / float64(len(cells))

	spec := cells[0].spec
	rng := stats.NewRNG(seed)
	svc := spec.ServiceDist()
	samples := make([]float64, int(reqs)/len(cells))
	for i := range samples {
		samples[i] = svc.Sample(rng)
	}
	var qs []float64
	for rep := 0; rep < 3; rep++ {
		rec := stats.NewLatencyRecorder(len(samples))
		for _, x := range samples {
			rec.Add(x)
		}
		t0 := time.Now()
		_ = rec.Quantile(0.50)
		_ = rec.Quantile(0.95)
		_, _, _ = rec.QuantileCI(0.99, 1.96)
		qs = append(qs, time.Since(t0).Seconds()*1e3)
	}
	m["stats.quantile_ms"] = median(qs)
	ln := stats.Lognormal{MeanVal: spec.NominalServiceUs, CV: spec.ServiceCV}
	if ln.CV == 0 {
		ln.CV = 1
	}
	t0 := time.Now()
	for i := 0; i < probeOps; i++ {
		ln.Sample(rng)
	}
	m["stats.lognormal_ns_per_draw"] = float64(time.Since(t0).Nanoseconds()) / probeOps

	load := cells[0].load
	for _, d := range []core.Design{core.DesignBaseline, core.DesignDuplexity} {
		name := strings.ToLower(d.String())
		open, err := openDyad(seed, d, spec, load)
		if err != nil {
			return err
		}
		t0 := time.Now()
		open.Run(probeCycles)
		m["core.open_mcycles_per_s."+name] = float64(open.Now()) / 1e6 / time.Since(t0).Seconds()
		m["core.skip_ratio."+name] = float64(open.SkippedCycles) / float64(open.Now())

		closed, err := closedDyad(seed, d, spec)
		if err != nil {
			return err
		}
		t0 = time.Now()
		closed.RunUntilRequests(20, 2*probeCycles)
		m["core.closed_mcycles_per_s."+name] = float64(closed.Now()) / 1e6 / time.Since(t0).Seconds()
	}

	fillers, err := fillerSet(seed)
	if err != nil {
		return err
	}
	iport, dport := memsys.LocalPorts(memsys.NewTableICoreMem("probe"), memsys.NewTableIShared("probe", 3.4), cache.OwnerMaster)
	ooo, err := cpu.NewOoOCore(cpu.TableIConfig(), []isa.Stream{spec.NewGen(seed)}, iport, dport, bpred.NewTableIUnit())
	if err != nil {
		return err
	}
	m["cpu.ooo_mcycles_per_s"] = mcyclesPerS(ooo.Step)

	iport, dport = memsys.LocalPorts(memsys.NewTableICoreMem("probe"), memsys.NewTableIShared("probe", 3.4), cache.OwnerFiller)
	ino, err := cpu.NewInOCore(cpu.TableIConfig(), 8, iport, dport, bpred.NewLenderUnit())
	if err != nil {
		return err
	}
	for s := 0; s < ino.Slots(); s++ {
		ino.Bind(s, fillers[s], 0, 0)
	}
	m["cpu.ino_mcycles_per_s"] = mcyclesPerS(ino.Step)

	if fillers, err = fillerSet(seed); err != nil {
		return err
	}
	iport, dport = memsys.LocalPorts(memsys.NewTableICoreMem("probe"), memsys.NewTableIShared("probe", 3.4), cache.OwnerFiller)
	lender, err := cpu.NewInOCore(cpu.TableIConfig(), 8, iport, dport, bpred.NewLenderUnit())
	if err != nil {
		return err
	}
	pool := hsmt.NewPool()
	for i, f := range fillers {
		pool.Add(&hsmt.VirtualContext{ID: i, Stream: f})
	}
	sched, err := hsmt.NewScheduler(lender, pool, hsmt.DefaultSwapLat, hsmt.QuantumCycles(3.4))
	if err != nil {
		return err
	}
	m["hsmt.sched_mcycles_per_s"] = mcyclesPerS(sched.StepCore)

	_, port := memsys.LocalPorts(memsys.NewTableICoreMem("probe"), memsys.NewTableIShared("probe", 3.4), cache.OwnerMaster)
	arng := rand.New(rand.NewPCG(seed, 0xacce55))
	addrs := make([]uint64, probeOps)
	for i := range addrs {
		addrs[i] = arng.Uint64N(4<<20) &^ 7
	}
	t0 = time.Now()
	for i, a := range addrs {
		port.Access(uint64(i), a, i%4 == 0)
	}
	m["memsys.ns_per_access"] = float64(time.Since(t0).Nanoseconds()) / probeOps

	m["workload.ns_per_inst"] = nsPerInst(spec.NewGen(seed))
	if fillers, err = fillerSet(seed); err != nil {
		return err
	}
	m["graphwl.ns_per_inst"] = nsPerInst(fillers[0])
	var gens []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		if _, err := graphwl.GenPowerLaw(4096, 12, 0.5, seed+uint64(rep)); err != nil {
			return err
		}
		gens = append(gens, time.Since(t0).Seconds()*1e3)
	}
	m["graphwl.gen_ms"] = median(gens)
	return nil
}

// probeMissing measures, where the workload's own cells did not, the
// per-cell expt metrics and the serve layer, each on one cell built
// from the workload's first cell, so that every per-layer metric is
// measured on every workload.
func probeMissing(rc *runCtx, first expt.CellSpec) error {
	m := rc.metrics
	probe := func(key string, cs expt.CellSpec) (json.RawMessage, time.Duration, error) {
		if _, ok := m[key]; ok {
			return nil, 0, nil
		}
		suite := expt.NewSuite(expt.Options{Scale: benchScale, Seed: rc.seed})
		t0 := time.Now()
		r, err := suite.RunServedRaw(cs)
		d := time.Since(t0)
		if err != nil {
			return nil, 0, fmt.Errorf("probing %+v: %w", cs, err)
		}
		m[key] = d.Seconds() * 1e3
		return r.Result, d, nil
	}
	raw, d, err := probe("expt.matrix_cell_ms", expt.CellSpec{Kind: expt.KindMatrix, Design: first.Design, Workload: first.Workload, Load: 0.5})
	if err != nil {
		return err
	}
	if raw != nil {
		m["expt.sim_minst_per_s"] = retired(raw) / 1e6 / d.Seconds()
	}
	if _, _, err := probe("expt.tail_cell_ms", expt.CellSpec{Kind: expt.KindTail, Design: core.DesignBaseline.String(), Workload: first.Workload, Load: 0.5}); err != nil {
		return err
	}
	if _, _, err := probe("expt.slowdown_cell_ms", expt.CellSpec{Kind: expt.KindSlowdown, Design: first.Design, Workload: first.Workload}); err != nil {
		return err
	}
	if _, ok := m["serve.overhead_us"]; !ok {
		return serveProbe(rc, first.Workload)
	}
	return nil
}

// serveProbe drives an in-process serve.Server: nproc concurrent
// identical requests for a fresh baseline tail cell, which coalesce
// onto one computation, then nproc cache hits. It fills the serve.*
// metrics from the server's own traces.
func serveProbe(rc *runCtx, workload string) error {
	dir := filepath.Join(rc.work, "serve-probe")
	defer os.RemoveAll(dir)
	suite := expt.NewSuite(expt.Options{Scale: benchScale, Seed: rc.seed, CacheDir: dir})
	srv, err := serve.New(serve.Config{Suite: suite, Workers: rc.callers})
	if err != nil {
		return err
	}
	h := srv.Handler()
	body, err := json.Marshal(serve.CellRequest{CellSpec: expt.CellSpec{Kind: expt.KindTail,
		Design: core.DesignBaseline.String(), Workload: workload, Load: 0.5}})
	if err != nil {
		return err
	}
	start := time.Now()
	var ss []sample
	var mu sync.Mutex
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for c := 0; c < rc.callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := sample{req: fmt.Sprintf("probe-%d-%d", round, c), due: time.Since(start)}
				s.sent = s.due
				req := httptest.NewRequest(http.MethodPost, "/v1/cells", bytes.NewReader(body))
				req.Header.Set(telemetry.HeaderTraceID, s.req)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				s.done, s.status, s.body = time.Since(start), rec.Code, rec.Body.Bytes()
				mu.Lock()
				ss = append(ss, s)
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tracez", nil))
	var tz serve.Tracez
	if err := json.Unmarshal(rec.Body.Bytes(), &tz); err != nil {
		return fmt.Errorf("serve probe tracez: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return err
	}
	for _, s := range ss {
		if !s.ok() {
			return fmt.Errorf("serve probe: status %d: %s", s.status, s.body)
		}
	}
	serveTraceMetrics(rc.metrics, ss, start, tz.Traces)
	return nil
}

// mcyclesPerS steps a component probeCycles times and returns simulated
// megacycles per host second.
func mcyclesPerS(step func(now uint64)) float64 {
	t0 := time.Now()
	for now := uint64(0); now < probeCycles; now++ {
		step(now)
	}
	return probeCycles / 1e6 / time.Since(t0).Seconds()
}

// nsPerInst draws probeOps instructions from a stream.
func nsPerInst(s isa.Stream) float64 {
	t0 := time.Now()
	for i := 0; i < probeOps; i++ {
		s.Next(uint64(i))
	}
	return float64(time.Since(t0).Nanoseconds()) / probeOps
}

// fillerSet builds the 32 BSP filler threads a cell runs: PageRank and
// SSSP over a 4096-vertex power-law graph.
func fillerSet(seed uint64) ([]isa.Stream, error) {
	g, err := graphwl.GenPowerLaw(4096, 12, 0.5, seed)
	if err != nil {
		return nil, err
	}
	streams, _, _, err := graphwl.NewFillerSet(g, 32, seed+1)
	return streams, err
}

// openDyad builds a dyad the way a matrix cell does: an open-loop
// request stream at load on the master, the filler set on the lender.
func openDyad(seed uint64, d core.Design, spec *workload.Spec, load float64) (*core.Dyad, error) {
	master, err := spec.NewMaster(load, d.FreqGHz(), seed+uint64(d)*7+uint64(load*100))
	if err != nil {
		return nil, err
	}
	batch, err := fillerSet(seed + 31*uint64(d))
	if err != nil {
		return nil, err
	}
	return core.NewDyad(core.Config{Design: d, MasterStream: master, BatchStreams: batch})
}

// closedDyad builds a dyad the way a slowdown cell does: a saturated
// closed-loop master next to the filler set.
func closedDyad(seed uint64, d core.Design, spec *workload.Spec) (*core.Dyad, error) {
	batch, err := fillerSet(seed + 97*uint64(d))
	if err != nil {
		return nil, err
	}
	return core.NewDyad(core.Config{Design: d, MasterStream: workload.NewClosedStream(spec.NewGen(seed + 1013)), BatchStreams: batch})
}
