// Command perfbench is the repository's benchmark. It drives the
// duplexity packages from outside, unchanged, through four workloads
// over the paper's two-stage pipeline (cycle-level micro-simulation
// feeding a BigHouse-style queueing simulation), checks every output,
// and prints its metrics by name with their units. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run adds a traced pass and layer probes and reports the per-layer
// metrics. See README.md for the workloads and the metric map.
//
// Usage (from the repository root; run.sh builds and calls this):
//
//	bash perfbench/run.sh --workload tails-cold --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"duplexity/internal/core"
)

// benchScale is the simulation fidelity of every workload's world. At
// 0.05 a cold tails campaign spends comparable host time in its 35
// closed-loop micro-sims and in its 105 queueing simulations (whose
// 400,000-request floor ignores the scale), so both stages show.
const benchScale = 0.05

// goldenSeed is the seed whose payload digests are committed in
// golden.json.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// metricDef names one reported metric.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them with tracing off.
var endToEnd = []metricDef{
	{"cells_per_s", "cells/s"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. README.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"expt.slowdown_cell_ms", "ms"},
	{"expt.slowdown_cell_count", "count"},
	{"expt.tail_cell_ms", "ms"},
	{"expt.matrix_cell_ms", "ms"},
	{"expt.sim_minst_per_s", "Minst/s"},
	{"campaign.microsim_misses", "count"},
	{"campaign.microsim_hit_ratio", "ratio"},
	{"campaign.queueing_hits", "count"},
	{"campaign.queueing_misses", "count"},
	{"campaign.micro_wait_ms", "ms"},
	{"campaign.busy_frac", "ratio"},
	{"campaign.cache_get_us", "us"},
	{"campaign.cache_put_us", "us"},
	{"queueing.ns_per_request", "ns"},
	{"queueing.requests_per_cell", "count"},
	{"queueing.converged_frac", "ratio"},
	{"stats.quantile_ms", "ms"},
	{"stats.lognormal_ns_per_draw", "ns"},
	{"core.open_mcycles_per_s.baseline", "Mcycles/s"},
	{"core.open_mcycles_per_s.duplexity", "Mcycles/s"},
	{"core.skip_ratio.baseline", "ratio"},
	{"core.skip_ratio.duplexity", "ratio"},
	{"core.closed_mcycles_per_s.baseline", "Mcycles/s"},
	{"core.closed_mcycles_per_s.duplexity", "Mcycles/s"},
	{"cpu.ooo_mcycles_per_s", "Mcycles/s"},
	{"cpu.ino_mcycles_per_s", "Mcycles/s"},
	{"hsmt.sched_mcycles_per_s", "Mcycles/s"},
	{"memsys.ns_per_access", "ns"},
	{"workload.ns_per_inst", "ns"},
	{"graphwl.ns_per_inst", "ns"},
	{"graphwl.gen_ms", "ms"},
	{"serve.admission_wait_ms", "ms"},
	{"serve.coalesce_wait_ms", "ms"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.shed", "count"},
	{"serve.overhead_us", "us"},
	{"serve.max_rps_at_slo", "req/s"},
	{"loadgen.lag_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// runCtx is one benchmark run's configuration and accumulated outcome.
type runCtx struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	root     string
	daemon   string
	work     string
	callers  int

	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string
}

// fail records a failed output check; any failure fails the run.
func (rc *runCtx) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	rc.failures = append(rc.failures, msg)
	fmt.Printf("CHECK FAILED: %s\n", msg)
}

// note prints one human-readable line.
func note(format string, args ...any) { fmt.Printf(format+"\n", args...) }

var workloads = map[string]func(*runCtx) error{
	"tails-cold":   func(rc *runCtx) error { return runCampaign(rc, tailsCold) },
	"tails-regrid": func(rc *runCtx) error { return runCampaign(rc, tailsRegrid) },
	"matrix-cold":  func(rc *runCtx) error { return runCampaign(rc, matrixCold) },
	"serve-mixed":  runServe,
}

func main() {
	workload := flag.String("workload", "", "workload: tails-cold | tails-regrid | matrix-cold | serve-mixed")
	seed := flag.Uint64("seed", goldenSeed, "world seed; also draws the workload's generated inputs")
	seconds := flag.Int("seconds", 15, "measured time per run, in whole passes")
	trace := flag.Int("trace", 0, "1: add a traced pass and layer probes, report per-layer metrics")
	root := flag.String("root", ".", "repository checkout the program was built from")
	daemon := flag.String("daemon", "", "duplexityd binary (serve-mixed)")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (tails-cold|tails-regrid|matrix-cold|serve-mixed), --seed > 0, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	rc := &runCtx{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		root: *root, daemon: *daemon, callers: runtime.NumCPU(),
		metrics: make(map[string]float64),
	}
	rc.work = filepath.Join(*root, ".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(rc.work, 0o755); err != nil {
		fatal(err)
	}
	stamp(rc)
	err := run(rc)
	os.RemoveAll(rc.work)
	if err != nil {
		fatal(err)
	}
	os.Exit(report(rc))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// stamp prints what produced the numbers.
func stamp(rc *runCtx) {
	st := map[string]any{
		"workload":        rc.workload,
		"seed":            rc.seed,
		"scale":           benchScale,
		"seconds":         rc.seconds,
		"trace":           rc.traced,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"callers":         rc.callers,
		"go_version":      runtime.Version(),
		"git_commit":      gitCommit(),
		"model_version":   core.ModelVersion,
		"model_validated": false,
		"notes": []string{
			"the model is unvalidated against hardware, so no error figure is given (EXPERIMENTS.md compares only qualitatively)",
			"the modelled caches start empty in every cell",
		},
	}
	data, _ := json.Marshal(st)
	note("stamp: %s", data)
}

// gitCommit reads the commit the benchmark binary was built at from its
// build info ("unknown" outside a git checkout).
func gitCommit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// report prints every metric of the run's mode and the result line,
// and returns the exit code.
func report(rc *runCtx) int {
	defs := endToEnd
	if rc.traced {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]mv, len(defs))
	for _, d := range defs {
		v, ok := rc.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rc.fail("metric %s was not measured", d.Name)
			v = 0
		}
		out[d.Name] = mv{v, d.Unit}
	}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		note("metric %-36s %16s %s", n, strconv.FormatFloat(out[n].Value, 'g', -1, 64), out[n].Unit)
	}
	if rc.attempted > 0 {
		note("fail_ratio %g (%d failed of %d attempted)", float64(rc.failed)/float64(rc.attempted), rc.failed, rc.attempted)
	}
	if rc.attempted < 1 {
		rc.fail("nothing was attempted")
		rc.attempted = 1
	}
	res := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{len(rc.failures) == 0, rc.attempted, rc.failed, out}
	data, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
	if !res.Correct {
		return 1
	}
	return 0
}

// checkGolden compares a payload digest against the value committed
// for the default seed and this model version under key: the workload
// name, followed by "/<seconds>" where the run length changes the
// inputs.
func checkGolden(rc *runCtx, key, digest string) {
	note("payload_digest %s", digest)
	if rc.seed != goldenSeed {
		return
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		rc.fail("golden.json: %v", err)
		return
	}
	want, ok := golden[core.ModelVersion][key]
	if !ok {
		note("golden: no committed digest for model %s / %s; check skipped", core.ModelVersion, key)
		return
	}
	if digest != want {
		rc.fail("payload digest %s differs from the committed %s (model %s, seed %d)", digest, want, core.ModelVersion, rc.seed)
	}
}

// payloadDigest is a SHA-256 over cell payloads keyed by cell digest,
// taken in digest order so that it does not depend on the order in
// which cells were resolved.
func payloadDigest(payloads map[string][]byte) string {
	keys := make([]string, 0, len(payloads))
	for k := range payloads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %s\n", k, payloads[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB reads a process's VmHWM in MB from /proc.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
