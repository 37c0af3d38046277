package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"duplexity/internal/campaign"
	"duplexity/internal/expt"
	"duplexity/internal/serve"
	"duplexity/internal/telemetry"
)

// serve-mixed drives the duplexityd binary over loopback: set-up starts
// it on a fresh cache and warms a set of tail cells, then an open-loop
// generator sends a seeded Poisson schedule of POST /v1/cells. Most
// requests hit the warm set; a minority ask for new tail cells at new
// arrival rates, each sent as a burst of duplicates so that the serve
// layer coalesces them. Every request, hits included, queues for the
// daemon's worker pool behind compute work.
const (
	// serveRate is the fixed offered rate, requests per second.
	serveRate = 100.0
	// freshProb is the chance that an arrival starts a fresh cell, and
	// freshDeadTime the least time between two fresh cells: twice the
	// computation of one, so that their blocking never stacks and p99
	// reads the wait behind one computation.
	freshProb     = 0.01
	freshDeadTime = 250 * time.Millisecond
	// requestTimeout bounds one request; a timeout is a failure.
	requestTimeout = 10 * time.Second
	// sloMs is the p99 latency limit of serve.max_rps_at_slo. A fresh
	// tail cell computes in about 120 ms on a 2-CPU host (400,000
	// queueing requests at ~300 ns); the limit allows a request to wait
	// behind about three of them.
	sloMs = 500.0
	// A ladder step lasts for ladderRequests requests, enough for ten
	// samples beyond p99, and at least ladderMinStep, long enough for
	// a backlog to grow.
	ladderRequests = 1000
	ladderMinStep  = 2 * time.Second
)

// rateLadder is the fixed ladder of offered rates for
// serve.max_rps_at_slo, lowest first.
var rateLadder = []float64{100, 150, 225, 340, 500, 750, 1100, 1700, 2500, 3800, 5600}

// The warm set: every (design, workload) pair below at the three
// default loads. Fresh cells reuse the pairs, so their micro-sims are
// warm and a fresh cell costs one queueing simulation.
var (
	warmWorkloads = []string{"RSC", "McRouter"}
	warmDesigns   = []string{"Baseline", "SMT", "Duplexity"}
)

type pair struct{ design, workload string }

func warmSet() ([]pair, []expt.CellSpec) {
	var pairs []pair
	var cells []expt.CellSpec
	for _, w := range warmWorkloads {
		for _, d := range warmDesigns {
			pairs = append(pairs, pair{d, w})
			for _, l := range expt.Loads {
				cells = append(cells, expt.CellSpec{Kind: expt.KindTail, Design: d, Workload: w, Load: l})
			}
		}
	}
	return pairs, cells
}

// daemon is one running duplexityd.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	client *http.Client
	logMu  sync.Mutex
	log    bytes.Buffer
	logEnd chan struct{}
}

func startDaemon(rc *runCtx, dir string, tracing bool) (*daemon, error) {
	if rc.daemon == "" {
		return nil, fmt.Errorf("serve-mixed needs -daemon")
	}
	d := &daemon{logEnd: make(chan struct{})}
	d.cmd = exec.Command(rc.daemon, "serve", "-addr", "127.0.0.1:0",
		"-scale", strconv.FormatFloat(benchScale, 'g', -1, 64), "-seed", strconv.FormatUint(rc.seed, 10),
		"-workers", strconv.Itoa(rc.callers), "-cachedir", dir,
		"-tracing="+strconv.FormatBool(tracing), "-trace-depth", "8192")
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.logEnd)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			d.log.WriteString(line + "\n")
			d.logMu.Unlock()
			if i := strings.Index(line, "serving on "); i >= 0 {
				if f := strings.Fields(line[i+len("serving on "):]); len(f) > 0 {
					select {
					case addrc <- f[0]:
					default:
					}
				}
			}
		}
	}()
	select {
	case d.addr = <-addrc:
	case <-d.logEnd:
		d.stop()
		return nil, fmt.Errorf("duplexityd exited before serving:\n%s", d.logText())
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("duplexityd did not announce its address:\n%s", d.logText())
	}
	d.client = &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     rc.callers,
			MaxIdleConnsPerHost: rc.callers,
			DisableCompression:  true,
		},
	}
	return d, nil
}

func (d *daemon) logText() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain takes longer than a minute.
func (d *daemon) stop() error {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-d.logEnd
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("duplexityd did not drain within a minute")
	}
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get("http://" + d.addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// sample is one request of an open-loop step.
type sample struct {
	cell            expt.CellSpec
	req             string
	due, sent, done time.Duration
	status          int
	err             error
	body            []byte
}

func (s sample) ok() bool { return s.err == nil && s.status/100 == 2 }

// latMs is the request's latency from its due time, in ms. A failed
// request misses any limit, so it reads as the request timeout.
func (s sample) latMs() float64 {
	if !s.ok() {
		return requestTimeout.Seconds() * 1e3
	}
	return (s.done - s.due).Seconds() * 1e3
}

// post sends one cell request; traceID, when set, names the daemon's
// trace of it.
func (d *daemon) post(cell expt.CellSpec, traceID string) (int, []byte, error) {
	body, err := json.Marshal(serve.CellRequest{CellSpec: cell})
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+d.addr+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(telemetry.HeaderTraceID, traceID)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// openLoop sends cells[i] at due[i] from nproc sender goroutines that
// take requests in schedule order; a sender that is still waiting on a
// reply sends its next request late, and the lateness counts in the
// latency.
func (d *daemon) openLoop(rc *runCtx, tag string, cells []expt.CellSpec, due []time.Duration, traced bool) ([]sample, time.Time, time.Duration) {
	out := make([]sample, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < rc.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cells) {
					return
				}
				sleepUntil(start.Add(due[i]))
				s := sample{cell: cells[i], due: due[i], sent: time.Since(start)}
				if traced {
					s.req = fmt.Sprintf("%s-%d", tag, i)
				}
				s.status, s.body, s.err = d.post(cells[i], s.req)
				s.done = time.Since(start)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	var wall time.Duration
	for _, s := range out {
		wall = max(wall, s.done)
	}
	return out, start, wall
}

// sleepUntil blocks until t. time.Sleep wakes up to a millisecond late
// when the process is idle, because the runtime's poller waits in whole
// milliseconds; that lateness would count in every request's latency.
// nanosleep(2) wakes within microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// stepCells expands a schedule into its requests.
func stepCells(pairs []pair, warm []expt.CellSpec, arr []arrival, fresh []freshCell) ([]expt.CellSpec, []time.Duration) {
	cells := make([]expt.CellSpec, len(arr))
	due := make([]time.Duration, len(arr))
	for i, a := range arr {
		due[i] = a.Due
		if a.Warm >= 0 {
			cells[i] = warm[a.Warm]
			continue
		}
		f := fresh[a.Fresh]
		p := pairs[f.Pair]
		cells[i] = expt.CellSpec{Kind: expt.KindTail, Design: p.design, Workload: p.workload,
			Load: f.Load, Lambda: specByName(p.workload).QPSAtLoad(f.Load)}
	}
	return cells, due
}

// servePass is one daemon lifetime: set-up, the fixed-rate step and,
// for the untraced pass of a traced run, the rate ladder.
type servePass struct {
	setup   time.Duration
	samples []sample
	start   time.Time
	wall    time.Duration
	digest  string
	rssMB   float64
	maxRPS  float64
	statz   serve.Statz
	tracez  serve.Tracez
	journal []campaign.JournalEntry
	slow    map[string]float64
}

func runServe(rc *runCtx) error {
	pairs, warm := warmSet()
	local := expt.NewSuite(expt.Options{Scale: benchScale, Seed: rc.seed})
	arr, fresh := schedule(rc.seed, serveRate, time.Duration(rc.seconds)*time.Second, len(warm), len(pairs), freshProb, freshDeadTime, rc.callers)
	cells, due := stepCells(pairs, warm, arr, fresh)
	note("serve-mixed: %d requests at %g req/s over %d s, %d fresh cells in bursts of %d", len(cells), serveRate, rc.seconds, len(fresh), rc.callers)

	u, err := serveRun(rc, local, pairs, warm, cells, due, false, rc.traced)
	if err != nil {
		return err
	}
	checkGolden(rc, fmt.Sprintf("%s/%d", rc.workload, rc.seconds), u.digest)
	lat, lag := latencies(u.samples)
	if !rc.traced {
		pct := tailPercentile(len(lat), 99)
		rc.metrics["cells_per_s"] = float64(okCount(u.samples)) / u.wall.Seconds()
		rc.metrics["req_p50_ms"] = percentile(lat, 50)
		rc.metrics["req_p99_ms"] = percentile(lat, pct)
		rc.metrics["setup_s"] = u.setup.Seconds()
		rc.metrics["peak_rss_mb"] = u.rssMB
		note("req_p99_ms reports p%g of %d requests; loadgen lag p50 %.3f ms, p%g %.3f ms", pct, len(lat), percentile(lag, 50), pct, percentile(lag, pct))
		return nil
	}

	t, err := serveRun(rc, local, pairs, warm, cells, due, true, false)
	if err != nil {
		return err
	}
	if t.digest != u.digest {
		rc.fail("traced payload digest %s differs from untraced %s", t.digest, u.digest)
	}
	m := rc.metrics
	tlat, _ := latencies(t.samples)
	m["trace.overhead_pct"] = (percentile(tlat, 50)/percentile(lat, 50) - 1) * 100
	m["loadgen.lag_ms"] = percentile(lag, tailPercentile(len(lag), 99))
	m["serve.max_rps_at_slo"] = u.maxRPS
	setSummary(m, t.statz.Campaign)
	setSlowdownComputes(m, t.journal)

	spans, traced := serveTraceMetrics(m, t.samples, t.start, t.tracez.Traces)
	if traced != len(t.samples) {
		rc.fail("tracez holds %d of %d request traces", traced, len(t.samples))
	}
	var busy time.Duration
	for _, s := range t.samples {
		busy += s.done - s.sent
	}
	m["campaign.cache_get_us"] = meanUs(byName(spans, "campaign.cache"))
	m["campaign.cache_put_us"] = meanUs(byName(spans, "campaign.serialize"))
	m["expt.tail_cell_ms"] = meanMs(byName(spans, "campaign.compute"))
	var gap time.Duration
	for _, s := range byName(spans, "campaign.micro") {
		gap += s.dur()
	}
	m["campaign.micro_wait_ms"] = gap.Seconds() * 1e3
	m["campaign.busy_frac"] = busyFrac(busy, t.wall, rc.callers)
	if err := probeMissing(rc, warm[0]); err != nil {
		return err
	}
	if err := runProbes(rc, probeInputs(warm, t.slow)); err != nil {
		return err
	}
	return writeSpans(filepath.Join(rc.root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", rc.workload, rc.seed)), spans)
}

// serveTraceMetrics records the spans of a step's requests, adopting
// the serve layer's stage spans from traces, and fills the serve.*
// metrics. It returns the spans and how many requests had a trace.
func serveTraceMetrics(m map[string]float64, ss []sample, start time.Time, traces []telemetry.CellTraceSnapshot) ([]span, int) {
	tr := &tracer{}
	byReq := make(map[string]telemetry.CellTraceSnapshot)
	for _, s := range traces {
		byReq[s.TraceID] = s
	}
	var leaders, followers int
	var overheads []float64
	at := func(d time.Duration) time.Time { return start.Add(d) }
	for _, s := range ss {
		root := tr.add(0, s.req, "bench.request", at(s.due), at(s.done), s.cell.Kind)
		tr.add(root, s.req, "loadgen.lag", at(s.due), at(s.sent), "")
		id := tr.add(root, s.req, "serve.http", at(s.sent), at(s.done), "")
		snap, ok := byReq[s.req]
		if !ok {
			continue
		}
		tr.adopt(id, s.req, snap.Spans)
		if snap.Joined != "" {
			followers++
		} else {
			leaders++
		}
		work := time.Duration(0)
		for _, sp := range snap.Spans {
			if !sp.Child && (sp.Stage == telemetry.StageCache || sp.Stage == telemetry.StageCompute || sp.Stage == telemetry.StageSerialize) {
				work += time.Duration(sp.DurNs)
			}
		}
		overheads = append(overheads, (s.done-s.sent-work).Seconds()*1e6)
	}
	spans := tr.snapshot()
	m["serve.admission_wait_ms"] = meanMs(byName(spans, "serve.admission"))
	m["serve.coalesce_wait_ms"] = meanMs(byName(spans, "serve.coalesce"))
	m["serve.coalesced_ratio"] = float64(followers) / float64(max(1, leaders+followers))
	m["serve.overhead_us"] = mean(overheads)
	m["serve.shed"] = float64(countStatus(ss, http.StatusTooManyRequests))
	return spans, leaders + followers
}

// serveRun is one daemon lifetime on a fresh cache.
func serveRun(rc *runCtx, local *expt.Suite, pairs []pair, warm, cells []expt.CellSpec, due []time.Duration, traced, ladder bool) (*servePass, error) {
	dir := filepath.Join(rc.work, "daemon-"+strconv.FormatBool(traced))
	defer os.RemoveAll(dir)
	p := &servePass{}
	t0 := time.Now()
	d, err := startDaemon(rc, dir, traced)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop()
		}
	}()
	wdue := make([]time.Duration, len(warm))
	ws, _, _ := d.openLoop(rc, "warm", warm, wdue, false)
	checkSamples(rc, local, ws)
	p.setup = time.Since(t0)

	p.samples, p.start, p.wall = d.openLoop(rc, "step", cells, due, traced)
	checkSamples(rc, local, p.samples)
	if ladder {
		p.maxRPS = climbLadder(rc, d, local, pairs, warm)
	}
	if traced {
		if err := d.getJSON("/v1/tracez", &p.tracez); err != nil {
			return nil, err
		}
	}
	if err := d.getJSON("/v1/statz", &p.statz); err != nil {
		return nil, err
	}
	if p.rssMB, err = peakRSSMB(strconv.Itoa(d.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping duplexityd: %w\n%s", err, d.logText())
	}
	if p.digest, err = checkAgainstCache(rc, dir, append(ws, p.samples...)); err != nil {
		return nil, err
	}
	if p.journal, err = campaign.ReadJournal(filepath.Join(dir, "journal.jsonl")); err != nil {
		return nil, err
	}
	if traced {
		suite := expt.NewSuite(expt.Options{Scale: benchScale, Seed: rc.seed, CacheDir: dir})
		if err := suite.Err(); err != nil {
			return nil, err
		}
		p.slow = slowdowns(suite, warm)
	}
	return p, nil
}

// climbLadder runs the rate ladder, lowest rate first, and returns the
// achieved rate of the highest step whose p99 meets sloMs with no
// failure and no growing backlog (the last request was sent within
// sloMs of its due time). It stops at the first step that misses.
func climbLadder(rc *runCtx, d *daemon, local *expt.Suite, pairs []pair, warm []expt.CellSpec) float64 {
	best := 0.0
	for k, rate := range rateLadder {
		dur := max(time.Duration(float64(ladderRequests)/rate*float64(time.Second)), ladderMinStep)
		arr, fresh := schedule(rc.seed*7919+uint64(k+1), rate, dur, len(warm), len(pairs), freshProb, freshDeadTime, rc.callers)
		cells, due := stepCells(pairs, warm, arr, fresh)
		ss, _, wall := d.openLoop(rc, "ladder", cells, due, false)
		checkSamples(rc, local, ss)
		lat, lag := latencies(ss)
		p99 := percentile(lat, tailPercentile(len(lat), 99))
		backlog := len(lag) > 0 && lag[len(lag)-1] > sloMs
		pass := p99 <= sloMs && !backlog && okCount(ss) == len(ss)
		note("ladder %g req/s: %d requests, p99 %.1f ms, last lag %.1f ms, pass %v", rate, len(ss), p99, lag[len(lag)-1], pass)
		if !pass {
			break
		}
		best = float64(okCount(ss)) / wall.Seconds()
	}
	return best
}

// checkSamples counts a step's requests and checks every 2xx body: the
// digest is the one the cell's key gives, and a tail cell's p99 is
// finite and positive.
func checkSamples(rc *runCtx, local *expt.Suite, ss []sample) {
	rc.attempted += len(ss)
	for _, s := range ss {
		if !s.ok() {
			rc.failed++
			continue
		}
		var res struct {
			Digest string               `json:"digest"`
			Tail   *expt.TailCellReport `json:"tail"`
		}
		if err := json.Unmarshal(s.body, &res); err != nil {
			rc.fail("undecodable response %q: %v", s.body, err)
			continue
		}
		key, err := local.ServedKey(s.cell)
		if err != nil || key.Digest() != res.Digest {
			rc.fail("response digest %s, want that of %+v", res.Digest, s.cell)
		}
		if res.Tail == nil || !(res.Tail.P99Us > 0) || math.IsInf(res.Tail.P99Us, 0) {
			rc.fail("response for %+v has no finite positive p99", s.cell)
		}
	}
}

// checkAgainstCache checks that every 2xx body carries exactly the
// payload the daemon cached under its digest, and returns a digest over
// the distinct payloads.
func checkAgainstCache(rc *runCtx, dir string, ss []sample) (string, error) {
	c, err := campaign.OpenCache(dir)
	if err != nil {
		return "", err
	}
	payload := make(map[string][]byte)
	for _, s := range ss {
		if !s.ok() {
			continue
		}
		var res struct {
			Digest string               `json:"digest"`
			Tail   *expt.TailCellReport `json:"tail"`
		}
		if json.Unmarshal(s.body, &res) != nil || res.Tail == nil {
			continue
		}
		e, ok := c.GetEntry(res.Digest)
		if !ok {
			rc.fail("no cache entry for response digest %s", res.Digest)
			continue
		}
		var cached struct {
			Load      float64 `json:"load"`
			LambdaQPS float64 `json:"lambda_qps"`
			P99Us     float64 `json:"p99_us"`
		}
		if err := json.Unmarshal(e.Result, &cached); err != nil || cached.P99Us != res.Tail.P99Us ||
			cached.LambdaQPS != res.Tail.LambdaQPS || cached.Load != res.Tail.Load {
			rc.fail("response for %s differs from its cache entry %s", res.Digest, e.Result)
		}
		payload[res.Digest] = e.Result
	}
	return payloadDigest(payload), nil
}

// latencies returns each request's latency from its due time and its
// send lateness, in ms, in schedule order.
func latencies(ss []sample) (lat, lag []float64) {
	for _, s := range ss {
		lat = append(lat, s.latMs())
		lag = append(lag, (s.sent-s.due).Seconds()*1e3)
	}
	return lat, lag
}

func okCount(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.ok() {
			n++
		}
	}
	return n
}

func countStatus(ss []sample, code int) int {
	n := 0
	for _, s := range ss {
		if s.status == code {
			n++
		}
	}
	return n
}
