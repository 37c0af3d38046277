// Command simbench measures the cycle-level simulator's own speed: for
// each requested design it builds the same dyad twice — stepped cycle
// by cycle and on the discrete-event engine — runs both for the same
// simulated-cycle budget, and prints a JSON report with simulated
// cycles per wall second, the event engine's speedup over stepping, and
// its skip ratio (fraction of simulated cycles advanced by jumps rather
// than steps).
//
// Usage:
//
//	simbench [-cycles n] [-seed n] [-load f] [-workload name]
//	         [-designs a,b] [-batch n] [-floor x]
//
// -batch sets the dyad's batch-thread population; -batch 0 empties the
// lender side so the dyad idles between requests and stalls — the
// stall-heavy configuration where the event engine must shine.
//
// The runs double as a live equivalence check: simbench exits non-zero
// if the event engine disagrees with stepping on retired instructions,
// completed requests, master-core stats, or elapsed cycles. -floor makes the
// measurement itself a gate: if the event engine's speedup over stepping
// falls below the floor on any design, simbench exits non-zero, so CI
// can pin the discrete-event win and fail when it rots.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"duplexity"
)

type row struct {
	design            duplexity.Design
	cycles            uint64
	stepSec, evSec    float64
	evSkipped         uint64
	retired, requests uint64
}

func main() {
	cycles := flag.Uint64("cycles", 3_000_000, "simulated cycles per run")
	seed := flag.Uint64("seed", 1, "simulation seed")
	load := flag.Float64("load", 0.5, "offered load in (0,1)")
	wlName := flag.String("workload", "mcrouter", "flann-ha|flann-ll|rsc|mcrouter|wordstem")
	designs := flag.String("designs", "baseline,duplexity", "comma-separated design list")
	batch := flag.Int("batch", 32, "batch threads per dyad (0 = stall-heavy: no lender work)")
	floor := flag.Float64("floor", 0, "exit non-zero if event speedup over stepping falls below this (0 = off)")
	flag.Parse()

	spec, err := findWorkload(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}

	var rows []row
	for _, name := range strings.Split(*designs, ",") {
		design, err := findDesign(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(2)
		}
		r, err := measure(design, spec, *load, *seed, *cycles, *batch)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
		rows = append(rows, r)
	}

	fmt.Println("{")
	fmt.Printf("  %q: %q,\n", "bench", "simcore")
	fmt.Printf("  %q: %q,\n", "workload", spec.Name)
	fmt.Printf("  %q: %g,\n", "load", *load)
	fmt.Printf("  %q: %d,\n", "batch", *batch)
	fmt.Printf("  %q: %d,\n", "cycles", *cycles)
	fmt.Printf("  %q: [\n", "designs")
	for i, r := range rows {
		comma := ","
		if i == len(rows)-1 {
			comma = ""
		}
		fmt.Printf("    {\"design\": %q, \"step_cycles_per_sec\": %.0f, "+
			"\"event_cycles_per_sec\": %.0f, \"event_speedup\": %.2f, "+
			"\"event_skip_ratio\": %.4f, \"retired\": %d, \"requests\": %d}%s\n",
			r.design.String(), float64(r.cycles)/r.stepSec,
			float64(r.cycles)/r.evSec, r.stepSec/r.evSec,
			float64(r.evSkipped)/float64(r.cycles),
			r.retired, r.requests, comma)
	}
	fmt.Println("  ]")
	fmt.Println("}")

	if *floor > 0 {
		ok := true
		for _, r := range rows {
			if sp := r.stepSec / r.evSec; sp < *floor {
				fmt.Fprintf(os.Stderr, "simbench: %v event speedup %.2fx below floor %.2fx\n",
					r.design, sp, *floor)
				ok = false
			}
		}
		if !ok {
			os.Exit(1)
		}
	}
}

// build constructs one dyad for the measurement; all runs of a design
// call it with identical arguments so their streams are identical.
func build(design duplexity.Design, spec *duplexity.Workload, load float64, seed uint64, batch int, mode duplexity.ExecMode) (*duplexity.Dyad, error) {
	master, err := spec.NewMaster(load, design.FreqGHz(), seed)
	if err != nil {
		return nil, err
	}
	g, err := duplexity.NewGraph(4096, 12, 0.5, seed+3)
	if err != nil {
		return nil, err
	}
	fillers, _, _, err := duplexity.FillerSet(g, 32, seed+4)
	if err != nil {
		return nil, err
	}
	if batch < len(fillers) {
		fillers = fillers[:batch]
	}
	d, err := duplexity.NewDyad(duplexity.DyadConfig{
		Design:       design,
		MasterStream: master,
		BatchStreams: fillers,
	})
	if err != nil {
		return nil, err
	}
	d.Exec = mode
	return d, nil
}

func measure(design duplexity.Design, spec *duplexity.Workload, load float64, seed, cycles uint64, batch int) (row, error) {
	r := row{design: design, cycles: cycles}

	run := func(mode duplexity.ExecMode) (*duplexity.Dyad, float64, error) {
		d, err := build(design, spec, load, seed, batch, mode)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		d.Run(cycles)
		return d, time.Since(t0).Seconds(), nil
	}

	slow, stepSec, err := run(duplexity.ExecStepped)
	if err != nil {
		return r, err
	}
	r.stepSec = stepSec
	ev, evSec, err := run(duplexity.ExecEvent)
	if err != nil {
		return r, err
	}
	r.evSec, r.evSkipped = evSec, ev.SkippedCycles
	r.retired = ev.MasterOoO.Stats.TotalRetired
	r.requests = ev.MasterOoO.ThreadStats(0).RequestsCompleted

	// Live equivalence check: the event engine must agree with stepping
	// on the externally visible outcome.
	if ev.Now() != slow.Now() {
		return r, fmt.Errorf("%v: event clock diverged from stepping: %d vs %d",
			design, ev.Now(), slow.Now())
	}
	if ev.MasterOoO.Stats != slow.MasterOoO.Stats {
		return r, fmt.Errorf("%v: event master core stats diverged from stepping:\n%+v\nvs\n%+v",
			design, ev.MasterOoO.Stats, slow.MasterOoO.Stats)
	}
	if a, b := ev.MasterOoO.ThreadStats(0).RequestsCompleted,
		slow.MasterOoO.ThreadStats(0).RequestsCompleted; a != b {
		return r, fmt.Errorf("%v: event completed requests diverged from stepping: %d vs %d",
			design, a, b)
	}
	return r, nil
}

func findDesign(s string) (duplexity.Design, error) {
	for _, d := range duplexity.AllDesigns {
		if strings.EqualFold(strings.ReplaceAll(d.String(), "+repl", "-repl"), s) ||
			strings.EqualFold(d.String(), s) {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown design %q", s)
}

func findWorkload(s string) (*duplexity.Workload, error) {
	for _, w := range duplexity.Microservices() {
		if strings.EqualFold(w.Name, s) {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", s)
}
