package campaign

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// microKey is a phase-1 key: the micro-sim family shared by every load
// fanned out in these tests (no Load, like a real slowdown cell).
func microKey(i int) Key {
	return Key{
		Kind: "micro", Model: "m1", Design: "Duplexity",
		Workload: fmt.Sprintf("wl%d", i), Spec: "abcd", Scale: 1.0, Seed: 1,
	}
}

// twoPhaseKey is a phase-2 key at one load.
func twoPhaseKey(i int, load float64) Key {
	k := microKey(i)
	k.Kind = "twophase"
	k.Load = load
	return k
}

// twoPhaseOf builds a queueing plan whose compute step combines one
// micro result with the load deterministically, counting executions of
// each stage.
func twoPhaseOf(i int, load float64, microRuns, queueRuns *atomic.Int64) *Plan {
	return &Plan{
		Queueing: true,
		Micro: []MicroTask{{
			Key: microKey(i),
			Run: func() (json.RawMessage, error) {
				if microRuns != nil {
					microRuns.Add(1)
				}
				return json.Marshal(float64(i) * 10)
			},
		}},
		Compute: func(micro []json.RawMessage) (json.RawMessage, error) {
			if queueRuns != nil {
				queueRuns.Add(1)
			}
			var v float64
			if err := json.Unmarshal(micro[0], &v); err != nil {
				return nil, err
			}
			return json.Marshal(v * load)
		},
	}
}

// A cold two-phase fan-out computes each micro-sim exactly once however
// many loads share it, and the per-layer counters account micros and
// queueing cells separately from the legacy whole-cell totals.
func TestTwoPhaseMicroComputedOnce(t *testing.T) {
	eng, err := New(Options{Workers: 4, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{0.3, 0.5, 0.7}
	var microRuns, queueRuns atomic.Int64
	var tasks []Task[float64]
	for i := 0; i < 2; i++ {
		for _, load := range loads {
			i, load := i, load
			tasks = append(tasks, Task[float64]{
				Key:  twoPhaseKey(i, load),
				Plan: twoPhaseOf(i, load, &microRuns, &queueRuns),
			})
		}
	}
	got, err := Run(eng, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for n, v := range got {
		i, load := n/len(loads), loads[n%len(loads)]
		if want := float64(i) * 10 * load; v != want {
			t.Fatalf("cell %d = %v, want %v", n, v, want)
		}
	}
	if microRuns.Load() != 2 {
		t.Fatalf("micro-sims simulated %d times, want 2 (one per family)", microRuns.Load())
	}
	if queueRuns.Load() != 6 {
		t.Fatalf("queue stages ran %d times, want 6", queueRuns.Load())
	}
	st := eng.Stats()
	if st.Cells != 6 || st.Hits != 0 || st.Misses != 6 {
		t.Fatalf("legacy totals = cells %d hits %d misses %d, want 6/0/6", st.Cells, st.Hits, st.Misses)
	}
	if st.QueueingMisses != 6 || st.QueueingHits != 0 {
		t.Fatalf("queueing layer = %d hits / %d misses, want 0/6", st.QueueingHits, st.QueueingMisses)
	}
	// 6 cells resolve 6 micro references; 2 simulate, 4 coalesce or memo.
	if st.MicrosimMisses != 2 {
		t.Fatalf("micro-sim layer misses = %d, want 2", st.MicrosimMisses)
	}
	if st.MicrosimHits != 4 {
		t.Fatalf("micro-sim layer hits = %d, want 4", st.MicrosimHits)
	}
}

// A warm rerun answers every cell from the phase-2 layer without
// touching phase 1 at all, and a load-grid change re-simulates zero
// micro-sims (they hit the disk cache).
func TestTwoPhaseWarmAndGridChange(t *testing.T) {
	dir := t.TempDir()
	run := func(loads []float64) (Summary, int64, error) {
		eng, err := New(Options{Workers: 2, CacheDir: dir})
		if err != nil {
			return Summary{}, 0, err
		}
		var microRuns atomic.Int64
		var tasks []Task[float64]
		for _, load := range loads {
			load := load
			tasks = append(tasks, Task[float64]{
				Key:  twoPhaseKey(0, load),
				Plan: twoPhaseOf(0, load, &microRuns, nil),
			})
		}
		if _, err := Run(eng, tasks); err != nil {
			return Summary{}, 0, err
		}
		return eng.Stats(), microRuns.Load(), nil
	}
	if _, _, err := run([]float64{0.3, 0.5}); err != nil {
		t.Fatal(err)
	}
	st, micros, err := run([]float64{0.3, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if st.QueueingHits != 2 || st.QueueingMisses != 0 {
		t.Fatalf("warm rerun: queueing layer %d/%d, want 2 hits", st.QueueingHits, st.QueueingMisses)
	}
	if st.MicrosimHits != 0 || st.MicrosimMisses != 0 || micros != 0 {
		t.Fatalf("warm rerun touched phase 1: %d/%d counters, %d simulations",
			st.MicrosimHits, st.MicrosimMisses, micros)
	}
	// New loads only: the overlapping cell hits, the fresh one resolves
	// its micro from disk — zero re-simulation.
	st, micros, err = run([]float64{0.5, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if micros != 0 {
		t.Fatalf("grid change re-simulated %d micro-sims, want 0", micros)
	}
	if st.QueueingHits != 1 || st.QueueingMisses != 1 {
		t.Fatalf("grid change: queueing layer %d/%d, want 1/1", st.QueueingHits, st.QueueingMisses)
	}
	if st.MicrosimHits != 1 {
		t.Fatalf("grid change: micro disk hits = %d, want 1", st.MicrosimHits)
	}
}

// The journal distinguishes the layers: micro resolutions append
// layer="microsim" entries, queueing cells layer="queueing" entries
// carrying their phase-1 digests. A queueing cell with no micros (a
// baseline tail cell) still counts in the queueing layer, never the
// micro-sim one, and a non-queueing plan journals no layer.
func TestTwoPhaseJournalLayers(t *testing.T) {
	dir := t.TempDir()
	eng, err := New(Options{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	bare := twoPhaseKey(1, 0.5)
	single := twoPhaseKey(2, 0.5)
	single.Kind = "single"
	tasks := []Task[float64]{
		{Key: twoPhaseKey(0, 0.5), Plan: twoPhaseOf(0, 0.5, nil, nil)},
		{Key: bare, Plan: &Plan{
			Queueing: true,
			Compute:  func([]json.RawMessage) (json.RawMessage, error) { return json.Marshal(1.0) },
		}},
		{Key: single, Plan: PlanFunc(func() (float64, error) { return 2, nil })},
	}
	if _, err := Run(eng, tasks); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJournal(eng.cache.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	var micros, queueing int
	for _, e := range entries {
		switch e.Layer {
		case LayerMicrosim:
			micros++
			if e.Digest != microKey(0).Digest() {
				t.Fatalf("micro journal digest %s, want %s", e.Digest, microKey(0).Digest())
			}
		case LayerQueueing:
			queueing++
			switch e.Digest {
			case bare.Digest():
				if len(e.MicroDigests) != 0 {
					t.Fatalf("zero-micro queueing entry micro_digests = %v", e.MicroDigests)
				}
			default:
				if len(e.MicroDigests) != 1 || e.MicroDigests[0] != microKey(0).Digest() {
					t.Fatalf("queueing entry micro_digests = %v", e.MicroDigests)
				}
			}
		case "":
			if e.Digest != single.Digest() {
				t.Fatalf("layerless journal entry for %s, want only the non-queueing cell", e.Digest)
			}
		}
	}
	if micros != 1 || queueing != 2 {
		t.Fatalf("journal layers: %d microsim + %d queueing, want 1+2", micros, queueing)
	}
	st := eng.Stats()
	if st.QueueingMisses != 2 || st.MicrosimMisses != 1 || st.MicrosimHits != 0 {
		t.Fatalf("per-layer counters: queueing %d misses, micro-sim %d hits/%d misses, want 2 and 0/1",
			st.QueueingMisses, st.MicrosimHits, st.MicrosimMisses)
	}
	if st.Cells != 3 || st.Misses != 3 {
		t.Fatalf("legacy totals cells=%d misses=%d, want 3/3", st.Cells, st.Misses)
	}
}

// Concurrent cells sharing one micro-sim coalesce onto a single
// simulation even when they arrive simultaneously on many workers.
func TestTwoPhaseSingleflight(t *testing.T) {
	eng, err := New(Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	var microRuns atomic.Int64
	slowMicro := func() (json.RawMessage, error) {
		microRuns.Add(1)
		time.Sleep(20 * time.Millisecond)
		return json.Marshal(7.0)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &Plan{
				Micro:    []MicroTask{{Key: microKey(0), Run: slowMicro}},
				Queueing: true,
				Compute: func(micro []json.RawMessage) (json.RawMessage, error) {
					return micro[0], nil
				},
			}
			_, _, errs[w] = eng.Resolve(twoPhaseKey(0, float64(w+1)/10), p, nil, time.Time{})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if microRuns.Load() != 1 {
		t.Fatalf("shared micro-sim ran %d times under contention, want 1", microRuns.Load())
	}
}

// A cell without a compute step is rejected rather than silently
// miscached, even when its micros could resolve.
func TestTwoPhaseRejectsNil(t *testing.T) {
	eng, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Resolve(twoPhaseKey(0, 0.5), nil, nil, time.Time{}); err == nil {
		t.Fatal("nil plan accepted")
	}
	noCompute := twoPhaseOf(0, 0.5, nil, nil)
	noCompute.Compute = nil
	if _, _, err := eng.Resolve(twoPhaseKey(0, 0.5), noCompute, nil, time.Time{}); err == nil {
		t.Fatal("plan without Compute accepted")
	}
	if st := eng.Stats(); st.Errors != 2 {
		t.Fatalf("errors = %d, want 2", st.Errors)
	}
}

// A whole-cell Resolve of a micro-sim's digest (a served slowdown cell)
// and a queueing cell built on that micro-sim share one flight,
// whichever arrives first: the digest is measured once, with or without
// a cache directory, and the follower counts as a hit in its layer.
func TestResolveCoalescesCellAndMicro(t *testing.T) {
	for _, cacheDir := range []bool{false, true} {
		for _, cellFirst := range []bool{true, false} {
			t.Run(fmt.Sprintf("cachedir=%v/cell_first=%v", cacheDir, cellFirst), func(t *testing.T) {
				dir := ""
				if cacheDir {
					dir = t.TempDir()
				}
				eng, err := New(Options{Workers: 2, CacheDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				x := microKey(0)
				var runs atomic.Int64
				started := make(chan struct{}, 2)
				release := make(chan struct{})
				measure := func() (json.RawMessage, error) {
					runs.Add(1)
					started <- struct{}{}
					<-release
					return json.Marshal(7.0)
				}
				cell := func() error {
					p := &Plan{Compute: func([]json.RawMessage) (json.RawMessage, error) { return measure() }}
					ent, _, err := eng.Resolve(x, p, nil, time.Time{})
					if err == nil && string(ent.Result) != "7" {
						err = fmt.Errorf("cell result %s, want 7", ent.Result)
					}
					return err
				}
				tail := func() error {
					p := &Plan{
						Queueing: true,
						Micro:    []MicroTask{{Key: x, Run: measure}},
						Compute:  func(m []json.RawMessage) (json.RawMessage, error) { return m[0], nil },
					}
					_, _, err := eng.Resolve(twoPhaseKey(0, 0.5), p, nil, time.Time{})
					return err
				}
				first, second := cell, tail
				if !cellFirst {
					first, second = tail, cell
				}
				errs := make(chan error, 2)
				go func() { errs <- first() }()
				<-started
				go func() { errs <- second() }()
				// Release the measurement once a micro-sim resolution has
				// joined X's flight (immediately when the micro-sim leads
				// it), or as soon as a second measurement starts.
				for !microJoined(eng, x.Digest()) && runs.Load() == 1 {
					time.Sleep(time.Millisecond)
				}
				close(release)
				for i := 0; i < 2; i++ {
					if err := <-errs; err != nil {
						t.Fatal(err)
					}
				}
				if n := runs.Load(); n != 1 {
					t.Fatalf("digest measured %d times, want 1", n)
				}
				st := eng.Stats()
				wantHits, wantMicroHits, wantMicroMisses := 0, 1, 0
				if !cellFirst {
					wantHits, wantMicroHits, wantMicroMisses = 1, 0, 1
				}
				if st.Hits != wantHits || st.Misses != 2-wantHits || st.MicrosimHits != wantMicroHits || st.MicrosimMisses != wantMicroMisses {
					t.Fatalf("stats hits/misses %d/%d, micro-sim %d/%d, want %d/%d and %d/%d",
						st.Hits, st.Misses, st.MicrosimHits, st.MicrosimMisses,
						wantHits, 2-wantHits, wantMicroHits, wantMicroMisses)
				}
			})
		}
	}
}

// microJoined reports whether a phase-1 resolution leads or has joined
// digest's flight.
func microJoined(e *Engine, digest string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	f := e.flights[digest]
	return f != nil && f.memo
}
