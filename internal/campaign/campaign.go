// Package campaign is the experiment-campaign engine: a worker pool
// that fans embarrassingly-parallel simulation cells out across
// goroutines, backed by a content-addressed on-disk result cache and an
// append-only completion journal.
//
// The paper's evaluation (Figures 5a–f, Figure 6, the ablations) is a
// campaign of independent (design × workload × load × seed) cells.
// Each cell derives every random seed from its own Key, and each worker
// confines its Dyad (and all other simulator state) to a single
// goroutine, so campaign results are bit-identical to the sequential
// path at any worker count. Results are returned in submission order,
// never in completion order.
//
// Cells are keyed by a SHA-256 digest over the cell's full input
// (design, workload-spec fingerprint, load, scale, seed, and a
// model-version string). With a cache directory configured, each
// completed cell is journaled to disk as it finishes: repeated runs and
// overlapping figures skip simulation entirely, and a killed campaign
// resumes where it left off instead of starting over.
package campaign

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"duplexity/internal/telemetry"
)

// Options configures an Engine.
type Options struct {
	// Workers is the number of concurrent cells; <= 0 means one worker
	// per CPU (runtime.NumCPU()). Workers = 1 is the sequential path.
	Workers int
	// CacheDir enables the persistent content-addressed result cache
	// (and its completion journal) rooted at this directory. Empty means
	// no persistence: every cell simulates.
	CacheDir string
	// Remote, when non-nil, is consulted after the local cache and before
	// local computation: cells are dispatched to it (a fleet of worker
	// daemons, in practice) and its entries are written into the local
	// cache verbatim, so a remote-executed campaign leaves the same cache
	// bytes a local run would. A Remote error falls back to local
	// computation when the cell's plan can compute it.
	Remote Remote
}

// Remote executes a cell somewhere else and returns the same Entry a
// local computation would have cached: the full key, the producing
// worker's simulation wall time, and the raw result JSON. The bool
// reports whether the remote answered from its own cache.
// Implementations must be safe for concurrent use; internal/fleet
// provides the rendezvous-sharded, hedged implementation.
//
// shardDigest is the digest placement ranks on: a cell with phase-1
// micro-sims passes its first micro's digest, so every load fanned out
// from one micro-sim lands on the worker that already holds it; ""
// ranks on the cell's own digest. Identity and verification always use
// k. A non-zero deadline marks a deadline-lane cell, which the remote
// may place and hedge more aggressively as the deadline nears
// (Hurry-up-style scheduling); it never changes what is computed. tr,
// which may be nil (untraced), receives the dispatch's remote spans so
// the caller's end-to-end timeline covers the network hop
// (DESIGN.md §11).
type Remote interface {
	Exec(k Key, shardDigest string, tr *telemetry.CellTrace, deadline time.Time) (Entry, bool, error)
}

// Engine executes campaign cells on a bounded worker pool with optional
// result caching. An Engine is safe for use from multiple goroutines,
// though callers typically submit one batch at a time.
type Engine struct {
	workers int
	cache   *Cache
	journal *Journal
	remote  Remote
	stats   *Stats

	// mu guards flights, the engine's one coalescing layer: a flight per
	// digest being resolved, whole cells and phase-1 micro-sims alike, so
	// concurrent resolutions of one digest share one computation.
	mu      sync.Mutex
	flights map[string]*flight
}

// New builds an engine. With a CacheDir, the directory is created if
// needed and pre-existing entries are counted (reported as PriorCells in
// the stats summary, so a resumed run can say how much work it skipped).
func New(o Options) (*Engine, error) {
	w := o.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	e := &Engine{
		workers: w, remote: o.Remote, stats: newStats(),
		flights: make(map[string]*flight),
	}
	if o.CacheDir != "" {
		c, err := OpenCache(o.CacheDir)
		if err != nil {
			return nil, err
		}
		n, err := c.Len()
		if err != nil {
			return nil, err
		}
		e.cache = c
		e.journal = NewJournal(c.JournalPath())
		e.stats.setPrior(n)
	}
	return e, nil
}

// Workers returns the configured pool width.
func (e *Engine) Workers() int { return e.workers }

// CacheDir returns the cache root, or "" when the engine is ephemeral.
func (e *Engine) CacheDir() string {
	if e.cache == nil {
		return ""
	}
	return e.cache.Dir()
}

// Lookup probes the local cache for a completed cell without touching
// hit/miss accounting or the journal — the read-only probe the durable
// job store uses to rematerialize finished cells after a restart.
func (e *Engine) Lookup(k Key) (Entry, bool) {
	if e.cache == nil {
		return Entry{}, false
	}
	return e.cache.GetEntry(k.Digest())
}

// Stats snapshots the engine's cache and wall-time accounting.
func (e *Engine) Stats() Summary {
	s := e.stats.summary()
	s.Workers = e.workers
	return s
}

// Task is one campaign cell: a content-address for its full input and
// the plan that computes it. The result type R must round-trip through
// encoding/json unchanged for cache hits to be exact (exported fields,
// no maps with non-deterministic iteration feeding back into results).
type Task[R any] struct {
	Key  Key
	Plan *Plan
}

// Run executes tasks on the engine's worker pool and returns their
// results in submission order. Cells whose digest is already in the
// cache are decoded instead of simulated and counted as hits; computed
// cells are journaled to the cache as they finish, so an interrupted
// batch resumes from its completed cells. On failure Run returns the
// error of the lowest-index failing task (deterministic at any worker
// count); remaining queued cells are abandoned, but cells already
// finished are still in the cache.
func Run[R any](e *Engine, tasks []Task[R]) ([]R, error) {
	results := make([]R, len(tasks))
	errs := make([]error, len(tasks))
	// lowest is the lowest failing index so far. Cells past it are
	// abandoned; cells before it still run, so which error Run reports
	// does not depend on which worker reached its cell first.
	var mu sync.Mutex
	lowest := len(tasks)

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				mu.Lock()
				skip := i > lowest
				mu.Unlock()
				if skip {
					continue // drain the queue without starting cells past a failure
				}
				r, _, err := runOne(e, tasks[i])
				results[i], errs[i] = r, err
				if err != nil {
					mu.Lock()
					lowest = min(lowest, i)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			k := tasks[i].Key
			return nil, fmt.Errorf("campaign: cell %s %s/%s@%v: %w",
				k.Kind, k.Design, k.Workload, k.Load, err)
		}
	}
	// Clean batch completion: flush a checkpoint so out-of-band tooling
	// can see how far the campaign has progressed (non-fatal, like the
	// journal itself).
	_ = e.Checkpoint(true)
	return results, nil
}

// runOne resolves one cell and decodes its result. The bool reports a
// cache hit.
func runOne[R any](e *Engine, t Task[R]) (R, bool, error) {
	var r R
	ent, cached, err := e.Resolve(t.Key, t.Plan, nil, time.Time{})
	if err != nil {
		return r, false, err
	}
	if err := json.Unmarshal(ent.Result, &r); err != nil {
		return r, false, fmt.Errorf("decoding result: %w", err)
	}
	return r, cached, nil
}

// Resolve resolves one cell at the cache-entry level — the engine's
// only resolver, shared by Run batches, the serve layer, and fleet
// workers. A resolution already running for the cell's digest (a whole
// cell or a phase-1 micro-sim) is joined instead of repeated. Otherwise
// the sequence is: local cache probe, then the remote executor (if
// configured), then local computation through p, whose phase-1
// micro-sims resolve through the same flights and cache first. The
// returned Entry is exactly what the cache holds (or would hold, sans
// cache dir), which is what lets a fleet worker ship its envelope to a
// coordinator that then stores byte-identical entries. The bool
// reports whether any cache — local, a remote worker's, or a joined
// flight — answered the cell.
//
// A remote failure falls back to local computation. A nil p (or one
// without Compute) marks a cell the caller cannot compute locally; it
// fails unless it is cached or remotely executable.
//
// tr (nil: untraced) records a span per stage — coalesce wait, cache
// probe, remote dispatch, compute, cache write — and the breakdown is
// journaled with the completion. A follower's trace is marked joined to
// the leader's and adopts its spans as children. A non-zero deadline
// reaches the remote for placement only. Neither ever changes what is
// computed or cached.
func (e *Engine) Resolve(k Key, p *Plan, tr *telemetry.CellTrace, deadline time.Time) (Entry, bool, error) {
	digest := k.Digest()
	ent, cached, remote, wall, err := e.resolve(k, digest, p, false, tr, deadline)
	if err != nil {
		e.stats.recordError()
		return Entry{}, false, err
	}
	e.finish(k, digest, p, cached, remote, wall, tr)
	return ent, cached, nil
}

// resolve is the one path every resolution takes, whole cells and
// phase-1 micro-sims (micro) alike: join the digest's flight, or lead
// it and publish the outcome to its followers. cached reports that a
// cache or another resolution answered; remote that the remote did
// (never for a micro-sim); wall is the simulation time to account — a
// remote entry's WallSeconds is the worker's, so SimWallSeconds still
// sums real compute fleet-wide.
func (e *Engine) resolve(k Key, digest string, p *Plan, micro bool, tr *telemetry.CellTrace, deadline time.Time) (ent Entry, cached, remote bool, wall float64, err error) {
	wait := time.Now()
	f, leader := e.join(digest, micro, tr)
	if !leader {
		<-f.done
		tr.Stage(telemetry.StageCoalesce, wait)
		tr.SetJoined(f.tr.TraceID())
		tr.Adopt(f.tr.Spans(), "")
		// A follower's resolution cost it nothing: a hit.
		return f.ent, true, false, 0, f.err
	}
	rem := e.remote
	if micro {
		rem = nil
	}
	ent, cached, remote, err = e.lead(k, digest, p, rem, tr, deadline)
	e.land(digest, f, ent, err)
	if !cached || remote {
		wall = ent.WallSeconds
	}
	return ent, cached, remote, wall, err
}

// lead resolves a digest for its flight's leader: local cache probe,
// then rem (nil: none), then local computation through p and a cache
// write. cached reports a cache answer (local, or the remote worker's);
// remote reports that rem resolved the cell.
func (e *Engine) lead(k Key, digest string, p *Plan, rem Remote, tr *telemetry.CellTrace, deadline time.Time) (ent Entry, cached, remote bool, err error) {
	if e.cache != nil {
		probe := time.Now()
		if ent, ok := e.cache.GetEntry(digest); ok {
			tr.StageDetail(telemetry.StageCache, probe, "hit")
			return ent, true, false, nil
		}
		tr.StageDetail(telemetry.StageCache, probe, "miss")
	}

	computable := p != nil && p.Compute != nil
	if rem != nil {
		ent, cached, err := rem.Exec(k, p.shardDigest(), tr, deadline)
		if err == nil {
			return ent, cached, true, e.put(digest, ent, tr)
		}
		if !computable {
			return Entry{}, false, false, err
		}
		// Remote exhausted its retries; fall back to computing locally so
		// a coordinator outlives its whole fleet.
	}
	if !computable {
		return Entry{}, false, false, fmt.Errorf("cell %s not cached and not computable", digest[:12])
	}

	micro := make([]json.RawMessage, len(p.Micro))
	for i, mt := range p.Micro {
		if micro[i], err = e.resolveMicro(mt); err != nil {
			return Entry{}, false, false, err
		}
	}

	start := time.Now()
	raw, err := p.Compute(micro)
	wall := time.Since(start).Seconds()
	tr.Stage(telemetry.StageCompute, start)
	if err != nil {
		return Entry{}, false, false, err
	}
	ent = Entry{Key: k, WallSeconds: wall, Result: raw}
	return ent, false, false, e.put(digest, ent, tr)
}

// put writes a resolved cell into the cache, if there is one.
func (e *Engine) put(digest string, ent Entry, tr *telemetry.CellTrace) error {
	if e.cache == nil {
		return nil
	}
	start := time.Now()
	if err := e.cache.Put(digest, ent); err != nil {
		return err
	}
	tr.Stage(telemetry.StageSerialize, start)
	return nil
}

// finish records accounting and journals the completion (with the
// traced per-stage breakdown, when there is one). Every cell counts
// once in Cells/Hits/Misses; a queueing cell also counts in the
// phase-2 layer and journals layer="queueing" with the phase-1 digests
// it was derived from.
func (e *Engine) finish(k Key, digest string, p *Plan, cached, remote bool, wall float64, tr *telemetry.CellTrace) {
	queueing := p != nil && p.Queueing
	if queueing {
		e.stats.recordQueueing(cached)
	}
	seq := e.stats.record(CellTiming{
		Kind: k.Kind, Design: k.Design, Workload: k.Workload, Load: k.Load,
		Cached: cached, Remote: remote, WallSeconds: wall,
	})
	if e.journal == nil {
		return
	}
	// Journal failures are deliberately non-fatal: the journal is an
	// observability artifact; resume correctness comes from the
	// content-addressed cache entries themselves.
	je := JournalEntry{
		Seq: seq, Digest: digest, Kind: k.Kind,
		Design: k.Design, Workload: k.Workload, Load: k.Load,
		Cached: cached, Remote: remote, WallSeconds: wall,
		StagesUs: tr.StageTotalsUs(),
	}
	if queueing {
		je.Layer = LayerQueueing
		for _, mt := range p.Micro {
			je.MicroDigests = append(je.MicroDigests, mt.Key.Digest())
		}
	}
	_ = e.journal.Append(je)
}
