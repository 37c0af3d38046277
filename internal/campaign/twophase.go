package campaign

import (
	"encoding/json"
	"fmt"
	"time"

	"duplexity/internal/telemetry"
)

// Two-phase cells split the paper's pipeline where the paper itself
// splits: an expensive cycle-level micro-simulation that measures a
// design×workload's service characteristics (phase 1), and a cheap
// request-granularity queueing simulation that sweeps offered load over
// those measurements (phase 2). Caching the phases separately means a
// campaign that fans one micro-sim out over many loads simulates it
// once, and a re-run that changes only the load grid re-simulates no
// micro-sims at all.
//
// The two cache layers share one content-addressed store:
//
//   - Phase 1 entries are ordinary cells of the micro-sim's own kind
//     (e.g. "slowdown"), keyed on (kind, model, design, workload, spec,
//     scale, seed) — no load, no governor. Warm caches written before
//     the split already hold them under the same digests.
//   - Phase 2 entries are stored under the cell's full legacy digest
//     (kind + load + governor + lambda ...). Because the phase-1 inputs
//     (design, workload, spec, scale, seed) are all part of that key,
//     the cell digest is equivalent to hashing the phase-1 digest plus
//     the (load, governor, lambda) coordinates — and keeping the legacy
//     encoding means every cache written before the split keeps
//     hitting, byte for byte.
//
// The phase-2 entry's bytes are pinned per decomposed cell kind by
// golden digests in internal/expt's TestTwoPhaseByteIdentity.

// MicroTask is one phase-1 dependency of a cell: the micro-sim's own
// cache key and the function that measures it. Run must be
// deterministic from the key alone (the standard cell contract).
type MicroTask struct {
	Key Key
	Run func() (json.RawMessage, error)
}

// Plan says how the engine computes a cell on a miss. Micro lists the
// phase-1 dependencies in a fixed order; Compute receives their raw
// results in that order and returns the cell's result bytes. A plan
// with no micros computes the cell in one step.
//
// Queueing marks a phase-2 (queueing) cell: it counts in the
// per-layer Queueing* counters and journals layer="queueing". It is
// separate from len(Micro) > 0 because a baseline tail cell needs no
// micro-sim (its slowdown is 1.0 by definition) yet is still a
// queueing cell.
type Plan struct {
	Micro    []MicroTask
	Compute  func(micro []json.RawMessage) (json.RawMessage, error)
	Queueing bool
}

// PlanFunc is the zero-micro, non-queueing plan that computes a cell by
// calling run and JSON-encoding its result.
func PlanFunc[R any](run func() (R, error)) *Plan {
	return &Plan{Compute: func([]json.RawMessage) (json.RawMessage, error) {
		r, err := run()
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("encoding result: %w", err)
		}
		return raw, nil
	}}
}

// shardDigest is the digest a remote ranks this cell's placement on:
// the first phase-1 digest, or "" (the cell's own) without micros.
func (p *Plan) shardDigest() string {
	if p == nil || len(p.Micro) == 0 {
		return ""
	}
	return p.Micro[0].Key.Digest()
}

// flight is one resolution of a digest — a whole cell from Resolve or a
// phase-1 micro-sim — shared by every concurrent resolution of that
// digest: the first is the leader, the rest wait on done and read its
// outcome. N cells fanning loads out from one micro-sim, or a served
// slowdown cell racing a tail cell built on it, cost one measurement.
type flight struct {
	done chan struct{}
	ent  Entry
	err  error
	// tr is a whole-cell leader's trace (nil for a micro-sim leader);
	// whole-cell followers adopt its spans so coalesced timelines still
	// show where the shared work went.
	tr *telemetry.CellTrace
	// memo, guarded by Engine.mu, keeps the flight in the map once it
	// succeeds: set when a micro-sim leads or joins it, so later cells
	// sharing the micro-sim read it from memory even without a cache
	// directory (bounded by the unique design×workload points). Other
	// finished flights leave the map; the disk cache answers repeats.
	memo bool
}

// join returns digest's flight and whether the caller leads it. A
// leader resolves the digest and calls land; a follower waits on done.
func (e *Engine) join(digest string, micro bool, tr *telemetry.CellTrace) (*flight, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if f, ok := e.flights[digest]; ok {
		f.memo = f.memo || micro
		return f, false
	}
	f := &flight{done: make(chan struct{}), tr: tr, memo: micro}
	e.flights[digest] = f
	return f, true
}

// land publishes a leader's outcome to its followers.
func (e *Engine) land(digest string, f *flight, ent Entry, err error) {
	e.mu.Lock()
	f.ent, f.err = ent, err
	if err != nil || !f.memo {
		delete(e.flights, digest)
	}
	e.mu.Unlock()
	close(f.done)
}

// resolveMicro resolves one phase-1 dependency through its flight and
// the disk cache, simulating (and writing the cache like any other
// cell) only on a miss. Micro-sim wall time counts toward the engine's
// SimWallSeconds — it is real compute — but micro resolutions are
// accounted in their own per-layer counters, never in the legacy
// Cells/Hits/Misses totals (those still count whole cells).
func (e *Engine) resolveMicro(mt MicroTask) (json.RawMessage, error) {
	var p *Plan
	if mt.Run != nil {
		p = &Plan{Compute: func([]json.RawMessage) (json.RawMessage, error) { return mt.Run() }}
	}
	digest := mt.Key.Digest()
	ent, cached, _, wall, err := e.resolve(mt.Key, digest, p, true, nil, time.Time{})
	if err != nil {
		return nil, err
	}
	e.finishMicro(mt.Key, digest, cached, wall)
	return ent.Result, nil
}

// finishMicro records one phase-1 resolution in the per-layer counters
// and the journal.
func (e *Engine) finishMicro(k Key, digest string, cached bool, wall float64) {
	seq := e.stats.recordMicro(cached, wall)
	if e.journal != nil {
		_ = e.journal.Append(JournalEntry{
			Seq: seq, Digest: digest, Kind: k.Kind,
			Design: k.Design, Workload: k.Workload, Load: k.Load,
			Cached: cached, WallSeconds: wall,
			Layer: LayerMicrosim,
		})
	}
}
