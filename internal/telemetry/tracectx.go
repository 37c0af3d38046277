package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace-context propagation headers. A coordinator (or any submitter)
// mints a trace at submission time and injects these on every hop; each
// daemon extracts them, opens its own span under the inherited trace,
// and re-injects when it dispatches further. The contract is documented
// in DESIGN.md §11.
const (
	// HeaderTraceID carries the end-to-end trace identifier.
	HeaderTraceID = "X-Duplexity-Trace"
	// HeaderSpanID carries the caller's span id; the callee records it
	// as the parent of its own span.
	HeaderSpanID = "X-Duplexity-Span"
	// HeaderCampaign carries the submitting campaign/job id, if any.
	HeaderCampaign = "X-Duplexity-Campaign"
	// HeaderHedge marks a request as a hedged duplicate ("1"); absent or
	// any other value means primary.
	HeaderHedge = "X-Duplexity-Hedge"
)

// Stage names for per-cell spans — the closed taxonomy every layer
// records against, so cross-process timelines stitch without name
// translation. See DESIGN.md §11.
const (
	// StageSched is time a campaign-job cell spent in the multi-tenant
	// fair-share scheduler before being dispatched into admission.
	StageSched = "sched"
	// StageAdmission is time spent queued behind the serve admission
	// gate before a worker goroutine picked the cell up.
	StageAdmission = "admission"
	// StageCoalesce is time a duplicate request spent waiting on
	// another in-flight execution of the same cell.
	StageCoalesce = "coalesce"
	// StageCache is the content-addressed cache probe (Detail "hit" or
	// "miss").
	StageCache = "cache"
	// StageRemote is a coordinator-side dispatch to a fleet worker,
	// network round trip included (Worker names the target).
	StageRemote = "remote"
	// StageCompute is the simulation itself, result encoding included.
	StageCompute = "compute"
	// StageSerialize is the cache write persisting a computed result.
	StageSerialize = "serialize"
)

// TraceContext is the minted-at-submission identity that rides the
// headers above. The zero value means "untraced": Inject does nothing
// and the receiving daemon mints a fresh trace.
type TraceContext struct {
	// TraceID identifies the end-to-end cell execution.
	TraceID string `json:"trace_id"`
	// SpanID is the caller's span (the parent of any span the callee
	// opens).
	SpanID string `json:"span_id,omitempty"`
	// Campaign is the submitting campaign/job id, if any.
	Campaign string `json:"campaign,omitempty"`
	// Hedged marks the request as a hedged duplicate of another
	// in-flight dispatch.
	Hedged bool `json:"hedged,omitempty"`
}

// idCounter sequences span/trace ids; idBase is a per-process random
// mask so ids from different daemons never collide.
var (
	idCounter atomic.Uint64
	idBase    = func() uint64 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Degrade to process-locally-unique ids; the counter alone
			// still distinguishes spans within one daemon.
			return 0xd17a5e_c0ffee
		}
		return binary.LittleEndian.Uint64(b[:])
	}()
)

// MintID returns a new 16-hex-digit id, unique per process and (with
// overwhelming probability) across the fleet. It is cheap: one atomic
// add and one format, no time or entropy syscalls on the hot path.
func MintID() string {
	return fmt.Sprintf("%016x", idBase^idCounter.Add(1))
}

// MintTrace starts a fresh trace for a campaign cell submission.
func MintTrace(campaign string) TraceContext {
	return TraceContext{TraceID: MintID(), Campaign: campaign}
}

// Inject writes the context into h. A zero context (no TraceID) writes
// nothing, keeping untraced requests byte-identical to pre-tracing ones.
func (tc TraceContext) Inject(h http.Header) {
	if tc.TraceID == "" {
		return
	}
	h.Set(HeaderTraceID, tc.TraceID)
	if tc.SpanID != "" {
		h.Set(HeaderSpanID, tc.SpanID)
	}
	if tc.Campaign != "" {
		h.Set(HeaderCampaign, tc.Campaign)
	}
	if tc.Hedged {
		h.Set(HeaderHedge, "1")
	}
}

// TraceFromHeaders extracts a context from h; ok is false when no trace
// id is present (the callee should mint its own).
func TraceFromHeaders(h http.Header) (tc TraceContext, ok bool) {
	tc.TraceID = h.Get(HeaderTraceID)
	if tc.TraceID == "" {
		return TraceContext{}, false
	}
	tc.SpanID = h.Get(HeaderSpanID)
	tc.Campaign = h.Get(HeaderCampaign)
	tc.Hedged = h.Get(HeaderHedge) == "1"
	return tc, true
}

// StageSpan is one recorded stage of a cell's execution. Spans are
// plain data and cross process boundaries verbatim (a worker ships its
// spans back inside the /v1/exec response; the coordinator adopts them
// as children).
type StageSpan struct {
	// Stage is one of the Stage* constants above.
	Stage string `json:"stage"`
	// StartUnixNs is the span's start on the recording host's clock.
	// Cross-host comparisons are subject to clock skew (DESIGN.md §11).
	StartUnixNs int64 `json:"start_unix_ns"`
	// DurNs is the span's duration.
	DurNs int64 `json:"dur_ns"`
	// Worker names the daemon that recorded the span, for child spans
	// adopted across a dispatch hop.
	Worker string `json:"worker,omitempty"`
	// Detail carries stage-specific annotation ("hit"/"miss" for cache
	// probes, an HTTP status for failed remote legs, ...).
	Detail string `json:"detail,omitempty"`
	// Hedged marks a remote span as a hedged duplicate leg.
	Hedged bool `json:"hedged,omitempty"`
	// Winner marks the remote leg whose result was used (at most one
	// per trace).
	Winner bool `json:"winner,omitempty"`
	// Child marks a nested span (adopted from a callee or a coalesce
	// leader); child spans overlap their parent and are excluded from
	// top-level stage sums.
	Child bool `json:"child,omitempty"`
	// Err records the failure for spans that ended in error.
	Err string `json:"err,omitempty"`
}

// CellTrace accumulates the spans of one cell execution. It is safe for
// concurrent use (serve fans one flight's result to many waiters) and
// every method is a no-op on a nil receiver, so untraced paths thread a
// nil *CellTrace with zero branching at call sites.
type CellTrace struct {
	mu     sync.Mutex
	tc     TraceContext
	span   string // this execution's own span id
	digest string
	start  time.Time
	joined string
	cached bool
	errMsg string
	spans  []StageSpan
}

// NewCellTrace opens a trace for one cell execution. An empty inherited
// context mints a fresh trace id; the execution always gets its own
// span id with tc.SpanID as parent.
func NewCellTrace(tc TraceContext, digest string) *CellTrace {
	return NewCellTraceAt(tc, digest, time.Now())
}

// NewCellTraceAt opens a trace whose wall clock starts at start — used
// when the cell's life began before execution (a scheduler queue), so
// queue-wait spans stay inside the trace's wall time.
func NewCellTraceAt(tc TraceContext, digest string, start time.Time) *CellTrace {
	if tc.TraceID == "" {
		tc.TraceID = MintID()
	}
	if start.IsZero() {
		start = time.Now()
	}
	return &CellTrace{tc: tc, span: MintID(), digest: digest, start: start}
}

// Context returns the propagation context for outbound hops: the trace
// id with this execution's span as the parent-to-be.
func (t *CellTrace) Context() TraceContext {
	if t == nil {
		return TraceContext{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tc := t.tc
	tc.SpanID = t.span
	return tc
}

// TraceID returns the trace id ("" on nil).
func (t *CellTrace) TraceID() string {
	if t == nil {
		return ""
	}
	return t.tc.TraceID
}

// Stage records a stage that started at start and ends now.
func (t *CellTrace) Stage(stage string, start time.Time) {
	t.StageDetail(stage, start, "")
}

// StageDetail records a stage with a Detail annotation.
func (t *CellTrace) StageDetail(stage string, start time.Time, detail string) {
	if t == nil {
		return
	}
	t.Record(StageSpan{
		Stage:       stage,
		StartUnixNs: start.UnixNano(),
		DurNs:       time.Since(start).Nanoseconds(),
		Detail:      detail,
	})
}

// Record appends a fully built span.
func (t *CellTrace) Record(sp StageSpan) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Adopt copies spans recorded by another party (a worker's shipped
// spans, a coalesce leader's flight) as children of this trace. Worker
// labels spans that don't already carry an origin.
func (t *CellTrace) Adopt(spans []StageSpan, worker string) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	for _, sp := range spans {
		sp.Child = true
		if sp.Worker == "" {
			sp.Worker = worker
		}
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
}

// SetJoined marks this trace as coalesced onto another in-flight
// execution (the leader's trace id).
func (t *CellTrace) SetJoined(leaderTraceID string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.joined = leaderTraceID
	t.mu.Unlock()
}

// SetCached marks whether the cell resolved from cache.
func (t *CellTrace) SetCached(cached bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cached = cached
	t.mu.Unlock()
}

// SetError records a terminal error.
func (t *CellTrace) SetError(err error) {
	if t == nil || err == nil {
		return
	}
	t.mu.Lock()
	t.errMsg = err.Error()
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans ("" on nil: nil slice).
func (t *CellTrace) Spans() []StageSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageSpan, len(t.spans))
	copy(out, t.spans)
	return out
}

// StageTotalsUs aggregates the top-level recorded span durations (µs)
// by stage name, for journaling a per-cell breakdown; nil when nothing
// was recorded (or on a nil receiver).
func (t *CellTrace) StageTotalsUs() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var m map[string]int64
	for _, sp := range t.spans {
		if sp.Child {
			continue
		}
		if m == nil {
			m = make(map[string]int64)
		}
		m[sp.Stage] += sp.DurNs / 1e3
	}
	return m
}

// Finish closes the trace and returns its snapshot. The trace remains
// usable (serve snapshots at each waiter's return; late spans simply
// miss earlier snapshots).
func (t *CellTrace) Finish() CellTraceSnapshot {
	if t == nil {
		return CellTraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := CellTraceSnapshot{
		TraceID:     t.tc.TraceID,
		SpanID:      t.span,
		Parent:      t.tc.SpanID,
		Campaign:    t.tc.Campaign,
		Digest:      t.digest,
		Hedged:      t.tc.Hedged,
		Joined:      t.joined,
		Cached:      t.cached,
		Error:       t.errMsg,
		StartUnixNs: t.start.UnixNano(),
		WallNs:      time.Since(t.start).Nanoseconds(),
	}
	s.Spans = make([]StageSpan, len(t.spans))
	copy(s.Spans, t.spans)
	return s
}

// CellTraceSnapshot is the stitched end-to-end timeline of one cell
// execution, as served on GET /v1/tracez.
type CellTraceSnapshot struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	Parent   string `json:"parent_span_id,omitempty"`
	Campaign string `json:"campaign,omitempty"`
	Digest   string `json:"digest"`
	// Hedged marks a trace opened for a hedged duplicate request.
	Hedged bool `json:"hedged,omitempty"`
	// Joined names the leader trace this request coalesced onto.
	Joined string `json:"joined_trace_id,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// StartUnixNs / WallNs bound the observed end-to-end wall time on
	// the recording daemon's clock.
	StartUnixNs int64       `json:"start_unix_ns"`
	WallNs      int64       `json:"wall_ns"`
	Spans       []StageSpan `json:"spans,omitempty"`
}

// StageSumNs sums top-level stage durations: child spans (nested work
// adopted from a callee) and losing hedge legs are excluded, so the sum
// is ≤ WallNs up to the documented slack (DESIGN.md §11).
func (s CellTraceSnapshot) StageSumNs() int64 {
	var sum int64
	for _, sp := range s.Spans {
		if sp.Child {
			continue
		}
		if sp.Stage == StageRemote && sp.Hedged && !sp.Winner {
			continue
		}
		sum += sp.DurNs
	}
	return sum
}

// StageTotalsUs aggregates top-level span durations (µs) by stage name
// — the per-cell breakdown the campaign journal persists. Returns nil
// when no spans were recorded.
func (s CellTraceSnapshot) StageTotalsUs() map[string]int64 {
	var m map[string]int64
	for _, sp := range s.Spans {
		if sp.Child {
			continue
		}
		if m == nil {
			m = make(map[string]int64)
		}
		m[sp.Stage] += sp.DurNs / 1e3
	}
	return m
}

// TraceRing keeps the most recent N cell-trace snapshots; it is safe
// for concurrent use (every serve waiter pushes on return).
type TraceRing struct {
	mu    sync.Mutex
	buf   []CellTraceSnapshot
	next  int
	total uint64
}

// DefaultTraceDepth is the default tracez ring capacity.
const DefaultTraceDepth = 256

// NewTraceRing builds a ring of the given capacity (≤ 0 uses
// DefaultTraceDepth).
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = DefaultTraceDepth
	}
	return &TraceRing{buf: make([]CellTraceSnapshot, 0, capacity)}
}

// Add records a snapshot, evicting the oldest once full. No-op on nil
// (tracing disabled).
func (r *TraceRing) Add(s CellTraceSnapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// Total returns the number of traces ever recorded (0 on nil).
func (r *TraceRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the buffered traces oldest-first (nil receiver:
// empty).
func (r *TraceRing) Snapshot() []CellTraceSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CellTraceSnapshot, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		copy(out, r.buf)
		return out
	}
	n := copy(out, r.buf[r.next:])
	copy(out[n:], r.buf[:r.next])
	return out
}

// Waterfall renders the trace as a text timeline: one bar per span,
// offset and scaled against the trace's wall time. width is the bar
// column in characters (≤ 0 uses 48).
func (s CellTraceSnapshot) Waterfall(w io.Writer, width int) error {
	if width <= 0 {
		width = 48
	}
	digest := s.Digest
	if len(digest) > 12 {
		digest = digest[:12]
	}
	var flags []string
	if s.Cached {
		flags = append(flags, "cached")
	}
	if s.Hedged {
		flags = append(flags, "hedged-duplicate")
	}
	if s.Joined != "" {
		flags = append(flags, "coalesced→"+s.Joined)
	}
	if s.Error != "" {
		flags = append(flags, "error: "+s.Error)
	}
	suffix := ""
	if len(flags) > 0 {
		suffix = "  [" + strings.Join(flags, ", ") + "]"
	}
	if _, err := fmt.Fprintf(w, "trace %s  cell %s  wall %s  stages %s%s\n",
		s.TraceID, digest, time.Duration(s.WallNs), time.Duration(s.StageSumNs()), suffix); err != nil {
		return err
	}
	// Children sort under their position in recorded order; recorded
	// order already reflects execution order per recorder, so sort by
	// start time only for display.
	spans := make([]StageSpan, len(s.Spans))
	copy(spans, s.Spans)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartUnixNs < spans[j].StartUnixNs })
	for _, sp := range spans {
		off := sp.StartUnixNs - s.StartUnixNs
		if off < 0 {
			off = 0
		}
		lead := 0
		if s.WallNs > 0 {
			lead = int(off * int64(width) / s.WallNs)
		}
		bar := 0
		if s.WallNs > 0 {
			bar = int(sp.DurNs * int64(width) / s.WallNs)
		}
		if lead > width {
			lead = width
		}
		if bar < 1 {
			bar = 1
		}
		if lead+bar > width {
			bar = width - lead
			if bar < 1 {
				bar = 1
				lead = width - 1
			}
		}
		name := sp.Stage
		if sp.Child {
			name = "  └ " + name
		}
		var tags []string
		if sp.Worker != "" {
			tags = append(tags, sp.Worker)
		}
		if sp.Detail != "" {
			tags = append(tags, sp.Detail)
		}
		if sp.Hedged {
			tags = append(tags, "hedge")
		}
		if sp.Winner {
			tags = append(tags, "winner")
		}
		if sp.Err != "" {
			tags = append(tags, "err: "+sp.Err)
		}
		tag := ""
		if len(tags) > 0 {
			tag = "  (" + strings.Join(tags, ", ") + ")"
		}
		if _, err := fmt.Fprintf(w, "  %-14s %s%s%s %10s%s\n",
			name,
			strings.Repeat(" ", lead),
			strings.Repeat("█", bar),
			strings.Repeat(" ", width-lead-bar),
			time.Duration(sp.DurNs), tag); err != nil {
			return err
		}
	}
	return nil
}
