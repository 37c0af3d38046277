package expt

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"duplexity/internal/campaign"
	"duplexity/internal/core"
	"duplexity/internal/idle"
	"duplexity/internal/telemetry"
	"duplexity/internal/workload"
)

// This file is the serving boundary of the experiment harness: it
// resolves externally submitted cell requests (internal/serve's HTTP
// API) onto the exact same campaign tasks the CLI figures submit.
// Served cells therefore hit the same content-addressed cache keys and
// produce byte-identical cache entries — the serve layer adds
// scheduling, never semantics.

// Cell kinds accepted at the API boundary.
const (
	// KindMatrix is one open-loop design × workload × load point (the
	// Figure 5/6 campaign cell).
	KindMatrix = "matrix"
	// KindSlowdown is one saturated closed-loop service-time cell (the
	// Figure 5d-e slowdown measurement).
	KindSlowdown = "slowdown"
	// KindEnergyProp is one energy-proportionality point: a queueing
	// simulation under an idle governor plus the power model over the
	// resulting C-state residency.
	KindEnergyProp = "energyprop"
	// KindTail is one tail-latency queueing point (the Figure 5(d)/(e)
	// BigHouse stage as a content-addressed cell): a queueing simulation
	// whose service distribution is scaled by the design's closed-loop
	// slowdown. Resolves two-phase by default — the slowdown micro-sims
	// are shared phase-1 dependencies.
	KindTail = "tail"
)

// CellSpec is a single simulation cell requested over the serve API.
// Scale and seed are properties of the serving harness (Options), not
// the request: a daemon serves one (scale, seed, model-version) world,
// so identical requests always map to identical cache keys.
type CellSpec struct {
	Kind     string `json:"kind"`
	Design   string `json:"design"`
	Workload string `json:"workload"`
	// Load is the offered load in (0, 0.95] for matrix and energyprop
	// cells; slowdown cells are saturated closed-loop runs and must
	// leave it 0.
	Load float64 `json:"load,omitempty"`
	// Governor names the idle governor for energyprop cells
	// (idle.Names); other kinds must leave it empty.
	Governor string `json:"governor,omitempty"`
	// Lambda is an explicit arrival rate (QPS) for tail cells; 0 defaults
	// to the workload's nominal rate at the requested load. Other kinds
	// must leave it 0.
	Lambda float64 `json:"lambda,omitempty"`
}

// FieldError locates one invalid request field.
type FieldError struct {
	Field   string `json:"field"`
	Message string `json:"message"`
}

// ValidationError aggregates every invalid field of a request, so API
// clients see all problems in one structured 400 instead of fixing them
// one round-trip at a time.
type ValidationError struct {
	Fields []FieldError `json:"fields"`
}

func (e *ValidationError) Error() string {
	parts := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		parts[i] = f.Field + ": " + f.Message
	}
	return "invalid request: " + strings.Join(parts, "; ")
}

// ParseDesign resolves a design-point name (core.Design.String form,
// e.g. "Duplexity", "SMT+").
func ParseDesign(name string) (core.Design, bool) {
	for _, d := range core.AllDesigns {
		if d.String() == name {
			return d, true
		}
	}
	return 0, false
}

// KnownDesignNames lists the design points in evaluation order.
func KnownDesignNames() []string {
	names := make([]string, len(core.AllDesigns))
	for i, d := range core.AllDesigns {
		names[i] = d.String()
	}
	return names
}

// KnownWorkloadNames lists the Section V microservices in suite order.
func KnownWorkloadNames() []string {
	specs := workload.Microservices()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

func workloadByName(name string) *workload.Spec {
	for _, s := range workload.Microservices() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Validate checks a cell request at the API boundary, before any
// queueing or simulation, returning a *ValidationError naming every bad
// field (the serve layer maps it to a structured 400).
func (cs CellSpec) Validate() error {
	var errs []FieldError
	switch cs.Kind {
	case KindMatrix:
		if math.IsNaN(cs.Load) || cs.Load <= 0 || cs.Load > 0.95 {
			errs = append(errs, FieldError{"load", fmt.Sprintf("matrix cells need 0 < load <= 0.95, got %v", cs.Load)})
		}
	case KindSlowdown:
		if cs.Load != 0 {
			errs = append(errs, FieldError{"load", "slowdown cells are saturated closed-loop runs; leave load 0"})
		}
	case KindEnergyProp:
		if math.IsNaN(cs.Load) || cs.Load <= 0 || cs.Load > 0.95 {
			errs = append(errs, FieldError{"load", fmt.Sprintf("energyprop cells need 0 < load <= 0.95, got %v", cs.Load)})
		}
		if _, ok := idle.ByName(cs.Governor); !ok {
			errs = append(errs, FieldError{"governor", fmt.Sprintf("unknown idle governor %q (known: %s)", cs.Governor, strings.Join(idle.Names(), ", "))})
		} else if idle.RequiresMorphing(cs.Governor) {
			if d, ok := ParseDesign(cs.Design); ok && !d.Morphs() {
				errs = append(errs, FieldError{"governor", fmt.Sprintf("the %s governor needs a morphing design; %s cannot run filler-threads", cs.Governor, cs.Design)})
			}
		}
	case KindTail:
		if math.IsNaN(cs.Load) || cs.Load <= 0 || cs.Load > 0.95 {
			errs = append(errs, FieldError{"load", fmt.Sprintf("tail cells need 0 < load <= 0.95, got %v", cs.Load)})
		}
		if math.IsNaN(cs.Lambda) || cs.Lambda < 0 {
			errs = append(errs, FieldError{"lambda", fmt.Sprintf("tail cells need lambda >= 0 (0: the workload's nominal rate at the load), got %v", cs.Lambda)})
		}
	default:
		errs = append(errs, FieldError{"kind", fmt.Sprintf("unknown kind %q (known: %s, %s, %s, %s)", cs.Kind, KindMatrix, KindSlowdown, KindEnergyProp, KindTail)})
	}
	if cs.Kind != KindEnergyProp && cs.Governor != "" {
		errs = append(errs, FieldError{"governor", "only energyprop cells take an idle governor"})
	}
	if cs.Kind != KindTail && cs.Lambda != 0 {
		errs = append(errs, FieldError{"lambda", "only tail cells take an explicit arrival rate"})
	}
	if _, ok := ParseDesign(cs.Design); !ok {
		errs = append(errs, FieldError{"design", fmt.Sprintf("unknown design %q (known: %s)", cs.Design, strings.Join(KnownDesignNames(), ", "))})
	}
	if workloadByName(cs.Workload) == nil {
		errs = append(errs, FieldError{"workload", fmt.Sprintf("unknown workload %q (known: %s)", cs.Workload, strings.Join(KnownWorkloadNames(), ", "))})
	}
	if len(errs) > 0 {
		return &ValidationError{Fields: errs}
	}
	return nil
}

// ServedResult is the API-facing outcome of one served cell. Cell (for
// matrix kinds) carries exactly the fields the CLI's campaign report
// exposes; the underlying cache entry is byte-identical to a CLI run's.
type ServedResult struct {
	Kind     string  `json:"kind"`
	Design   string  `json:"design"`
	Workload string  `json:"workload"`
	Load     float64 `json:"load"`
	// Digest is the cell's content address in the campaign cache.
	Digest string `json:"digest"`
	// Cached reports whether the on-disk cache answered the cell (false
	// when this request simulated it, or received a coalesced result
	// from a concurrent identical request's simulation).
	Cached bool `json:"cached"`
	// Governor echoes the requested idle governor (energyprop only).
	Governor string `json:"governor,omitempty"`
	// Cell is the matrix-cell payload (nil for other kinds).
	Cell *CellReport `json:"cell,omitempty"`
	// CyclesPerReq is the slowdown-cell payload (0 for other kinds).
	CyclesPerReq float64 `json:"cycles_per_req,omitempty"`
	// Energy is the energyprop-cell payload (nil for other kinds).
	Energy *EnergyCellReport `json:"energy,omitempty"`
	// Tail is the tail-cell payload (nil for other kinds).
	Tail *TailCellReport `json:"tail,omitempty"`
	// Raw is the cache-entry-level form this result decoded from. It is
	// what a fleet worker ships to its coordinator (the serve layer's
	// /v1/exec endpoint returns it); excluded from client-facing JSON.
	Raw *RawCellResult `json:"-"`
}

// RawCellResult is one resolved cell at the cache-entry level: the
// content address, whether a cache answered it, the producing
// simulation's wall time, and the raw result JSON exactly as cached.
// This is the fleet wire format — a coordinator stores the entry
// verbatim, so its cache ends up byte-identical to a single-node run's.
type RawCellResult struct {
	Digest      string          `json:"digest"`
	Cached      bool            `json:"cached"`
	WallSeconds float64         `json:"wall_seconds"`
	Result      json.RawMessage `json:"result"`
	// Stages carries the producing daemon's recorded spans for this
	// resolution, so a coordinator can adopt them as children of its
	// own remote span and stitch a cross-process timeline. Wire-only
	// observability: never part of the cached entry, so cache bytes
	// stay identical with tracing on or off.
	Stages []telemetry.StageSpan `json:"stages,omitempty"`
}

// Engine exposes the suite's campaign engine to the serving layer
// (single-cell submission, drain-time checkpoint, incomplete-cell
// journaling).
func (s *Suite) Engine() *campaign.Engine { return s.eng }

// servedKeyFor resolves a validated spec to its campaign key plus the
// parsed design, workload, and effective arrival rate (tail cells with
// Lambda 0 default to the workload's nominal rate at the load, exactly
// as the CLI figure path does — so the defaulted request and the CLI
// cell share one cache entry).
func (s *Suite) servedKeyFor(cs CellSpec) (campaign.Key, core.Design, *workload.Spec, float64) {
	design, _ := ParseDesign(cs.Design)
	spec := workloadByName(cs.Workload)
	if cs.Kind == KindTail {
		lambda := cs.Lambda
		if lambda == 0 {
			lambda = spec.QPSAtLoad(cs.Load)
		}
		return s.tailKey(design, spec, cs.Load, lambda), design, spec, lambda
	}
	return s.cellKey(cs.Kind, design, spec, cs.Load, cs.Governor), design, spec, 0
}

// ServedKey returns the content-address key a validated spec resolves
// to — the same key the CLI path would use for the identical cell.
func (s *Suite) ServedKey(cs CellSpec) (campaign.Key, error) {
	if err := cs.Validate(); err != nil {
		return campaign.Key{}, err
	}
	key, _, _, _ := s.servedKeyFor(cs)
	return key, nil
}

// RunServedRaw resolves one validated cell through the campaign engine
// at the cache-entry level: local cache probe, remote dispatch (when the
// suite has a fleet), simulation on a miss, journaling — identical
// accounting to a CLI batch. This is what the serve layer's /v1/exec
// endpoint returns to a fleet coordinator. Safe for concurrent use.
func (s *Suite) RunServedRaw(cs CellSpec) (RawCellResult, error) {
	return s.RunServedRawTraced(cs, nil)
}

// RunServedRawTraced is RunServedRaw with per-stage tracing threaded
// into the campaign engine (nil tr: untraced).
func (s *Suite) RunServedRawTraced(cs CellSpec, tr *telemetry.CellTrace) (RawCellResult, error) {
	return s.RunServedRawDeadline(cs, tr, time.Time{})
}

// RunServedRawDeadline is RunServedRawTraced for deadline-lane cells: a
// non-zero deadline reaches the campaign engine's remote (a fleet
// coordinator) for Hurry-up-style placement, never the simulation
// itself, so results stay byte-identical with or without a deadline.
func (s *Suite) RunServedRawDeadline(cs CellSpec, tr *telemetry.CellTrace, deadline time.Time) (RawCellResult, error) {
	if s.engErr != nil {
		return RawCellResult{}, s.engErr
	}
	if err := cs.Validate(); err != nil {
		return RawCellResult{}, err
	}
	key, design, spec, lambda := s.servedKeyFor(cs)

	// Tail and energyprop cells resolve their slowdown micro-sims through
	// the engine's phase-1 layer, shared across every served cell and CLI
	// figure that needs them.
	var plan *campaign.Plan
	switch cs.Kind {
	case KindMatrix:
		plan = s.matrixPlan(design, spec, cs.Load)
	case KindSlowdown:
		plan = s.slowdownPlan(design, spec)
	case KindEnergyProp:
		plan = s.energyPlan(design, spec, cs.Governor, cs.Load)
	case KindTail:
		plan = s.tailPlan(design, spec, cs.Load, lambda)
	}
	ent, cached, err := s.eng.Resolve(key, plan, tr, deadline)
	if err != nil {
		return RawCellResult{}, err
	}
	return RawCellResult{
		Digest: key.Digest(), Cached: cached,
		WallSeconds: ent.WallSeconds, Result: ent.Result,
	}, nil
}

// RunServedDeadline resolves one validated cell and decodes it into the
// API-facing result shape, with a placement deadline for
// interactive-lane cells (zero deadline: batch semantics) and per-stage
// tracing threaded through (nil tr: untraced). It layers typed decoding
// over RunServedRawDeadline, so the local, coordinator, and worker paths
// all produce their responses from the same cached bytes. Unlike the
// figure methods, it is safe for concurrent use (it touches no Suite
// memoization), which is what lets the serve layer fan cells across its
// pool with one shared Suite. This is the serve layer's run hook.
func (s *Suite) RunServedDeadline(cs CellSpec, tr *telemetry.CellTrace, deadline time.Time) (ServedResult, error) {
	raw, err := s.RunServedRawDeadline(cs, tr, deadline)
	if err != nil {
		return ServedResult{}, err
	}
	out := ServedResult{
		Kind: cs.Kind, Design: cs.Design, Workload: cs.Workload, Load: cs.Load,
		Governor: cs.Governor, Digest: raw.Digest, Cached: raw.Cached, Raw: &raw,
	}
	switch cs.Kind {
	case KindMatrix:
		var c cell
		if err := json.Unmarshal(raw.Result, &c); err != nil {
			return ServedResult{}, fmt.Errorf("expt: decoding matrix cell %s: %w", raw.Digest[:12], err)
		}
		out.Cell = &CellReport{
			Design:       c.Design.String(),
			Workload:     c.Workload,
			Load:         c.Load,
			Utilization:  c.Utilization,
			Seconds:      c.Seconds,
			OoORetired:   c.OoORetired,
			InORetired:   c.InORetired,
			BatchRetired: c.BatchRetired,
			RemotesPerS:  c.RemotesPerS,
			Requests:     c.Requests,
			MicroP99Us:   c.MicroP99Us,
		}
	case KindSlowdown:
		var v float64
		if err := json.Unmarshal(raw.Result, &v); err != nil {
			return ServedResult{}, fmt.Errorf("expt: decoding slowdown cell %s: %w", raw.Digest[:12], err)
		}
		out.CyclesPerReq = v
	case KindEnergyProp:
		var c energyCell
		if err := json.Unmarshal(raw.Result, &c); err != nil {
			return ServedResult{}, fmt.Errorf("expt: decoding energyprop cell %s: %w", raw.Digest[:12], err)
		}
		out.Energy = c.report()
	case KindTail:
		var c tailCell
		if err := json.Unmarshal(raw.Result, &c); err != nil {
			return ServedResult{}, fmt.Errorf("expt: decoding tail cell %s: %w", raw.Digest[:12], err)
		}
		out.Tail = c.report()
	}
	return out, nil
}

// Campaign kinds accepted at the API boundary: the matrix campaign
// ("fig5" is the CLI-familiar alias) and the closed-loop slowdown
// campaign, mirroring the experiment families the duplexity CLI
// validates up front.
const (
	CampaignMatrix     = "matrix"
	CampaignFig5       = "fig5"
	CampaignSlowdowns  = "slowdowns"
	CampaignEnergyProp = "energyprop"
	CampaignTails      = "tails"
)

// CampaignSpec is a batch submission: a cell family crossed over design
// × workload (× load for matrix kinds, × governor for energyprop).
// Empty lists default to the full paper campaign for that axis.
type CampaignSpec struct {
	Kind      string    `json:"kind"`
	Designs   []string  `json:"designs,omitempty"`
	Workloads []string  `json:"workloads,omitempty"`
	Loads     []float64 `json:"loads,omitempty"`
	Governors []string  `json:"governors,omitempty"`
}

// Expand validates a campaign submission and enumerates its cells in
// canonical (paper) order: design-major, then workload, then load —
// the same order the CLI's matrixTasks uses, so streamed results line
// up with figure rows.
func (c CampaignSpec) Expand() ([]CellSpec, error) {
	var errs []FieldError
	cellKind := ""
	switch c.Kind {
	case CampaignMatrix, CampaignFig5:
		cellKind = KindMatrix
	case CampaignSlowdowns:
		cellKind = KindSlowdown
		if len(c.Loads) > 0 {
			errs = append(errs, FieldError{"loads", "slowdown campaigns are closed-loop; leave loads empty"})
		}
	case CampaignEnergyProp:
		cellKind = KindEnergyProp
	case CampaignTails:
		cellKind = KindTail
	default:
		errs = append(errs, FieldError{"kind", fmt.Sprintf("unknown campaign kind %q (known: %s, %s, %s, %s, %s)",
			c.Kind, CampaignMatrix, CampaignFig5, CampaignSlowdowns, CampaignEnergyProp, CampaignTails)})
	}
	if cellKind != KindEnergyProp && len(c.Governors) > 0 {
		errs = append(errs, FieldError{"governors", "only energyprop campaigns take idle governors"})
	}
	designs := c.Designs
	if len(designs) == 0 {
		if cellKind == KindEnergyProp {
			// The canonical proportionality story: the baseline OoO core
			// under sleep states vs Duplexity filling idle.
			designs = []string{core.DesignBaseline.String(), core.DesignDuplexity.String()}
		} else {
			designs = KnownDesignNames()
		}
	}
	for _, d := range designs {
		if _, ok := ParseDesign(d); !ok {
			errs = append(errs, FieldError{"designs", fmt.Sprintf("unknown design %q (known: %s)", d, strings.Join(KnownDesignNames(), ", "))})
		}
	}
	workloads := c.Workloads
	if len(workloads) == 0 {
		workloads = KnownWorkloadNames()
	}
	for _, w := range workloads {
		if workloadByName(w) == nil {
			errs = append(errs, FieldError{"workloads", fmt.Sprintf("unknown workload %q (known: %s)", w, strings.Join(KnownWorkloadNames(), ", "))})
		}
	}
	loads := c.Loads
	switch cellKind {
	case KindMatrix, KindEnergyProp, KindTail:
		if len(loads) == 0 {
			if cellKind == KindEnergyProp {
				loads = append([]float64(nil), EnergyLoads...)
			} else {
				loads = append([]float64(nil), Loads...)
			}
		}
		for _, l := range loads {
			if math.IsNaN(l) || l <= 0 || l > 0.95 {
				errs = append(errs, FieldError{"loads", fmt.Sprintf("%s loads need 0 < load <= 0.95, got %v", cellKind, l)})
			}
		}
	default:
		loads = []float64{0}
	}
	governors := []string{""}
	if cellKind == KindEnergyProp {
		governors = c.Governors
		if len(governors) == 0 {
			governors = []string{idle.GovShallow, idle.GovDeep, idle.GovAgile, idle.GovFill}
		}
		for _, g := range governors {
			if _, ok := idle.ByName(g); !ok {
				errs = append(errs, FieldError{"governors", fmt.Sprintf("unknown idle governor %q (known: %s)", g, strings.Join(idle.Names(), ", "))})
			}
		}
	}
	if len(errs) > 0 {
		// Report each field once even when several values are bad.
		sort.SliceStable(errs, func(i, j int) bool { return errs[i].Field < errs[j].Field })
		return nil, &ValidationError{Fields: errs}
	}
	var cells []CellSpec
	for _, d := range designs {
		for _, w := range workloads {
			for _, l := range loads {
				for _, g := range governors {
					// The fill governor needs a morphing design; the
					// cross-product silently drops invalid pairings so
					// "Baseline+Duplexity × all governors" expands to the
					// meaningful cells instead of erroring.
					if g != "" && idle.RequiresMorphing(g) {
						if dd, ok := ParseDesign(d); ok && !dd.Morphs() {
							continue
						}
					}
					cells = append(cells, CellSpec{Kind: cellKind, Design: d, Workload: w, Load: l, Governor: g})
				}
			}
		}
	}
	if len(cells) == 0 {
		return nil, &ValidationError{Fields: []FieldError{{"governors",
			"no valid (design, governor) pairings: the fill governor needs a morphing design"}}}
	}
	return cells, nil
}
