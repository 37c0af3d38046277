package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"duplexity/internal/telemetry"
)

// span is one timed call recorded by the traced pass. Spans stay in
// memory and are written out once, when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Detail string `json:"detail,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans from several goroutines. A nil *tracer records
// nothing, so untraced passes thread nil through the same code.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent int, req, name string, start, end time.Time, detail string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.UnixNano(), End: end.UnixNano(), Detail: detail})
	return id
}

// end sets the end time of a span opened with add.
func (t *tracer) end(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.UnixNano()
}

// adopt records the program's own per-stage spans (a campaign or serve
// telemetry.CellTrace) as children of parent, named by stageName. For
// a two-phase cell it also records the micro-sim resolution, which the
// program does not time as a stage: the gap between the end of the
// cache probe that missed and the start of the compute stage.
func (t *tracer) adopt(parent int, req string, stages []telemetry.StageSpan) {
	if t == nil {
		return
	}
	var probeEnd, computeStart int64
	for _, st := range stages {
		if st.Child {
			continue
		}
		start := time.Unix(0, st.StartUnixNs)
		t.add(parent, req, stageName(st.Stage), start, start.Add(time.Duration(st.DurNs)), st.Detail)
		switch {
		case st.Stage == telemetry.StageCache && st.Detail == "miss":
			probeEnd = st.StartUnixNs + st.DurNs
		case st.Stage == telemetry.StageCompute:
			computeStart = st.StartUnixNs
		}
	}
	if probeEnd > 0 && computeStart > probeEnd {
		t.add(parent, req, "campaign.micro", time.Unix(0, probeEnd), time.Unix(0, computeStart), "")
	}
}

// stageName maps a telemetry stage to the layer that owns it: cache,
// compute and serialize belong to the campaign engine, the rest to the
// serve layer.
func stageName(stage string) string {
	switch stage {
	case telemetry.StageCache, telemetry.StageCompute, telemetry.StageSerialize:
		return "campaign." + stage
	}
	return "serve." + stage
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
			continue
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// byName groups spans by name.
func byName(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// meanMs is the mean duration of spans in milliseconds (0 for none).
func meanMs(spans []span) float64 {
	return meanDur(spans).Seconds() * 1e3
}

// meanUs is the mean duration of spans in microseconds (0 for none).
func meanUs(spans []span) float64 {
	return meanDur(spans).Seconds() * 1e6
}

func meanDur(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range spans {
		sum += s.dur()
	}
	return sum / time.Duration(len(spans))
}

// writeSpans writes the spans and their self times as one JSON file.
func writeSpans(path string, spans []span) error {
	self := selfTimes(spans)
	type out struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{s, int64(self[s.ID])}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
