package main

import (
	"testing"
	"time"

	"duplexity/internal/telemetry"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		// Two overlapping children cover [10, 40); one sticks out past
		// the parent's end and counts only up to it.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "grandchild", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - 30 - 10, 2: 20 - 6, 3: 20, 4: 30, 5: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, self[id], w)
		}
	}
}

func TestAdoptRecordsMicroSimGap(t *testing.T) {
	tr := &tracer{}
	base := time.Unix(0, 1_000_000)
	parent := tr.add(0, "r", "expt.tail_cell", base, base.Add(100), "")
	tr.adopt(parent, "r", []telemetry.StageSpan{
		{Stage: telemetry.StageCache, StartUnixNs: base.UnixNano(), DurNs: 5, Detail: "miss"},
		{Stage: telemetry.StageCompute, StartUnixNs: base.UnixNano() + 40, DurNs: 50},
		{Stage: telemetry.StageSerialize, StartUnixNs: base.UnixNano() + 90, DurNs: 10},
		{Stage: telemetry.StageAdmission, StartUnixNs: base.UnixNano(), DurNs: 1, Child: true},
	})
	spans := tr.snapshot()
	names := map[string]time.Duration{}
	for _, s := range spans {
		names[s.Name] = s.dur()
	}
	want := map[string]time.Duration{"expt.tail_cell": 100, "campaign.cache": 5, "campaign.micro": 35,
		"campaign.compute": 50, "campaign.serialize": 10}
	if len(names) != len(want) {
		t.Fatalf("spans %v, want %v", names, want)
	}
	for n, d := range want {
		if names[n] != d {
			t.Errorf("%s = %v, want %v", n, names[n], d)
		}
	}
	if self := selfTimes(spans)[parent]; self != 0 {
		t.Errorf("cell self time %v, want 0 once every stage is adopted", self)
	}
	var nilTracer *tracer
	if nilTracer.add(0, "", "x", base, base, "") != 0 || nilTracer.snapshot() != nil {
		t.Error("a nil tracer recorded a span")
	}
}
