package core

import (
	"testing"

	"duplexity/internal/workload"
)

func benchDyad(tb testing.TB, design Design, mode ExecMode) *Dyad {
	tb.Helper()
	gen := masterGen(1, true)
	master, err := workload.NewRequestStream(gen, 100_000, design.FreqGHz(), 7)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := NewDyad(Config{
		Design:       design,
		MasterStream: master,
		BatchStreams: batchStreams(32, 100),
	})
	if err != nil {
		tb.Fatal(err)
	}
	d.Exec = mode
	return d
}

// BenchmarkDyadStep measures the full dyad's cycle-by-cycle cost —
// master OoO engine, morph controller, lender scheduler, and workload
// admission — under moderate load. Steady state must not allocate.
func BenchmarkDyadStep(b *testing.B) {
	for _, design := range []Design{DesignBaseline, DesignDuplexity} {
		b.Run(design.String(), func(b *testing.B) {
			d := benchDyad(b, design, ExecStepped)
			for i := 0; i < 200_000; i++ {
				d.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Step()
			}
		})
	}
}

// BenchmarkDyadRun measures simulated cycles per wall second through the
// Run path in both execution modes; the step-to-event ratio is the
// discrete-event speedup on this (moderate-load) workload. Steady state
// must not allocate in either mode.
func BenchmarkDyadRun(b *testing.B) {
	for _, mode := range []ExecMode{ExecStepped, ExecEvent} {
		b.Run(mode.String(), func(b *testing.B) {
			d := benchDyad(b, DesignDuplexity, mode)
			d.Run(200_000)
			b.ReportAllocs()
			b.ResetTimer()
			d.Run(uint64(b.N))
		})
	}
}

// TestDyadStepZeroAlloc pins the zero-allocation property of the whole
// simulation hot loop: a warmed dyad must step without allocating.
// (Request latency recording appends to a pre-sized reservoir; at this
// load the steady-state window sees amortized-zero growth.)
func TestDyadStepZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle warmup; skipped with -short")
	}
	for _, design := range []Design{DesignBaseline, DesignDuplexity} {
		d := benchDyad(t, design, ExecStepped)
		for i := 0; i < 2_000_000; i++ {
			d.Step()
		}
		if n := testing.AllocsPerRun(20_000, func() { d.Step() }); n != 0 {
			t.Fatalf("%v: Dyad.Step allocates %.4f objects/cycle in steady state, want 0", design, n)
		}
	}
}

// TestDyadEventRunZeroAlloc pins the same property for the event
// engine's run loop: after the engine is built (first Run), further runs
// — heap maintenance, lazy span charging, pool invalidation included —
// must not allocate.
func TestDyadEventRunZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle warmup; skipped with -short")
	}
	for _, design := range []Design{DesignBaseline, DesignDuplexity} {
		d := benchDyad(t, design, ExecEvent)
		d.Run(2_000_000)
		if n := testing.AllocsPerRun(100, func() { d.Run(1_000) }); n != 0 {
			t.Fatalf("%v: event-mode Run allocates %.4f objects/call in steady state, want 0", design, n)
		}
	}
}
