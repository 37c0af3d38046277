package graphwl

import (
	"math"
	"testing"

	"duplexity/internal/isa"
)

func testGraph() *Graph { return MustGenPowerLaw(2000, 8, 0.5, 42) }

func TestGenPowerLawValidation(t *testing.T) {
	if _, err := GenPowerLaw(1, 4, 0.5, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := GenPowerLaw(100, 0, 0.5, 1); err == nil {
		t.Fatal("deg=0 accepted")
	}
	if _, err := GenPowerLaw(100, 4, 1.5, 1); err == nil {
		t.Fatal("pLocal>1 accepted")
	}
}

func TestGraphShape(t *testing.T) {
	g := testGraph()
	if g.N != 2000 {
		t.Fatalf("n=%d", g.N)
	}
	avg := float64(g.Edges()) / float64(g.N)
	if avg < 4 || avg > 14 {
		t.Fatalf("average degree %v, want ~8", avg)
	}
	// All edges in range; vertex ids valid.
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			if u < 0 || int(u) >= g.N {
				t.Fatalf("edge to invalid vertex %d", u)
			}
		}
	}
	// Heavy tail: max out-degree well above average.
	outDeg := g.OutDegrees()
	maxDeg := int32(0)
	for _, d := range outDeg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	if float64(maxDeg) < 6*avg {
		t.Fatalf("max out-degree %d not heavy-tailed (avg %v)", maxDeg, avg)
	}
}

func TestPageRankRefProperties(t *testing.T) {
	g := testGraph()
	rank := PageRankRef(g, 0.85, 30)
	sum := 0.0
	for _, r := range rank {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	// Rank mass is approximately conserved (dangling mass leaks a bit in
	// this formulation; accept a wide band around 1).
	if sum < 0.5 || sum > 1.5 {
		t.Fatalf("rank mass = %v", sum)
	}
}

func TestSSSPRefProperties(t *testing.T) {
	g := testGraph()
	dist := SSSPRef(g, 0, 50)
	if dist[0] != 0 {
		t.Fatal("source distance not zero")
	}
	// Triangle inequality over the relaxation edges.
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			if dist[u] < 1<<29 && dist[v] > dist[u]+1 {
				t.Fatalf("unrelaxed edge %d->%d: %d > %d+1", u, v, dist[v], dist[u])
			}
		}
	}
}

// drive steps all worker streams round-robin until the job completes
// whole runs or the step budget is exhausted.
func drive(t *testing.T, j *Job, steps int) {
	t.Helper()
	streams := j.Streams()
	for i := 0; i < steps && j.Runs == 0; i++ {
		for _, s := range streams {
			if _, ok := s.Next(0); !ok {
				t.Fatal("BSP worker went idle")
			}
		}
	}
}

// The BSP instruction-stream execution must compute the same PageRank as
// the serial reference.
func TestBSPPageRankMatchesReference(t *testing.T) {
	g := MustGenPowerLaw(500, 6, 0.5, 7)
	iters := 5
	j := MustNewJob(JobConfig{Graph: g, Kernel: KernelPageRank, Workers: 4,
		ItersPerRun: iters, Seed: 3})
	ref := PageRankRef(g, 0.85, iters)

	// Drive until just before the run completes, capturing the final
	// vector right at the last swap: run to completion and compare on the
	// freshly re-initialized job is too late, so check at superstep
	// iters-1 -> advance. Simpler: set ItersPerRun high and compare at
	// superstep == iters.
	j2 := MustNewJob(JobConfig{Graph: g, Kernel: KernelPageRank, Workers: 4,
		ItersPerRun: 1000, Seed: 3})
	streams := j2.Streams()
	for j2.Superstep() < iters {
		for _, s := range streams {
			s.Next(0)
		}
	}
	for v := 0; v < g.N; v++ {
		if math.Abs(j2.Rank()[v]-ref[v]) > 1e-12*(1+math.Abs(ref[v]))+1e-15 {
			t.Fatalf("rank[%d] = %v, ref %v", v, j2.Rank()[v], ref[v])
		}
	}
	_ = j
}

func TestBSPSSSPMatchesReference(t *testing.T) {
	g := MustGenPowerLaw(500, 6, 0.5, 9)
	sweeps := 6
	j := MustNewJob(JobConfig{Graph: g, Kernel: KernelSSSP, Workers: 4,
		Source: 0, ItersPerRun: 1000, Seed: 5})
	streams := j.Streams()
	for j.Superstep() < sweeps {
		for _, s := range streams {
			s.Next(0)
		}
	}
	ref := SSSPRef(g, 0, sweeps)
	for v := 0; v < g.N; v++ {
		if j.Dist()[v] != ref[v] {
			t.Fatalf("dist[%d] = %d, ref %d", v, j.Dist()[v], ref[v])
		}
	}
}

func TestBSPRestartsRuns(t *testing.T) {
	g := MustGenPowerLaw(200, 4, 0.5, 11)
	j := MustNewJob(JobConfig{Graph: g, Kernel: KernelPageRank, Workers: 2,
		ItersPerRun: 2, Seed: 1})
	drive(t, j, 1_000_000)
	if j.Runs == 0 {
		t.Fatal("job never completed a run")
	}
}

func TestBSPRemoteStructure(t *testing.T) {
	g := MustGenPowerLaw(2000, 8, 0.5, 13)
	j := MustNewJob(JobConfig{Graph: g, Kernel: KernelPageRank, Workers: 8,
		ItersPerRun: 1000, Seed: 2})
	streams := j.Streams()
	instrs, remotes := 0, 0
	var stallNs float64
	for j.Superstep() < 3 {
		for _, s := range streams {
			in, _ := s.Next(0)
			instrs++
			if in.Op == isa.OpRemote {
				remotes++
				stallNs += in.RemoteNs
				if in.RemoteNs <= 0 {
					t.Fatal("remote without latency")
				}
			}
		}
	}
	if remotes == 0 {
		t.Fatal("no RDMA reads emitted")
	}
	if j.RemoteReads != uint64(remotes) {
		t.Fatalf("job counted %d remote reads, stream saw %d", j.RemoteReads, remotes)
	}
	// Paper profile: ~1µs stall per 1-2µs of compute per thread. At InO
	// thread IPC ~0.3 (3.25GHz), 1.5µs is ~1500 instructions. Accept a
	// generous band: one remote per 500-6000 instructions.
	gap := float64(instrs) / float64(remotes)
	if gap < 500 || gap > 6000 {
		t.Fatalf("remote every %v instrs, outside plausible filler profile", gap)
	}
	if mean := stallNs / float64(remotes); mean < 500 || mean > 2000 {
		t.Fatalf("mean RDMA latency %v ns, want ~1000", mean)
	}
}

func TestNewFillerSet(t *testing.T) {
	g := MustGenPowerLaw(1000, 6, 0.5, 17)
	streams, pr, ss, err := NewFillerSet(g, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 32 {
		t.Fatalf("got %d streams", len(streams))
	}
	if pr == nil || ss == nil {
		t.Fatal("missing jobs")
	}
	if _, _, _, err := NewFillerSet(g, 1, 3); err == nil {
		t.Fatal("single worker accepted")
	}
	// All streams produce instructions.
	for i, s := range streams {
		if _, ok := s.Next(0); !ok {
			t.Fatalf("stream %d idle", i)
		}
	}
}

func TestJobValidation(t *testing.T) {
	g := testGraph()
	if _, err := NewJob(JobConfig{Kernel: KernelPageRank, Workers: 2}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewJob(JobConfig{Graph: g, Workers: 0}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := NewJob(JobConfig{Graph: g, Workers: 2, Source: -1}); err == nil {
		t.Fatal("bad source accepted")
	}
	if KernelPageRank.String() != "pagerank" || KernelSSSP.String() != "sssp" {
		t.Fatal("kernel names wrong")
	}
}

// fillerSet builds a small PageRank+SSSP filler set and drives it
// round-robin until both jobs have completed a run, so every worker's
// instruction queue has reached the largest size the graph needs.
func fillerSet(tb testing.TB) ([]isa.Stream, *Job, *Job) {
	tb.Helper()
	streams, pr, ss, err := NewFillerSet(MustGenPowerLaw(400, 6, 0.5, 19), 8, 5)
	if err != nil {
		tb.Fatal(err)
	}
	for pr.Runs == 0 || ss.Runs == 0 {
		for _, s := range streams {
			s.Next(0)
		}
	}
	return streams, pr, ss
}

// Steady-state instruction generation allocates nothing, including at
// superstep boundaries, where each worker forgets the remote lines it
// fetched.
func TestBSPWorkerZeroAlloc(t *testing.T) {
	streams, pr, ss := fillerSet(t)
	prSteps, ssSteps := pr.Superstep(), ss.Superstep()
	crossed := 0
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 2000; i++ {
			for _, s := range streams {
				s.Next(0)
			}
		}
		if pr.Superstep() != prSteps && ss.Superstep() != ssSteps {
			crossed++
		}
		prSteps, ssSteps = pr.Superstep(), ss.Superstep()
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per 2000 rounds of Next", allocs)
	}
	if crossed == 0 {
		t.Fatal("no measured round crossed a superstep boundary in both jobs")
	}
}

var sinkInstr isa.Instr

// BenchmarkBSPWorkerNext measures one filler instruction from a warm
// PageRank+SSSP filler set, the workers taken round-robin as the lender
// core's scheduler would.
func BenchmarkBSPWorkerNext(b *testing.B) {
	streams, _, _ := fillerSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInstr, _ = streams[i&7].Next(0)
	}
}
