package memsys

import (
	"testing"

	"duplexity/internal/cache"
	"duplexity/internal/stats"
)

// refPrefetch is the reference stream prefetcher: per tracker, two
// comparisons for a confirmed stream (the expected line, or one line
// past it) and one for a re-access of the current line, tried in that
// order. Port.prefetch must reproduce its tracker state and fills.
func refPrefetch(p *Port, addr uint64) {
	line := addr >> 6
	for i := range p.streams {
		if line == p.streams[i] || line == p.streams[i]+1 {
			p.streams[i] = line + 1
			for d := uint64(1); d <= 2; d++ {
				next := (line + d) << 6
				if !p.L1.Contains(next) {
					p.L1.Access(next, false, p.Owner)
					p.Shared.LLC.Access(next, false, p.Owner)
				}
			}
			return
		}
		if line+1 == p.streams[i] {
			return
		}
	}
	p.streams[p.streamPtr] = line + 1
	p.streamPtr = (p.streamPtr + 1) % len(p.streams)
}

// prefetchAddrs mixes what the trackers see: interleaved sequential
// streams that re-access, step and skip a line, random jumps, and the
// lowest lines, where the zeroed trackers of a fresh port match.
func prefetchAddrs(seed uint64, n int) []uint64 {
	r := stats.NewRNG(seed)
	heads := make([]uint64, 24)
	for i := range heads {
		heads[i] = uint64(r.Intn(1<<20)) << 6
	}
	out := make([]uint64, n)
	for i := range out {
		switch k := r.Intn(100); {
		case k < 70:
			h := r.Intn(len(heads))
			heads[h] += uint64(r.Intn(3)) << 6
			out[i] = heads[h] + uint64(r.Intn(64))
		case k < 95:
			out[i] = r.Uint64() >> 6
		default:
			out[i] = uint64(r.Intn(256))
		}
	}
	return out
}

func TestPrefetchMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		_, got := LocalPorts(NewTableICoreMem("got"), NewTableIShared("got", 3.4), cache.OwnerMaster)
		_, want := LocalPorts(NewTableICoreMem("ref"), NewTableIShared("ref", 3.4), cache.OwnerMaster)
		for k, addr := range prefetchAddrs(seed, 200_000) {
			got.prefetch(addr)
			refPrefetch(want, addr)
			got.L1.Access(addr, false, got.Owner)
			want.L1.Access(addr, false, want.Owner)
			if got.streams != want.streams || got.streamPtr != want.streamPtr {
				t.Fatalf("seed %d access %d (%#x): trackers %v@%d, reference %v@%d",
					seed, k, addr, got.streams, got.streamPtr, want.streams, want.streamPtr)
			}
			if got.L1.Stats != want.L1.Stats || got.Shared.LLC.Stats != want.Shared.LLC.Stats {
				t.Fatalf("seed %d access %d (%#x): L1 %+v LLC %+v, reference L1 %+v LLC %+v",
					seed, k, addr, got.L1.Stats, got.Shared.LLC.Stats, want.L1.Stats, want.Shared.LLC.Stats)
			}
		}
	}
}

var sinkLat int

// BenchmarkPortAccess measures one data access through a Table I local
// port (TLB, L1 with stream prefetch, miss path, LLC): random over a
// 64MB footprint, where the TLB and caches mostly miss, and sequential
// 8-byte strides, where the prefetcher and the MRU TLB entry answer.
func BenchmarkPortAccess(b *testing.B) {
	b.Run("random", func(b *testing.B) {
		_, p := LocalPorts(NewTableICoreMem("b"), NewTableIShared("b", 3.4), cache.OwnerMaster)
		r := stats.NewRNG(1)
		addrs := make([]uint64, 1<<12)
		for i := range addrs {
			addrs[i] = uint64(r.Intn(64<<20)) &^ 7
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkLat = p.Access(uint64(i), addrs[i&(len(addrs)-1)], false)
		}
	})
	b.Run("sequential", func(b *testing.B) {
		_, p := LocalPorts(NewTableICoreMem("b"), NewTableIShared("b", 3.4), cache.OwnerMaster)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkLat = p.Access(uint64(i), uint64(i)*8, false)
		}
	})
}
