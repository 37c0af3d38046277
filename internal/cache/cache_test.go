package cache

import (
	"testing"
	"testing/quick"

	"duplexity/internal/stats"
)

func l1Cfg() Config {
	return Config{Name: "L1D", SizeBytes: 64 * 1024, LineBytes: 64, Ways: 2, HitLatency: 3}
}

func tinyCfg() Config {
	// 4 sets x 2 ways x 64B lines = 512B: easy to reason about.
	return Config{Name: "tiny", SizeBytes: 512, LineBytes: 64, Ways: 2, HitLatency: 1}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "a", SizeBytes: 0, LineBytes: 64, Ways: 2},
		{Name: "b", SizeBytes: 1024, LineBytes: 48, Ways: 2},
		{Name: "c", SizeBytes: 1000, LineBytes: 64, Ways: 2},
		{Name: "d", SizeBytes: 1024, LineBytes: 64, Ways: 5},
		{Name: "e", SizeBytes: 64 * 3, LineBytes: 64, Ways: 1}, // 3 sets
		{Name: "f", SizeBytes: 1024, LineBytes: 64, Ways: 2, HitLatency: -1},
	}
	for _, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("config %q accepted: %+v", c.Name, c)
		}
	}
	if _, err := New(l1Cfg()); err != nil {
		t.Fatalf("Table I L1 config rejected: %v", err)
	}
}

func TestMissThenHit(t *testing.T) {
	c := MustNew(tinyCfg())
	if c.Access(0x1000, false, OwnerMaster) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000, false, OwnerMaster) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1010, false, OwnerMaster) {
		t.Fatal("same-line access missed")
	}
	if c.Stats.TotalAccesses() != 3 || c.Stats.TotalMisses() != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(tinyCfg()) // 4 sets, 2 ways
	// Three lines mapping to set 0: addresses stride 4*64=256.
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a, false, OwnerMaster)
	c.Access(b, false, OwnerMaster)
	c.Access(a, false, OwnerMaster) // a is now MRU
	c.Access(d, false, OwnerMaster) // evicts b (LRU)
	if !c.Contains(a) {
		t.Fatal("MRU line evicted")
	}
	if c.Contains(b) {
		t.Fatal("LRU line not evicted")
	}
	if !c.Contains(d) {
		t.Fatal("new line not installed")
	}
}

func TestCrossOwnerEvictionStats(t *testing.T) {
	c := MustNew(tinyCfg())
	c.Access(0, false, OwnerMaster)
	c.Access(256, false, OwnerMaster)
	// Filler fills the same set twice: evicts both master lines.
	c.Access(512, false, OwnerFiller)
	c.Access(768, false, OwnerFiller)
	if c.Stats.CrossEvictions != 2 {
		t.Fatalf("cross evictions = %d, want 2", c.Stats.CrossEvictions)
	}
}

func TestOnEvictCallback(t *testing.T) {
	c := MustNew(tinyCfg())
	var evicted []uint64
	c.OnEvict = func(addr uint64) { evicted = append(evicted, addr) }
	c.Access(0, false, OwnerMaster)
	c.Access(256, false, OwnerMaster)
	c.Access(512, false, OwnerMaster) // evicts line 0
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Fatalf("evicted = %v, want [0]", evicted)
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew(tinyCfg())
	c.Access(0x40, false, OwnerMaster)
	c.Invalidate(0x40)
	if c.Contains(0x40) {
		t.Fatal("line survived invalidation")
	}
	c.Invalidate(0x9999000) // absent: no-op
	if c.Stats.Invalidations != 1 {
		t.Fatalf("invalidations = %d", c.Stats.Invalidations)
	}
}

func TestInvalidateAll(t *testing.T) {
	c := MustNew(tinyCfg())
	for i := uint64(0); i < 8; i++ {
		c.Access(i*64, false, OwnerFiller)
	}
	c.InvalidateAll()
	for i := uint64(0); i < 8; i++ {
		if c.Contains(i * 64) {
			t.Fatalf("line %d survived InvalidateAll", i)
		}
	}
}

func TestWritebackAccounting(t *testing.T) {
	c := MustNew(tinyCfg())
	c.Access(0, true, OwnerMaster) // dirty
	c.Access(256, false, OwnerMaster)
	c.Access(512, false, OwnerMaster) // evicts dirty line 0
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	wt := tinyCfg()
	wt.WriteThrough = true
	c2 := MustNew(wt)
	c2.Access(0, true, OwnerMaster)
	c2.Access(256, false, OwnerMaster)
	c2.Access(512, false, OwnerMaster)
	if c2.Stats.Writebacks != 0 {
		t.Fatal("write-through cache recorded a writeback")
	}
}

func TestOccupancyBy(t *testing.T) {
	c := MustNew(tinyCfg()) // 8 lines total
	c.Access(0, false, OwnerMaster)
	c.Access(64, false, OwnerMaster)
	c.Access(128, false, OwnerFiller)
	if got := c.OccupancyBy(OwnerMaster); got != 0.25 {
		t.Fatalf("master occupancy = %v, want 0.25", got)
	}
	if got := c.OccupancyBy(OwnerFiller); got != 0.125 {
		t.Fatalf("filler occupancy = %v, want 0.125", got)
	}
}

func TestMissRates(t *testing.T) {
	c := MustNew(l1Cfg())
	if c.Stats.MissRate() != 0 {
		t.Fatal("empty cache reports non-zero miss rate")
	}
	// Working set fits: after warmup, miss rate should be ~0.
	for round := 0; round < 4; round++ {
		for a := uint64(0); a < 32*1024; a += 64 {
			c.Access(a, false, OwnerMaster)
		}
	}
	if r := c.Stats.MissRateFor(OwnerMaster); r > 0.26 {
		t.Fatalf("fitting working set miss rate = %v", r)
	}
	// A thrashing working set (4x capacity, sequential) misses ~always.
	c2 := MustNew(l1Cfg())
	for round := 0; round < 3; round++ {
		for a := uint64(0); a < 256*1024; a += 64 {
			c2.Access(a, false, OwnerFiller)
		}
	}
	if r := c2.Stats.MissRateFor(OwnerFiller); r < 0.95 {
		t.Fatalf("thrashing miss rate = %v, want ~1", r)
	}
}

// Property: Access is deterministic in its hit result w.r.t. Contains,
// and a just-accessed address is always contained afterwards.
func TestAccessContainsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		c := MustNew(tinyCfg())
		r := stats.NewRNG(seed)
		for i := 0; i < 2000; i++ {
			addr := uint64(r.Intn(4096))
			pre := c.Contains(addr)
			hit := c.Access(addr, r.Bernoulli(0.3), OwnerMaster)
			if hit != pre {
				return false
			}
			if !c.Contains(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of valid lines never exceeds capacity, and
// eviction callbacks fire exactly when a valid line is replaced.
func TestCapacityInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		c := MustNew(tinyCfg())
		installs, evicts := 0, 0
		c.OnEvict = func(uint64) { evicts++ }
		r := stats.NewRNG(seed)
		for i := 0; i < 1000; i++ {
			if !c.Access(uint64(r.Intn(100))*64, false, OwnerMaster) {
				installs++
			}
		}
		valid := 0
		for s := uint64(0); s < 100; s++ {
			if c.Contains(s * 64) {
				valid++
			}
		}
		return valid <= 8 && installs-evicts == valid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(4)
	if tlb.Lookup(0) {
		t.Fatal("cold TLB hit")
	}
	if !tlb.Lookup(100) { // same page
		t.Fatal("same-page lookup missed")
	}
	// Fill 4 distinct pages, then a 5th evicts the LRU (page 0).
	tlb.Lookup(1 * PageBytes)
	tlb.Lookup(2 * PageBytes)
	tlb.Lookup(3 * PageBytes)
	tlb.Lookup(4 * PageBytes)
	if tlb.Lookup(0) {
		t.Fatal("LRU page not evicted")
	}
	if tlb.MissRate() == 0 {
		t.Fatal("miss rate not tracked")
	}
	tlb.Flush()
	if tlb.Lookup(4 * PageBytes) {
		t.Fatal("flush did not clear translations")
	}
}

func TestTLBLRUOrder(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Lookup(0 * PageBytes)
	tlb.Lookup(1 * PageBytes)
	tlb.Lookup(0 * PageBytes) // page 0 now MRU
	tlb.Lookup(2 * PageBytes) // evicts page 1
	if !tlb.Lookup(0 * PageBytes) {
		t.Fatal("MRU page evicted")
	}
	if tlb.Lookup(1*PageBytes) == true {
		t.Fatal("LRU page retained")
	}
}

func TestStorageBits(t *testing.T) {
	c := MustNew(l1Cfg())
	if c.StorageBits() != 1024*50 {
		t.Fatalf("cache tag storage = %d", c.StorageBits())
	}
	if NewTLB(64).StorageBits() != 64*76 {
		t.Fatal("TLB storage formula changed")
	}
}

var sinkHit bool

// BenchmarkTLBLookup measures one lookup in a Table I 64-entry TLB over
// 96 pages in random order: about a third of lookups miss and evict.
func BenchmarkTLBLookup(b *testing.B) {
	tlb := NewTLB(64)
	r := stats.NewRNG(1)
	addrs := make([]uint64, 1<<12)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(96))*PageBytes + uint64(r.Intn(PageBytes))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkHit = tlb.Lookup(addrs[i&(len(addrs)-1)])
	}
}
