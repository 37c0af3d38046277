package cache

import (
	"testing"

	"duplexity/internal/stats"
)

// refTLB is the reference TLB model: a linear scan for hits and for the
// victim (first invalid entry, else smallest LRU stamp). TLB must
// reproduce its hits, misses and entry placement exactly.
type refTLB struct {
	entries          []refTLBEntry
	clock            uint64
	Accesses, Misses uint64
}

type refTLBEntry struct {
	vpn   uint64
	valid bool
	lru   uint64
}

func newRefTLB(n int) *refTLB { return &refTLB{entries: make([]refTLBEntry, n)} }

func (t *refTLB) Lookup(addr uint64) bool {
	vpn := addr / PageBytes
	t.clock++
	t.Accesses++
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn {
			e.lru = t.clock
			return true
		}
	}
	victim := 0
	for i := 1; i < len(t.entries); i++ {
		if !t.entries[victim].valid {
			break
		}
		e := &t.entries[i]
		if !e.valid || e.lru < t.entries[victim].lru {
			victim = i
		}
	}
	t.Misses++
	t.entries[victim] = refTLBEntry{vpn: vpn, valid: true, lru: t.clock}
	return false
}

func (t *refTLB) Flush() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
}

// refCache is the reference cache model: sets as a slice of slices, a
// linear way scan for hits, and the first invalid way else the smallest
// LRU stamp as the victim.
type refCache struct {
	cfg      Config
	sets     [][]line
	setMask  uint64
	setBits  uint
	lineBits uint
	lruClock uint64
	OnEvict  func(lineAddr uint64)
	Stats    Stats
}

func newRefCache(cfg Config) *refCache {
	lines := cfg.SizeBytes / cfg.LineBytes
	nsets := lines / cfg.Ways
	c := &refCache{cfg: cfg, setMask: uint64(nsets - 1)}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	for m := c.setMask; m > 0; m >>= 1 {
		c.setBits++
	}
	c.sets = make([][]line, nsets)
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	return c
}

func (c *refCache) index(addr uint64) (set, tag uint64) {
	l := addr >> c.lineBits
	return l & c.setMask, l >> c.setBits
}

func (c *refCache) Access(addr uint64, write bool, owner Owner) bool {
	set, tag := c.index(addr)
	c.lruClock++
	c.Stats.Accesses[owner]++
	ways := c.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.lruClock
			if write && !c.cfg.WriteThrough {
				ways[i].dirty = true
			}
			return true
		}
	}
	c.Stats.Misses[owner]++
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			goto fill
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	if ways[victim].valid {
		c.Stats.Evictions++
		if ways[victim].owner != owner && ways[victim].owner != OwnerNone {
			c.Stats.CrossEvictions++
		}
		if ways[victim].dirty {
			c.Stats.Writebacks++
		}
		if c.OnEvict != nil {
			c.OnEvict(((ways[victim].tag << c.setBits) | set) << c.lineBits)
		}
	}
fill:
	ways[victim] = line{tag: tag, valid: true, owner: owner, lru: c.lruClock,
		dirty: write && !c.cfg.WriteThrough}
	return false
}

func (c *refCache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for _, l := range c.sets[set] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Invalidate(addr uint64) {
	set, tag := c.index(addr)
	for i, l := range c.sets[set] {
		if l.valid && l.tag == tag {
			c.sets[set][i].valid = false
			c.Stats.Invalidations++
			return
		}
	}
}

func (c *refCache) InvalidateAll() {
	for _, ways := range c.sets {
		for w := range ways {
			if ways[w].valid {
				ways[w].valid = false
				c.Stats.Invalidations++
			}
		}
	}
}

// tlbSlots lists the VPN held by each TLB entry, or -1 where invalid.
func tlbSlots(t *TLB) []int64 {
	out := make([]int64, len(t.entries))
	for i := range out {
		out[i] = -1
		if i < t.filled {
			out[i] = int64(t.entries[i].vpn)
		}
	}
	return out
}

func refTLBSlots(t *refTLB) []int64 {
	out := make([]int64, len(t.entries))
	for i, e := range t.entries {
		out[i] = -1
		if e.valid {
			out[i] = int64(e.vpn)
		}
	}
	return out
}

// randomOps returns n pseudo-random op bytes for the fuzz seed corpora.
func randomOps(seed uint64, n int) []byte {
	r := stats.NewRNG(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}

// FuzzTLBMatchesReference drives TLB and refTLB with one op stream. The
// first byte picks the size (1-80 entries). Each op is one byte: 0xff
// flushes; otherwise its low 6 bits pick one of 64 pages and its top
// two bits one of four address regions far apart, so a 64-entry TLB
// sees hits, capacity misses and index-bucket collisions. After every
// op the hit result, the counters and the page held by each entry
// (which shows every victim choice) must agree.
func FuzzTLBMatchesReference(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 2, 3, 4, 0, 0xff, 4, 4})
	f.Add([]byte{1, 0, 0, 1, 1, 0})
	f.Add(append([]byte{64}, randomOps(1, 4000)...))
	f.Add(append([]byte{63}, randomOps(2, 4000)...))
	f.Add(append([]byte{16}, randomOps(3, 1000)...))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		n := 1 + int(ops[0])%80
		got, want := NewTLB(n), newRefTLB(n)
		for k, op := range ops[1:] {
			if op == 0xff {
				got.Flush()
				want.Flush()
			} else {
				addr := uint64(op&63)*PageBytes + uint64(op>>6)<<44 + uint64(k)%PageBytes
				if g, w := got.Lookup(addr), want.Lookup(addr); g != w {
					t.Fatalf("op %d: Lookup(%#x) = %v, reference %v", k, addr, g, w)
				}
			}
			if got.Accesses != want.Accesses || got.Misses != want.Misses {
				t.Fatalf("op %d: accesses/misses %d/%d, reference %d/%d",
					k, got.Accesses, got.Misses, want.Accesses, want.Misses)
			}
			gs, ws := tlbSlots(got), refTLBSlots(want)
			for i := range gs {
				if gs[i] != ws[i] {
					t.Fatalf("op %d: entry %d holds page %d, reference %d", k, i, gs[i], ws[i])
				}
			}
		}
	})
}

// FuzzCacheMatchesReference drives Cache and refCache with one op
// stream. The first byte picks the geometry (1-8 ways, 1-16 sets) and
// write-through. Each op is three bytes: an op code (access by one of
// the three owners, read or write; contains; invalidate; invalidate
// all) and a line: one of 64 low lines in one of eight regions far
// apart, so small caches see hits, conflict evictions and cross-owner
// pollution. After every op the results, every OnEvict
// address, the stats, the occupancy and every line's tag, state, owner
// and LRU stamp must agree.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0x11, 0, 0, 0, 0, 0, 4, 0, 0, 8, 8, 0, 0})
	f.Add([]byte{0x00, 1, 0, 0, 1, 0, 0})
	f.Add(append([]byte{0x13}, randomOps(4, 6000)...))
	f.Add(append([]byte{0x37}, randomOps(5, 6000)...))
	f.Add(append([]byte{0x84}, randomOps(6, 3000)...))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		geo := ops[0]
		ways := 1 << (geo & 3)
		sets := [4]int{1, 2, 4, 16}[(geo>>2)&3]
		cfg := Config{Name: "fuzz", SizeBytes: 64 * ways * sets, LineBytes: 64, Ways: ways,
			HitLatency: 1, WriteThrough: geo&0x80 != 0}
		got, want := MustNew(cfg), newRefCache(cfg)
		var gotEv, wantEv []uint64
		got.OnEvict = func(a uint64) { gotEv = append(gotEv, a) }
		want.OnEvict = func(a uint64) { wantEv = append(wantEv, a) }
		ops = ops[1:]
		for k := 0; len(ops) >= 3; k, ops = k+1, ops[3:] {
			code := ops[0]
			addr := (uint64(ops[1]&63)|uint64(ops[2]&7)<<20)<<6 | uint64(code>>4)
			switch code & 15 {
			case 12:
				if g, w := got.Contains(addr), want.Contains(addr); g != w {
					t.Fatalf("op %d: Contains(%#x) = %v, reference %v", k, addr, g, w)
				}
			case 13, 14:
				got.Invalidate(addr)
				want.Invalidate(addr)
			case 15:
				got.InvalidateAll()
				want.InvalidateAll()
			default:
				owner, write := Owner(code&3%3), code&4 != 0
				if g, w := got.Access(addr, write, owner), want.Access(addr, write, owner); g != w {
					t.Fatalf("op %d: Access(%#x, %v, %v) = %v, reference %v", k, addr, write, owner, g, w)
				}
			}
			if len(gotEv) != len(wantEv) {
				t.Fatalf("op %d: %d evictions reported, reference %d", k, len(gotEv), len(wantEv))
			}
			for i := range gotEv {
				if gotEv[i] != wantEv[i] {
					t.Fatalf("op %d: eviction %d of line %#x, reference %#x", k, i, gotEv[i], wantEv[i])
				}
			}
			if got.Stats != want.Stats {
				t.Fatalf("op %d: stats %+v, reference %+v", k, got.Stats, want.Stats)
			}
			for s := range want.sets {
				for w, wl := range want.sets[s] {
					if gl := got.lines[s*ways+w]; gl != wl {
						t.Fatalf("op %d: set %d way %d is %+v, reference %+v", k, s, w, gl, wl)
					}
				}
			}
		}
		for _, o := range []Owner{OwnerNone, OwnerMaster, OwnerFiller} {
			var mine int
			for _, ws := range want.sets {
				for _, l := range ws {
					if l.valid && l.owner == o {
						mine++
					}
				}
			}
			if g, w := got.OccupancyBy(o), float64(mine)/float64(ways*sets); g != w {
				t.Fatalf("OccupancyBy(%v) = %v, reference %v", o, g, w)
			}
		}
	})
}
