package cache

import "fmt"

// PageBytes is the simulated page size (4KB x86 pages).
const PageBytes = 4096

// TLB is a fully-associative, LRU translation lookaside buffer.
// Table I provisions 64-entry I/D TLBs; Duplexity replicates a full-size
// TLB for the filler-thread mode so fillers never disturb master-thread
// translations.
//
// Lookups and victim choice are O(1). A hashed VPN index finds the entry
// holding a page (a page is never held twice: it is filled only on a
// miss). A recency list threaded through the entries yields the LRU
// victim. The victim is the one a full scan for "the first invalid
// entry, else the smallest LRU stamp" would pick: an entry is only ever
// filled at the first invalid slot and Flush invalidates every entry, so
// the valid entries are always the prefix entries[:filled], and every
// Lookup stamps exactly one entry, so stamps are unique and the
// smallest one belongs to the list's least-recent end.
type TLB struct {
	entries []tlbEntry
	filled  int
	// mru and lru are the ends of the recency list (-1 when empty).
	mru, lru int32
	// buckets heads the VPN index chains (-1 when empty); shift reduces
	// a multiplicative hash of the VPN to a bucket.
	buckets []int32
	shift   uint

	Accesses uint64
	Misses   uint64
}

type tlbEntry struct {
	vpn uint64
	// newer and older link the recency list; chain links the entry's
	// index bucket (-1 ends each).
	newer, older, chain int32
}

// NewTLB builds a TLB with n entries.
func NewTLB(n int) *TLB {
	if n <= 0 {
		panic(fmt.Sprintf("cache: TLB size %d must be positive", n))
	}
	// At least four buckets per entry keeps chains at about one link.
	bits := uint(2)
	for 1<<bits < 4*n {
		bits++
	}
	t := &TLB{entries: make([]tlbEntry, n), buckets: make([]int32, 1<<bits), shift: 64 - bits}
	t.Flush()
	return t
}

func (t *TLB) bucket(vpn uint64) *int32 {
	return &t.buckets[(vpn*0x9e3779b97f4a7c15)>>t.shift]
}

// Lookup translates addr, filling on miss, and reports whether it hit.
func (t *TLB) Lookup(addr uint64) bool {
	vpn := addr / PageBytes
	t.Accesses++
	if t.mru >= 0 && t.entries[t.mru].vpn == vpn {
		return true // consecutive accesses to one page: already MRU
	}
	b := t.bucket(vpn)
	for i := *b; i >= 0; i = t.entries[i].chain {
		if t.entries[i].vpn == vpn {
			t.unlink(i)
			t.pushMRU(i)
			return true
		}
	}
	t.Misses++
	var v int32
	if t.filled < len(t.entries) {
		v = int32(t.filled)
		t.filled++
	} else {
		v = t.lru
		t.unlink(v)
		t.unindex(v)
	}
	e := &t.entries[v]
	e.vpn = vpn
	e.chain = *b
	*b = v
	t.pushMRU(v)
	return false
}

// unlink removes entry i from the recency list.
func (t *TLB) unlink(i int32) {
	e := &t.entries[i]
	if e.newer >= 0 {
		t.entries[e.newer].older = e.older
	} else {
		t.mru = e.older
	}
	if e.older >= 0 {
		t.entries[e.older].newer = e.newer
	} else {
		t.lru = e.newer
	}
}

// pushMRU makes entry i the most recently used.
func (t *TLB) pushMRU(i int32) {
	e := &t.entries[i]
	e.newer, e.older = -1, t.mru
	if t.mru >= 0 {
		t.entries[t.mru].newer = i
	} else {
		t.lru = i
	}
	t.mru = i
}

// unindex removes entry i from its VPN index chain.
func (t *TLB) unindex(i int32) {
	p := t.bucket(t.entries[i].vpn)
	for *p != i {
		p = &t.entries[*p].chain
	}
	*p = t.entries[i].chain
}

// Flush invalidates all translations (context switch without ASIDs).
func (t *TLB) Flush() {
	t.filled = 0
	t.mru, t.lru = -1, -1
	for i := range t.buckets {
		t.buckets[i] = -1
	}
}

// MissRate returns misses per access.
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}

// Size returns the number of entries.
func (t *TLB) Size() int { return len(t.entries) }

// StorageBits returns TLB state size for the area model (VPN ~36 bits,
// PPN ~36 bits, flags).
func (t *TLB) StorageBits() int { return len(t.entries) * 76 }
