// Package bufferpool implements a clock-sweep page cache: the largest
// performance memory consumer (PMC) in the memory set and the lock memory's
// main counterpart in STMM trade-offs.
//
// The pool caches 4 KB data pages identified by 64-bit page numbers. It
// reports a marginal-benefit signal — misses per interval, normalised by
// size — that the STMM controller uses to decide which heap donates memory
// when the lock memory (a functional consumer) must grow, and which heap
// receives memory freed by δreduce shrinking.
//
// A large pool is striped: each page belongs to one stripe, chosen by low
// bits of its hash, and each stripe is a clock-sweep cache of its own with
// its own mutex, frames, index, hand and counters, so concurrent accesses
// to different stripes never share a lock or a written cache line. The
// stripe count is fixed at New; a pool too small for stripes of
// minStripePages pages has one stripe and keeps a single clock order.
package bufferpool

import (
	"runtime"
	"sync"

	"repro/internal/flathash"
)

// frame is one cached page.
type frame struct {
	page uint64
	ref  bool
	used bool
}

// Striping bounds: New picks up to stripesPerProc stripes per GOMAXPROCS,
// a power of two, and only as many as leave every stripe at least
// minStripePages pages.
const (
	stripesPerProc = 4
	minStripePages = 2 * 1024
)

// stripe is one clock-sweep cache: the pages whose hash selects it.
type stripe struct {
	mu     sync.Mutex
	frames []frame
	// index maps a page to its frame: 4-byte positions (stored off by one;
	// zero is the table's empty slot) compared through frames[pos].page,
	// sized for every frame of the stripe at New and Resize so an access
	// never grows it.
	index flathash.Table[uint32]
	hand  int

	hits, misses      int64
	intervalMisses    int64
	intervalEvictions int64
	totalEvictions    int64

	_ [64]byte // keeps neighbouring stripes' written fields off one cache line
}

// Pool is a clock-sweep buffer pool. It is safe for concurrent use.
type Pool struct {
	stripes []stripe
	mask    uint64 // len(stripes)-1

	// sizeMu serialises Resize, so the stripes always split one size;
	// pages is that size.
	sizeMu sync.Mutex
	pages  int
}

// New creates a pool holding up to `pages` pages.
func New(pages int) *Pool {
	if pages < 0 {
		pages = 0
	}
	n := 1
	for n*2 <= stripesPerProc*runtime.GOMAXPROCS(0) && pages/(n*2) >= minStripePages {
		n *= 2
	}
	p := &Pool{stripes: make([]stripe, n), mask: uint64(n - 1)}
	p.resize(pages)
	return p
}

// pageHash spreads page numbers over the index. The multiplier is odd, so
// distinct pages never share a hash, and the table reads the top bits,
// where consecutive pages land far apart. The stripe is chosen by the low
// bits, which the table does not read.
func pageHash(page uint64) uint64 { return page * 0x9E3779B97F4A7C15 }

// share is stripe i's part of a pool of pages pages: an even split, the
// first pages%n stripes taking one page more.
func (p *Pool) share(i, pages int) int {
	n := len(p.stripes)
	if i < pages%n {
		return pages/n + 1
	}
	return pages / n
}

// lookup returns the position of the frame caching page.
func (s *stripe) lookup(hash, page uint64) (int, bool) {
	v, ok := s.index.Find(hash, func(v uint32) bool { return s.frames[v-1].page == page })
	return int(v) - 1, ok
}

// unindex removes the used frame at pos from the index.
func (s *stripe) unindex(pos int) {
	s.index.Delete(pageHash(s.frames[pos].page), uint32(pos)+1)
}

// Pages returns the pool capacity in pages.
func (p *Pool) Pages() int {
	p.sizeMu.Lock()
	defer p.sizeMu.Unlock()
	return p.pages
}

// Access touches a page, returning true on a cache hit. On a miss the page
// is brought in, evicting via its stripe's clock sweep if the stripe is
// full. A zero-sized pool always misses.
func (p *Pool) Access(page uint64) bool {
	h := pageHash(page)
	s := &p.stripes[h&p.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if pos, ok := s.lookup(h, page); ok {
		// Set the bit only when clear: a hit on a hot page then writes no
		// frame line that the other cores read.
		if f := &s.frames[pos]; !f.ref {
			f.ref = true
		}
		s.hits++
		return true
	}
	s.misses++
	s.intervalMisses++
	if len(s.frames) == 0 {
		return false
	}
	pos := s.evictLocked()
	if s.frames[pos].used {
		s.unindex(pos)
		s.totalEvictions++
		s.intervalEvictions++
	}
	// New pages enter with the reference bit clear: only a re-reference
	// earns a second chance, otherwise a full sweep degenerates to FIFO
	// and hot pages get no protection.
	s.frames[pos] = frame{page: page, used: true}
	s.index.Insert(h, uint32(pos)+1)
	return false
}

// evictLocked runs the clock hand to a victim frame (or a free one).
func (s *stripe) evictLocked() int {
	for {
		f := &s.frames[s.hand]
		pos := s.hand
		s.hand = (s.hand + 1) % len(s.frames)
		if !f.used {
			return pos
		}
		if f.ref {
			f.ref = false
			continue
		}
		return pos
	}
}

// Resize changes the pool capacity, split evenly across the stripes (so a
// pool shrunk below its stripe count has stripes that always miss).
// Shrinking evicts each stripe's frames beyond its new share; growing adds
// empty frames. Contents within each stripe's surviving prefix are
// preserved.
func (p *Pool) Resize(pages int) {
	if pages < 0 {
		pages = 0
	}
	p.sizeMu.Lock()
	defer p.sizeMu.Unlock()
	p.resize(pages)
}

// resize does the work. Caller holds sizeMu, or owns the pool (New).
func (p *Pool) resize(pages int) {
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		s.resizeLocked(p.share(i, pages))
		s.mu.Unlock()
	}
	p.pages = pages
}

// resizeLocked sets the stripe's frame count. Caller holds s.mu.
func (s *stripe) resizeLocked(pages int) {
	cur := len(s.frames)
	switch {
	case pages < cur:
		for i := pages; i < cur; i++ {
			if s.frames[i].used {
				s.unindex(i)
				s.totalEvictions++
				s.intervalEvictions++
			}
		}
		s.frames = s.frames[:pages]
		if s.hand >= pages {
			s.hand = 0
		}
	case pages > cur:
		grown := make([]frame, pages)
		copy(grown, s.frames)
		s.frames = grown
		s.index.Reserve(pages)
	}
}

// totals is the stripes' frames and counters, summed.
type totals struct {
	frames                                          int
	hits, misses, intervalMisses, intervalEvictions int64
	totalEvictions                                  int64
}

// sum reads each stripe under its own mutex, so the sum is exact for a
// quiescent pool and fuzzy under traffic.
func (p *Pool) sum() totals {
	var t totals
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		t.frames += len(s.frames)
		t.hits += s.hits
		t.misses += s.misses
		t.intervalMisses += s.intervalMisses
		t.intervalEvictions += s.intervalEvictions
		t.totalEvictions += s.totalEvictions
		s.mu.Unlock()
	}
	return t
}

// HitRatio returns the lifetime hit ratio, or 0 with no accesses.
func (p *Pool) HitRatio() float64 {
	t := p.sum()
	total := t.hits + t.misses
	if total == 0 {
		return 0
	}
	return float64(t.hits) / float64(total)
}

// Stats returns lifetime hits, misses and evictions.
func (p *Pool) Stats() (hits, misses, evictions int64) {
	t := p.sum()
	return t.hits, t.misses, t.totalEvictions
}

// Benefit estimates the marginal value of additional pages for the current
// interval: misses that evicted live pages suggest the working set exceeds
// the pool. The value is interval evictions per 1000 pages of capacity, so
// a small, thrashing pool outranks a large, comfortable one.
func (p *Pool) Benefit() float64 {
	t := p.sum()
	if t.frames == 0 {
		return float64(t.intervalMisses)
	}
	return float64(t.intervalEvictions) * 1000 / float64(t.frames)
}

// ResetInterval clears the per-interval counters; the STMM controller calls
// it after each tuning pass.
func (p *Pool) ResetInterval() {
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		s.intervalMisses, s.intervalEvictions = 0, 0
		s.mu.Unlock()
	}
}

// Name identifies the consumer in STMM reports.
func (p *Pool) Name() string { return "bufferpool" }

// ApplySize lets the STMM controller resize the pool after moving heap
// pages; it simply forwards to Resize.
func (p *Pool) ApplySize(pages int) { p.Resize(pages) }
