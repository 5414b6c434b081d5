// Package bufferpool implements a clock-sweep page cache: the largest
// performance memory consumer (PMC) in the memory set and the lock memory's
// main counterpart in STMM trade-offs.
//
// The pool caches 4 KB data pages identified by 64-bit page numbers. It
// reports a marginal-benefit signal — misses per interval, normalised by
// size — that the STMM controller uses to decide which heap donates memory
// when the lock memory (a functional consumer) must grow, and which heap
// receives memory freed by δreduce shrinking.
package bufferpool

import (
	"sync"

	"repro/internal/flathash"
)

// frame is one cached page.
type frame struct {
	page uint64
	ref  bool
	used bool
}

// Pool is a clock-sweep buffer pool. It is safe for concurrent use.
type Pool struct {
	mu     sync.Mutex
	frames []frame
	// index maps a page to its frame: 4-byte positions (stored off by one;
	// zero is the table's empty slot) compared through frames[pos].page,
	// sized for every frame at New and Resize so an access never grows it.
	index flathash.Table[uint32]
	hand  int

	hits, misses      int64
	intervalHits      int64
	intervalMisses    int64
	intervalEvictions int64
	totalEvictions    int64
}

// New creates a pool holding up to `pages` pages.
func New(pages int) *Pool {
	if pages < 0 {
		pages = 0
	}
	p := &Pool{frames: make([]frame, pages)}
	p.index.Reserve(pages)
	return p
}

// pageHash spreads page numbers over the index. The multiplier is odd, so
// distinct pages never share a hash, and the table reads the top bits,
// where consecutive pages land far apart.
func pageHash(page uint64) uint64 { return page * 0x9E3779B97F4A7C15 }

// lookup returns the position of the frame caching page.
func (p *Pool) lookup(page uint64) (int, bool) {
	v, ok := p.index.Find(pageHash(page), func(v uint32) bool { return p.frames[v-1].page == page })
	return int(v) - 1, ok
}

// unindex removes the used frame at pos from the index.
func (p *Pool) unindex(pos int) {
	p.index.Delete(pageHash(p.frames[pos].page), uint32(pos)+1)
}

// Pages returns the pool capacity in pages.
func (p *Pool) Pages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}

// Access touches a page, returning true on a cache hit. On a miss the page
// is brought in, evicting via the clock sweep if the pool is full. A
// zero-sized pool always misses.
func (p *Pool) Access(page uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pos, ok := p.lookup(page); ok {
		p.frames[pos].ref = true
		p.hits++
		p.intervalHits++
		return true
	}
	p.misses++
	p.intervalMisses++
	if len(p.frames) == 0 {
		return false
	}
	pos := p.evictLocked()
	if p.frames[pos].used {
		p.unindex(pos)
		p.totalEvictions++
		p.intervalEvictions++
	}
	// New pages enter with the reference bit clear: only a re-reference
	// earns a second chance, otherwise a full sweep degenerates to FIFO
	// and hot pages get no protection.
	p.frames[pos] = frame{page: page, used: true}
	p.index.Insert(pageHash(page), uint32(pos)+1)
	return false
}

// evictLocked runs the clock hand to a victim frame (or a free one).
func (p *Pool) evictLocked() int {
	for {
		f := &p.frames[p.hand]
		pos := p.hand
		p.hand = (p.hand + 1) % len(p.frames)
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

// Resize changes the pool capacity. Shrinking evicts the frames beyond the
// new size; growing adds empty frames. Contents within the surviving prefix
// are preserved.
func (p *Pool) Resize(pages int) {
	if pages < 0 {
		pages = 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := len(p.frames)
	switch {
	case pages < cur:
		for i := pages; i < cur; i++ {
			if p.frames[i].used {
				p.unindex(i)
				p.totalEvictions++
				p.intervalEvictions++
			}
		}
		p.frames = p.frames[:pages]
		if p.hand >= pages {
			p.hand = 0
		}
	case pages > cur:
		grown := make([]frame, pages)
		copy(grown, p.frames)
		p.frames = grown
		p.index.Reserve(pages)
	}
}

// HitRatio returns the lifetime hit ratio, or 0 with no accesses.
func (p *Pool) HitRatio() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.hits + p.misses
	if total == 0 {
		return 0
	}
	return float64(p.hits) / float64(total)
}

// Stats returns lifetime hits, misses and evictions.
func (p *Pool) Stats() (hits, misses, evictions int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses, p.totalEvictions
}

// Benefit estimates the marginal value of additional pages for the current
// interval: misses that evicted live pages suggest the working set exceeds
// the pool. The value is interval evictions per 1000 pages of capacity, so
// a small, thrashing pool outranks a large, comfortable one.
func (p *Pool) Benefit() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.frames) == 0 {
		return float64(p.intervalMisses)
	}
	return float64(p.intervalEvictions) * 1000 / float64(len(p.frames))
}

// ResetInterval clears the per-interval counters; the STMM controller calls
// it after each tuning pass.
func (p *Pool) ResetInterval() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.intervalHits, p.intervalMisses, p.intervalEvictions = 0, 0, 0
}

// Name identifies the consumer in STMM reports.
func (p *Pool) Name() string { return "bufferpool" }

// ApplySize lets the STMM controller resize the pool after moving heap
// pages; it simply forwards to Resize.
func (p *Pool) ApplySize(pages int) { p.Resize(pages) }
