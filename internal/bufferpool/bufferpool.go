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
// its own mutex, frames, index, hand and miss counters. The stripe count is
// fixed at New; a pool too small for stripes of minStripePages pages has
// one stripe and keeps a single clock order.
//
// A hit takes no mutex and writes no line another session writes. It finds
// the page with atomic loads of the stripe's index slots, confirms it by
// the frame's page word, sets the frame's reference bit only when the bit
// is clear, and counts itself in the caller's own counter cell. Misses,
// evictions and Resize take the stripe mutex and bump the stripe's
// sequence counter when done, so a miss whose lock-free probe saw an
// unchanged sequence trusts that probe instead of repeating it. Driven
// from one goroutine, the pool makes the same hit, miss and eviction
// decisions as a plain clock sweep.
package bufferpool

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// frame is one cached page. Hits read page and set ref without the stripe
// mutex; used, and every other write, is under it.
type frame struct {
	page atomic.Uint64
	ref  atomic.Bool
	used bool
}

// Striping bounds: New picks up to stripesPerProc stripes per GOMAXPROCS,
// a power of two, and only as many as leave every stripe at least
// minStripePages pages.
const (
	stripesPerProc = 4
	minStripePages = 2 * 1024
)

// table is a stripe's frames and the index that maps a page to its frame.
// The index is open-addressed with linear probing and backward-shift
// deletion; a slot holds the top 32 bits of the page's hash over the
// frame's position plus one, and zero marks it empty. Both arrays are
// sized at allocation for every frame, so only a stripe grown past them
// replaces its table; frames beyond the stripe's size are unused.
type table struct {
	frames []frame
	slots  []atomic.Uint64
}

func newTable(frames int) *table {
	return &table{frames: make([]frame, frames), slots: make([]atomic.Uint64, frames+frames/3+1)}
}

// home is the slot a tag's probe run starts at: the tag scaled to the
// slot count.
func (t *table) home(tag uint64) int { return int(tag * uint64(len(t.slots)) >> 32) }

func (t *table) next(i int) int {
	if i++; i == len(t.slots) {
		return 0
	}
	return i
}

// find returns the position of the frame caching page, or -1. It reads
// with atomic loads, so it may run beside a writer: a match is confirmed
// by the frame's page word, and a miss seen while a writer shifts the
// probe run is re-checked by the caller under the mutex.
func (t *table) find(hash, page uint64) int {
	tag := hash >> 32
	for i, n := t.home(tag), 0; n < len(t.slots); i, n = t.next(i), n+1 {
		v := t.slots[i].Load()
		if v == 0 {
			break
		}
		if v>>32 == tag {
			if pos := int(uint32(v)) - 1; t.frames[pos].page.Load() == page {
				return pos
			}
		}
	}
	return -1
}

// insert indexes the frame at pos under hash. Caller holds the mutex.
func (t *table) insert(hash uint64, pos int) {
	tag := hash >> 32
	i := t.home(tag)
	for t.slots[i].Load() != 0 {
		i = t.next(i)
	}
	t.slots[i].Store(tag<<32 | uint64(pos+1))
}

// unindex removes the used frame at pos from the index: every later value
// of the run whose probe path passes the hole moves back into it, so no
// tombstone is left. Caller holds the mutex.
func (t *table) unindex(pos int) {
	tag := pageHash(t.frames[pos].page.Load()) >> 32
	v := tag<<32 | uint64(pos+1)
	i := t.home(tag)
	for t.slots[i].Load() != v {
		i = t.next(i)
	}
	for j := t.next(i); ; j = t.next(j) {
		w := t.slots[j].Load()
		if w == 0 {
			break
		}
		if t.dist(t.home(w>>32), j) >= t.dist(i, j) {
			t.slots[i].Store(w)
			i = j
		}
	}
	t.slots[i].Store(0)
}

// dist is the number of probe steps from slot a to slot b.
func (t *table) dist(a, b int) int {
	if b < a {
		b += len(t.slots)
	}
	return b - a
}

// stripe is one clock-sweep cache: the pages whose hash selects it.
type stripe struct {
	tab atomic.Pointer[table]
	seq atomic.Uint64 // bumped after every change to the index, under mu

	mu   sync.Mutex
	size int // frames in use: tab's first size
	hand int

	misses            int64
	intervalMisses    int64
	intervalEvictions int64
	totalEvictions    int64

	_ [64]byte // keeps neighbouring stripes' written fields off one cache line
}

// Pool is a clock-sweep buffer pool. It is safe for concurrent use.
type Pool struct {
	stripes []stripe
	mask    uint64 // len(stripes)-1
	hits    *metrics.ShardCounters

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
	p := &Pool{stripes: make([]stripe, n), mask: uint64(n - 1), hits: metrics.NewWriterCounters("buffer pool hits")}
	for i := range p.stripes {
		p.stripes[i].tab.Store(newTable(0))
	}
	p.resize(pages)
	return p
}

// pageHash spreads page numbers over the index. The multiplier is odd, so
// distinct pages never share a hash, and the index reads the top bits,
// where consecutive pages land far apart. The stripe is chosen by the low
// bits, which the index does not read.
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

// Pages returns the pool capacity in pages.
func (p *Pool) Pages() int {
	p.sizeMu.Lock()
	defer p.sizeMu.Unlock()
	return p.pages
}

// Access touches a page, returning true on a cache hit. On a miss the page
// is brought in, evicting via its stripe's clock sweep if the stripe is
// full. A zero-sized pool always misses. It is AccessBy for writer 0.
func (p *Pool) Access(page uint64) bool { return p.AccessBy(0, page) }

// AccessBy is Access for the session whose id is writer: its hit is counted
// in the writer's own cell, so sessions that hit the same pages write no
// common line.
func (p *Pool) AccessBy(writer int, page uint64) bool {
	h := pageHash(page)
	s := &p.stripes[h&p.mask]
	seq := s.seq.Load()
	if p.hit(s.tab.Load(), h, page, writer) {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// A writer that changed the index since the probe may have brought
	// the page in, or shifted it past the probe: look again.
	t := s.tab.Load()
	if s.seq.Load() != seq && p.hit(t, h, page, writer) {
		return true
	}
	s.misses++
	s.intervalMisses++
	if s.size == 0 {
		return false
	}
	pos := s.evictLocked(t)
	f := &t.frames[pos]
	if f.used {
		t.unindex(pos)
		s.totalEvictions++
		s.intervalEvictions++
	}
	// New pages enter with the reference bit clear: only a re-reference
	// earns a second chance, otherwise a full sweep degenerates to FIFO
	// and hot pages get no protection. The victim's bit is clear already
	// unless a hit raced the sweep.
	if f.ref.Load() {
		f.ref.Store(false)
	}
	f.page.Store(page)
	f.used = true
	t.insert(h, pos)
	s.seq.Add(1)
	return false
}

// hit looks page up in t and, when it is there, references its frame and
// counts the hit. The bit is set only when clear: a hit on a hot page then
// writes no frame line that the other cores read.
func (p *Pool) hit(t *table, hash, page uint64, writer int) bool {
	pos := t.find(hash, page)
	if pos < 0 {
		return false
	}
	if f := &t.frames[pos]; !f.ref.Load() {
		f.ref.Store(true)
	}
	p.hits.Writer(writer).Inc()
	return true
}

// evictLocked runs the clock hand to a victim frame (or a free one).
func (s *stripe) evictLocked(t *table) int {
	for {
		f := &t.frames[s.hand]
		pos := s.hand
		if s.hand++; s.hand == s.size {
			s.hand = 0
		}
		if !f.used {
			return pos
		}
		if f.ref.Load() {
			f.ref.Store(false)
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
	t := s.tab.Load()
	if pages > len(t.frames) {
		// Hits still probing the old table find what it held when it
		// was replaced.
		grown := newTable(pages)
		for i := range s.size {
			if f := &t.frames[i]; f.used {
				g := &grown.frames[i]
				g.page.Store(f.page.Load())
				g.ref.Store(f.ref.Load())
				g.used = true
				grown.insert(pageHash(f.page.Load()), i)
			}
		}
		s.tab.Store(grown)
		t = grown
	}
	for i := pages; i < s.size; i++ {
		if f := &t.frames[i]; f.used {
			t.unindex(i)
			f.used = false
			s.totalEvictions++
			s.intervalEvictions++
		}
	}
	s.size = pages
	if s.hand >= pages {
		s.hand = 0
	}
	s.seq.Add(1)
}

// totals is the stripes' frames and counters, summed.
type totals struct {
	frames                                    int
	misses, intervalMisses, intervalEvictions int64
	totalEvictions                            int64
}

// sum reads each stripe under its own mutex, so the sum is exact for a
// quiescent pool and fuzzy under traffic. Hits are not in it: they are
// counted per writer (Pool.hits).
func (p *Pool) sum() totals {
	var t totals
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		t.frames += s.size
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
	hits, misses, _ := p.Stats()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Stats returns lifetime hits, misses and evictions.
func (p *Pool) Stats() (hits, misses, evictions int64) {
	t := p.sum()
	return p.hits.Total(), t.misses, t.totalEvictions
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
