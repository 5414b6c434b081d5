// Package memblock implements DB2's lock-memory block allocator as described
// in section 2.2 of the paper.
//
// Lock memory (the LOCKLIST) is allocated in 128 KB blocks — one block per
// 32 pages of configured lock memory — each holding about 2000 lock
// structures (exactly 2048 here, at 64 bytes per structure). Blocks live on
// a linked list:
//
//   - Lock structures are taken from the block at the *head* of the list.
//   - When the head block is exhausted it moves to a separate "empty block"
//     list (empty of available structures, i.e. fully in use) and the next
//     block becomes the head.
//   - When structures allocated from a block are freed, the block returns to
//     the *head* of the list, so partially used blocks are refilled before
//     untouched blocks are broken into. Consequently, when demand uses only
//     part of the lock memory, blocks toward the tail stay entirely free —
//     which is exactly what makes shrinking cheap.
//   - A shrink request scans from the tail for blocks with no outstanding
//     structures, sets them aside, and frees them only if enough were found;
//     otherwise the set-aside blocks are reintegrated and the request fails.
//
// Concurrency model. The block lists are guarded by a single mutex, but the
// hot counters — structures in use, capacity, cumulative requests — are
// atomics, so the introspection surface (Used, Capacity, FreeStructs,
// FreeFraction, Requests, Pages) never contends with allocation. On top of
// the chain sit per-shard lease Pools: a Pool reserves structures from the
// chain in batches (block inUse accounting moves at lease granularity) and
// then serves allocations and frees without touching the chain mutex at
// all. Usage and requests are counted where they happen: the chain counts
// its own direct Alloc/Free, and each pool counts what it serves in atomics
// of its own, so no per-lock step writes a counter another shard's pool
// also writes. The chain's Used and Requests are its direct count plus the
// sum over its pools. Reserved-but-unused structures still count as free
// in Used/FreeStructs — the accounting the STMM tuner sees is exact
// request-level usage, and Used + FreeStructs == Capacity holds at every
// quiescent point.
//
// The simulation accounts memory virtually — no 128 KB buffers are really
// allocated — but the block-list mechanics, counts and failure modes are the
// real algorithm.
package memblock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Memory layout constants shared by the whole system.
const (
	// PageSize is the unit of all memory configuration (DB2 uses 4 KB
	// pages for LOCKLIST and database memory alike).
	PageSize = 4096

	// BlockPages is the number of pages per lock memory block: 128 KB.
	BlockPages = 32

	// BlockBytes is the size of one lock memory block.
	BlockBytes = PageSize * BlockPages

	// LockSize is the size of one lock structure in bytes. The paper says
	// each 128 KB block stores "approximately 2000 locks"; 64 bytes gives
	// exactly 2048 per block.
	LockSize = 64

	// StructsPerBlock is the number of lock structures per block.
	StructsPerBlock = BlockBytes / LockSize

	// StructsPerPage is the number of lock structures per 4 KB page.
	StructsPerPage = PageSize / LockSize
)

// ErrNoMemory is returned when an allocation cannot be satisfied from the
// chain's free structures. The caller (the lock manager) reacts by growing
// the chain synchronously from overflow memory or, failing that, escalating.
var ErrNoMemory = errors.New("memblock: no free lock structures")

// ErrShrinkDenied is returned when a shrink request cannot find enough
// entirely free blocks; per the paper, set-aside blocks are reintegrated and
// the lock memory size is left unchanged.
var ErrShrinkDenied = errors.New("memblock: not enough free blocks to shrink")

type listID uint8

const (
	onAvail listID = iota + 1
	onExhausted
)

// block is one 128 KB unit of lock memory.
type block struct {
	prev, next *block
	list       listID
	inUse      int // structures reserved from this block (used or pooled)
}

// list is an intrusive doubly linked list of blocks.
type list struct {
	head, tail *block
	n          int
}

func (l *list) pushHead(b *block, id listID) {
	b.prev, b.next, b.list = nil, l.head, id
	if l.head != nil {
		l.head.prev = b
	} else {
		l.tail = b
	}
	l.head = b
	l.n++
}

func (l *list) pushTail(b *block, id listID) {
	b.prev, b.next, b.list = l.tail, nil, id
	if l.tail != nil {
		l.tail.next = b
	} else {
		l.head = b
	}
	l.tail = b
	l.n++
}

func (l *list) remove(b *block) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		l.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		l.tail = b.prev
	}
	b.prev, b.next, b.list = nil, nil, 0
	l.n--
}

// part records structures allocated from a single block.
type part struct {
	b *block
	n int
}

// Handle represents one allocation of lock structures. A single allocation
// may span blocks when it straddles the exhaustion of the head block. Free a
// handle exactly once; the zero Handle is valid and frees nothing.
//
// The first part is stored inline so the common case — an allocation served
// from a single block — performs no heap allocation at all. Only multi-block
// allocations spill into the extra slice.
type Handle struct {
	p0    part
	extra []part
}

// add appends structures taken from one block, merging with the most recent
// part when it references the same block.
func (h *Handle) add(pt part) {
	if pt.n <= 0 {
		return
	}
	if h.p0.b == nil {
		h.p0 = pt
		return
	}
	if len(h.extra) == 0 {
		if h.p0.b == pt.b {
			h.p0.n += pt.n
			return
		}
	} else if last := &h.extra[len(h.extra)-1]; last.b == pt.b {
		last.n += pt.n
		return
	}
	h.extra = append(h.extra, pt)
}

// allParts returns the handle's parts as one slice; it allocates and is
// meant for tests and diagnostics, not the hot path.
func (h Handle) allParts() []part {
	if h.p0.b == nil {
		return nil
	}
	out := make([]part, 0, 1+len(h.extra))
	out = append(out, h.p0)
	return append(out, h.extra...)
}

// Structs returns the number of lock structures covered by the handle.
func (h Handle) Structs() int {
	n := h.p0.n
	for _, p := range h.extra {
		n += p.n
	}
	return n
}

// Absorb merges other into h. Used by the fast-path lease: refills taken
// from a shard's pool are folded into the shard's standing lease handle.
func (h *Handle) Absorb(other Handle) {
	if other.p0.b != nil {
		h.add(other.p0)
	}
	for _, pt := range other.extra {
		h.add(pt)
	}
}

// Split removes up to n structures from h and returns a handle covering
// them, taking from the most recently added parts first (extra tail, then
// p0). The returned handle covers min(n, h.Structs()) structures.
func (h *Handle) Split(n int) Handle {
	var out Handle
	for n > 0 && len(h.extra) > 0 {
		last := &h.extra[len(h.extra)-1]
		t := last.n
		if t > n {
			t = n
		}
		out.add(part{b: last.b, n: t})
		last.n -= t
		n -= t
		if last.n == 0 {
			h.extra = h.extra[:len(h.extra)-1]
		}
	}
	if n > 0 && h.p0.b != nil {
		t := h.p0.n
		if t > n {
			t = n
		}
		out.add(part{b: h.p0.b, n: t})
		h.p0.n -= t
		if h.p0.n == 0 {
			if len(h.extra) > 0 {
				h.p0 = h.extra[0]
				h.extra = h.extra[1:]
			} else {
				h.p0 = part{}
			}
		}
	}
	return out
}

// Chain is the lock memory block chain. It is safe for concurrent use.
//
// used and requests count only the chain's direct Alloc/Free; the structures
// and requests its pools serve are counted on the pools (Pool.used,
// Pool.requests), and Used/Requests add the two. A structure allocated from
// the chain and freed through a pool (the lock manager's allocation of last
// resort, released by a commit) leaves the chain's count high and the
// pool's low by the same amount, so only the sum is meaningful.
type Chain struct {
	mu        sync.Mutex
	avail     list // blocks with at least one free structure (or untouched)
	exhausted list // fully in-use blocks ("empty block" list in the paper)
	reserved  int  // structures reserved across all blocks (sum of inUse); guarded by mu

	used     atomic.Int64 // structures allocated to requests by Alloc, less those Free returned
	capacity atomic.Int64 // total structures across all blocks
	requests atomic.Int64 // cumulative Alloc attempts

	// pools lists every Pool created over the chain, for the Used and
	// Requests sums. NewPool replaces the slice under mu (copy on write),
	// so readers load it without a lock.
	pools atomic.Pointer[[]*Pool]
}

// New creates a chain sized to the given number of 4 KB pages, rounded up to
// whole 128 KB blocks (one block per 32 pages, as in DB2).
func New(pages int) *Chain {
	c := &Chain{}
	c.Grow(pages)
	return c
}

func blocksFor(pages int) int {
	if pages <= 0 {
		return 0
	}
	return (pages + BlockPages - 1) / BlockPages
}

// Grow appends enough new (entirely free) blocks to cover the given number
// of pages. New blocks go to the tail of the list, matching the paper's
// description of allocation-time list construction. It returns the number of
// pages actually added (a multiple of BlockPages).
func (c *Chain) Grow(pages int) int {
	nb := blocksFor(pages)
	if nb == 0 {
		return 0
	}
	c.mu.Lock()
	for i := 0; i < nb; i++ {
		c.avail.pushTail(&block{}, onAvail)
	}
	c.capacity.Add(int64(nb) * StructsPerBlock)
	c.mu.Unlock()
	return nb * BlockPages
}

// reserveLocked takes up to n structures from the blocks, preferring the
// head block, and appends the parts to h. It returns the structures actually
// reserved. Caller holds c.mu.
func (c *Chain) reserveLocked(n int, h *Handle) int {
	got := 0
	for got < n {
		b := c.avail.head
		if b == nil {
			break
		}
		take := StructsPerBlock - b.inUse
		if take > n-got {
			take = n - got
		}
		b.inUse += take
		c.reserved += take
		h.add(part{b: b, n: take})
		got += take
		if b.inUse == StructsPerBlock {
			c.avail.remove(b)
			c.exhausted.pushHead(b, onExhausted)
		}
	}
	return got
}

// unreserveLocked returns the reservation covered by h to its blocks. A
// block that receives structures back returns to the head of the available
// list, per the paper. Caller holds c.mu.
func (c *Chain) unreserveLocked(h Handle) {
	if h.p0.b != nil {
		c.unreservePart(h.p0)
	}
	for _, p := range h.extra {
		c.unreservePart(p)
	}
}

func (c *Chain) unreservePart(p part) {
	if p.n <= 0 {
		return
	}
	if p.b.inUse < p.n {
		panic(fmt.Sprintf("memblock: double free (block inUse=%d, freeing %d)", p.b.inUse, p.n))
	}
	p.b.inUse -= p.n
	c.reserved -= p.n
	if p.b.list == onExhausted {
		c.exhausted.remove(p.b)
		c.avail.pushHead(p.b, onAvail)
	}
}

// Alloc takes n lock structures from the chain, preferring the head block.
// It returns ErrNoMemory — without allocating anything — if fewer than n
// structures are unreserved in total. Every call counts as one lock-structure
// request for the purposes of refreshPeriodForAppPercent.
func (c *Chain) Alloc(n int) (Handle, error) {
	if n <= 0 {
		return Handle{}, fmt.Errorf("memblock: invalid allocation size %d", n)
	}
	c.requests.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if int(c.capacity.Load())-c.reserved < n {
		return Handle{}, ErrNoMemory
	}
	var h Handle
	c.reserveLocked(n, &h)
	c.used.Add(int64(n))
	return h, nil
}

// Free releases the structures covered by h back to their blocks.
func (c *Chain) Free(h Handle) {
	if h.p0.b == nil {
		return
	}
	c.mu.Lock()
	c.unreserveLocked(h)
	c.mu.Unlock()
	c.used.Add(int64(-h.Structs()))
}

// Shrink releases enough entirely free blocks to give back the requested
// number of pages (rounded up to whole blocks). Blocks are scanned from the
// tail of the available list, where free blocks accumulate. If not enough
// free blocks exist the set-aside blocks are reintegrated unchanged and
// ErrShrinkDenied is returned. On success it returns the pages released.
func (c *Chain) Shrink(pages int) (int, error) {
	nb := blocksFor(pages)
	if nb == 0 {
		return 0, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	// Scan from the tail, setting aside freeable blocks.
	var setAside []*block
	for b := c.avail.tail; b != nil && len(setAside) < nb; b = b.prev {
		if b.inUse == 0 {
			setAside = append(setAside, b)
		}
	}
	if len(setAside) < nb {
		// Reintegrate: nothing was unlinked yet, so the chain is unchanged.
		return 0, ErrShrinkDenied
	}
	for _, b := range setAside {
		c.avail.remove(b)
	}
	c.capacity.Add(int64(-nb) * StructsPerBlock)
	return nb * BlockPages, nil
}

// ShrinkBest releases up to the requested pages, freeing as many entirely
// free tail blocks as it can find. Unlike Shrink it never fails; it returns
// the pages actually released (possibly zero). The asynchronous δreduce path
// uses this: the tuner asks for 5% and takes whatever is truly free.
func (c *Chain) ShrinkBest(pages int) int {
	nb := blocksFor(pages)
	if nb == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	freed := 0
	for b := c.avail.tail; b != nil && freed < nb; {
		prev := b.prev
		if b.inUse == 0 {
			c.avail.remove(b)
			freed++
		}
		b = prev
	}
	c.capacity.Add(int64(-freed) * StructsPerBlock)
	return freed * BlockPages
}

// Blocks returns the total number of blocks in the chain.
func (c *Chain) Blocks() int {
	return int(c.capacity.Load()) / StructsPerBlock
}

// Pages returns the chain size in 4 KB pages.
func (c *Chain) Pages() int {
	return c.Blocks() * BlockPages
}

// Capacity returns the total number of lock structures the chain can hold.
func (c *Chain) Capacity() int {
	return int(c.capacity.Load())
}

// usedTotal sums the chain's direct usage count and every pool's. The sum
// is read counter by counter, so under concurrent allocation it is as fuzzy
// as any unlatched gauge; with allocation quiescent it is exact.
func (c *Chain) usedTotal() int64 {
	n := c.used.Load()
	if ps := c.pools.Load(); ps != nil {
		for _, p := range *ps {
			n += p.used.Load()
		}
	}
	return n
}

// Used returns the number of lock structures currently allocated to
// requests: the chain's direct count plus every pool's. Structures leased
// to pools but not yet serving a request do not count:
// Used + FreeStructs == Capacity.
func (c *Chain) Used() int {
	return int(c.usedTotal())
}

// FreeStructs returns the number of lock structures not serving a request.
func (c *Chain) FreeStructs() int {
	return int(c.capacity.Load() - c.usedTotal())
}

// FreeFraction returns the fraction of lock structures that are allocated
// but unused — the quantity the tuner holds between minFreeLockMemory and
// maxFreeLockMemory. An empty chain reports 0.
func (c *Chain) FreeFraction() float64 {
	cap := c.capacity.Load()
	if cap == 0 {
		return 0
	}
	return float64(cap-c.usedTotal()) / float64(cap)
}

// WhollyFreeBlocks returns the number of blocks with no structures in use —
// the candidates for shrinking. Blocks pinned by outstanding pool leases
// count as in use; call Pool.Flush first for an exact shrinkability figure.
func (c *Chain) WhollyFreeBlocks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for b := c.avail.head; b != nil; b = b.next {
		if b.inUse == 0 {
			n++
		}
	}
	return n
}

// UsedPages returns the lock-structure usage expressed in whole 4 KB pages,
// rounded up. This is the "used lock memory" figure the tuner works with.
func (c *Chain) UsedPages() int {
	used := int(c.usedTotal())
	if used == 0 {
		return 0
	}
	return (used + StructsPerPage - 1) / StructsPerPage
}

// Requests returns the cumulative number of request allocations — the
// paper's "requests for new lock structures", which clocks the recomputation
// of lockPercentPerApplication: the chain's direct Alloc count plus every
// pool's.
func (c *Chain) Requests() int64 {
	n := c.requests.Load()
	if ps := c.pools.Load(); ps != nil {
		for _, p := range *ps {
			n += p.requests.Load()
		}
	}
	return n
}

// Reserved returns the structures currently reserved from blocks — request
// usage plus outstanding pool leases. Reserved - Used is exactly the number
// of structures sitting idle in lease pools.
func (c *Chain) Reserved() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reserved
}

// Unreserved returns the structures available for immediate reservation
// (capacity minus reservations, including pool leases). Callers that find
// Unreserved short of a request flush the lease pools first: the flushed
// structures become unreserved again and Unreserved rises back to
// FreeStructs.
func (c *Chain) Unreserved() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.capacity.Load()) - c.reserved
}

// CheckInvariants verifies internal consistency — block-list tags, the
// reserved/capacity/used accounting identities — and returns the first
// violation found. The lock manager's own CheckInvariants calls it so a
// single self-check covers both layers.
func (c *Chain) CheckInvariants() error {
	return c.checkInvariants()
}

// checkInvariants verifies internal consistency; used by tests.
func (c *Chain) checkInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	reserved, blocks := 0, 0
	for b := c.avail.head; b != nil; b = b.next {
		if b.list != onAvail {
			return errors.New("block on avail list with wrong tag")
		}
		if b.inUse >= StructsPerBlock {
			return errors.New("fully used block on avail list")
		}
		reserved += b.inUse
		blocks++
	}
	for b := c.exhausted.head; b != nil; b = b.next {
		if b.list != onExhausted {
			return errors.New("block on exhausted list with wrong tag")
		}
		if b.inUse != StructsPerBlock {
			return errors.New("non-full block on exhausted list")
		}
		reserved += b.inUse
		blocks++
	}
	if reserved != c.reserved {
		return fmt.Errorf("reserved mismatch: sum=%d tracked=%d", reserved, c.reserved)
	}
	if cap := int(c.capacity.Load()); cap != blocks*StructsPerBlock {
		return fmt.Errorf("capacity mismatch: atomic=%d blocks=%d", cap, blocks*StructsPerBlock)
	}
	if used := int(c.usedTotal()); used > reserved {
		return fmt.Errorf("used %d exceeds reserved %d", used, reserved)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Lease pools

// DefaultLeaseChunk is the number of structures a Pool leases from the chain
// at a time: 1/16 of a block. Small enough that idle pools pin little
// memory, large enough to amortize the chain mutex over many allocations.
const DefaultLeaseChunk = StructsPerBlock / 16

// Pool is a lease cache in front of a Chain: it reserves structures from
// the chain in chunks and then serves Alloc/Free without the chain mutex.
// It counts the structures it puts to use and the requests it serves in
// counters of its own, which the chain's Used and Requests sum; no Pool
// method writes a chain counter. Each lock-table shard owns one Pool.
//
// A Pool is NOT safe for concurrent use — the owning shard's latch guards
// it — except ConsumeReserved and ReturnReserved, which touch only the
// pool's atomic counters. Flush is called by cross-shard operations
// (shrink, allocation of last resort) with that same latch held.
//
// Parts are kept in a LIFO stack with adjacent same-block merging, so a
// steady acquire/release workload reuses the same reservation indefinitely
// and the pool's behaviour is deterministic (no map iteration).
type Pool struct {
	c     *Chain
	parts []part
	n     int // structures currently pooled
	chunk int

	// used is the structures this pool put to use (Alloc, ConsumeReserved)
	// less those it took back (Free, SettleFree, ReturnReserved). It goes
	// negative when the pool frees structures the chain allocated directly;
	// the chain's sum stays exact. requests counts the requests it served.
	used     atomic.Int64
	requests atomic.Int64

	refills atomic.Int64 // chain leases taken (refill batches)
	returns atomic.Int64 // chain leases returned (overflow batches)
	pooled  atomic.Int64 // mirror of n for latch-free observers

	// Pools are allocated one per shard; the pad rounds a Pool up to two
	// cache lines so one shard's counters never share a line with
	// another's.
	_ [40]byte
}

// NewPool creates a lease pool over the chain and registers it in the
// chain's Used/Requests sums. chunk <= 0 selects DefaultLeaseChunk.
func (c *Chain) NewPool(chunk int) *Pool {
	if chunk <= 0 {
		chunk = DefaultLeaseChunk
	}
	p := &Pool{c: c, chunk: chunk}
	c.mu.Lock()
	var ps []*Pool
	if old := c.pools.Load(); old != nil {
		ps = append(ps, *old...)
	}
	ps = append(ps, p)
	c.pools.Store(&ps)
	c.mu.Unlock()
	return p
}

// pushRaw adds a part to the pool, merging with the top part when it
// references the same block, WITHOUT refreshing the latch-free pooled
// mirror. Batch free paths call it once per lock and sync the mirror once
// in SettleFree; everything else goes through push.
func (p *Pool) pushRaw(pt part) {
	if pt.n <= 0 {
		return
	}
	if len(p.parts) > 0 && p.parts[len(p.parts)-1].b == pt.b {
		p.parts[len(p.parts)-1].n += pt.n
	} else {
		p.parts = append(p.parts, pt)
	}
	p.n += pt.n
}

// push adds a part to the pool, merging with the top part when it
// references the same block.
func (p *Pool) push(pt part) {
	p.pushRaw(pt)
	p.pooled.Store(int64(p.n))
}

// take removes up to n structures from the pool stack and appends them to h.
func (p *Pool) take(n int, h *Handle) {
	for n > 0 {
		top := &p.parts[len(p.parts)-1]
		t := top.n
		if t > n {
			t = n
		}
		h.add(part{b: top.b, n: t})
		top.n -= t
		p.n -= t
		n -= t
		if top.n == 0 {
			p.parts = p.parts[:len(p.parts)-1]
		}
	}
	p.pooled.Store(int64(p.n))
}

// Alloc takes n structures from the pool, refilling from the chain in chunk
// batches when short. It returns ok=false — allocating nothing — when even
// a refill cannot cover the request; the caller falls back to the chain
// allocation of last resort (which reclaims other pools' leases first).
// A successful Alloc counts as one lock-structure request.
func (p *Pool) Alloc(n int) (Handle, bool) {
	if n <= 0 {
		return Handle{}, false
	}
	if p.n < n {
		want := n - p.n
		if want < p.chunk {
			want = p.chunk
		}
		var lease Handle
		p.c.mu.Lock()
		p.c.reserveLocked(want, &lease)
		p.c.mu.Unlock()
		p.refills.Add(1)
		if lease.p0.b != nil {
			p.push(lease.p0)
		}
		for _, pt := range lease.extra {
			p.push(pt)
		}
		if p.n < n {
			return Handle{}, false
		}
	}
	var h Handle
	p.take(n, &h)
	p.used.Add(int64(n))
	p.requests.Add(1)
	return h, true
}

// Free returns the structures covered by h to the pool. When the pool holds
// more than 4 chunks it returns the excess above one chunk to the chain, so
// idle shards do not pin lock memory against shrinking.
func (p *Pool) Free(h Handle) {
	total := h.Structs()
	if total == 0 {
		return
	}
	if h.p0.b != nil {
		p.push(h.p0)
	}
	for _, pt := range h.extra {
		p.push(pt)
	}
	p.used.Add(int64(-total))
	if p.n > 4*p.chunk {
		p.release(p.n - p.chunk)
	}
}

// FreeBatched returns the structures covered by h to the pool like Free,
// but defers the used accounting, the latch-free pooled mirror refresh,
// and the excess-release check to SettleFree. Batch release paths (a
// commit returning many locks to one shard) call it once per lock and
// settle once per shard visit, turning two per-lock atomics (the pool's
// used counter and the pooled mirror) into per-visit ones.
// It returns the number of structures freed, to be summed into SettleFree.
func (p *Pool) FreeBatched(h Handle) int {
	total := h.Structs()
	if total == 0 {
		return 0
	}
	if h.p0.b != nil {
		p.pushRaw(h.p0)
	}
	for _, pt := range h.extra {
		p.pushRaw(pt)
	}
	return total
}

// SettleFree completes a batch of FreeBatched calls: one used-counter
// update and one pooled-mirror refresh for the whole batch, then the same
// excess-release check Free performs. total must be the sum of the
// FreeBatched return values since the last settle. Caller holds the
// owning shard's latch throughout the batch, so usage accounting is exact
// again before any concurrent observer can latch the shard.
func (p *Pool) SettleFree(total int) {
	if total == 0 {
		return
	}
	p.pooled.Store(int64(p.n))
	p.used.Add(int64(-total))
	if p.n > 4*p.chunk {
		p.release(p.n - p.chunk)
	}
}

// release returns n pooled structures to the chain.
func (p *Pool) release(n int) {
	if n <= 0 || p.n == 0 {
		return
	}
	if n > p.n {
		n = p.n
	}
	var h Handle
	p.take(n, &h)
	p.c.mu.Lock()
	p.c.unreserveLocked(h)
	p.c.mu.Unlock()
	p.returns.Add(1)
}

// Flush returns every pooled structure to the chain. Cross-shard operations
// call it (with the shard latch held) before shrinking or before the
// allocation of last resort, so free structures stranded in per-shard pools
// become visible to the whole system.
func (p *Pool) Flush() {
	p.release(p.n)
}

// Lease moves up to n structures from the pool into a standing lease,
// refilling from the chain when the pool runs short. Unlike Alloc it does
// NOT bump the used or requests counters: leased structures stay reserved
// but idle until ConsumeReserved marks them in use. It returns the handle
// and the number of structures actually leased (possibly < n when the
// chain is short; possibly 0). Caller holds the owning shard's latch.
func (p *Pool) Lease(n int) (Handle, int) {
	if n <= 0 {
		return Handle{}, 0
	}
	if p.n < n {
		var refill Handle
		p.c.mu.Lock()
		p.c.reserveLocked(n-p.n, &refill)
		p.c.mu.Unlock()
		p.refills.Add(1)
		if refill.p0.b != nil {
			p.push(refill.p0)
		}
		for _, pt := range refill.extra {
			p.push(pt)
		}
	}
	got := n
	if got > p.n {
		got = p.n
	}
	var h Handle
	p.take(got, &h)
	return h, got
}

// Restore returns standing-lease structures to the pool — the inverse of
// Lease, with no used accounting. Caller holds the owning shard's latch.
// The usual excess-release check applies so a large restored lease does
// not strand memory in the pool.
func (p *Pool) Restore(h Handle) {
	if h.p0.b != nil {
		p.push(h.p0)
	}
	for _, pt := range h.extra {
		p.push(pt)
	}
	if p.n > 4*p.chunk {
		p.release(p.n - p.chunk)
	}
}

// ConsumeReserved records that n already-reserved structures (held in a
// standing lease, e.g. a shard's fast-path credit) have been put to use by
// a request. It adjusts only the pool's atomic counters — the structures'
// blocks were accounted at lease time — so it is safe to call without the
// owning shard's latch. Like Alloc, it counts as one lock-structure
// request.
func (p *Pool) ConsumeReserved(n int) {
	if n <= 0 {
		return
	}
	p.used.Add(int64(n))
	p.requests.Add(1)
}

// ReturnReserved undoes ConsumeReserved: n structures return from request
// use to their standing lease. Latch-free, like ConsumeReserved.
func (p *Pool) ReturnReserved(n int) {
	if n <= 0 {
		return
	}
	p.used.Add(int64(-n))
}

// Requests returns the cumulative number of requests the pool served
// (Alloc and ConsumeReserved). Latch-free.
func (p *Pool) Requests() int64 { return p.requests.Load() }

// Structs returns the number of structures currently pooled. Caller holds
// the owning shard's latch (like Alloc/Free).
func (p *Pool) Structs() int { return p.n }

// Pooled returns the number of structures currently pooled without
// requiring the owning shard's latch: it reads an atomic mirror of the
// balance, so latch-free observers (shard-stats summaries) can sample it
// while the shard keeps allocating.
func (p *Pool) Pooled() int { return int(p.pooled.Load()) }

// Refills returns the cumulative number of chain lease batches taken.
func (p *Pool) Refills() int64 { return p.refills.Load() }

// Returns returns the cumulative number of lease batches given back.
func (p *Pool) Returns() int64 { return p.returns.Load() }
