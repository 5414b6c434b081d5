package lockmgr

// Statement batches: AcquireRows admits one statement's point rows with
// one latch visit per home shard instead of one admission per row.
//
// # The batch
//
// Rows of fast-eligible modes first try the latch-free tiers row by row
// (tryFastAcquire: re-acquire cache, then the grant-word CAS). The rest are
// grouped by home shard and each shard is visited once, in ascending index
// order, with one latch and one Owner.mu hold; inside the visit every row
// goes through the same single-latch admission startRequest runs (heldCover,
// allocLocal, grantLocal), in the caller's order. A row that needs a
// conversion, that the global pipeline must decide (quota, lease
// shortfall), or that conflicts with the granted group or a queue ends the
// visit. A conflicting row is queued right there, as a per-row Acquire
// would queue it, when every row before it is admitted and none after it;
// otherwise its allocation is backed out. Nothing else ever waits.
//
// # The prefix rule
//
// Only the grants before the first row that could not be admitted, in the
// caller's order, are kept. Grants after it — made in shards visited
// earlier, or by the fast tiers — were never waited on and are rolled back
// with a plain Release, so a batch never holds a lock out of the caller's
// order while it waits, and callers that lock in a global order stay
// deadlock-free. Only requests the batch installed are released: a row the
// owner already held or had covered, a duplicate of an earlier row, and an
// install a kept duplicate before the stop relies on all stay held. The
// stopping row (unless the visit queued it, and then after its wait) and
// every row after it go through the ordinary Acquire, which waits,
// converts, escalates or takes the global path as a single request would.
//
// # Funnel accounting
//
// Every admission is counted once, as a fast-path hit or a fallback. The
// batch counts only what it keeps, once the stop is known: a hit per row
// the fast tiers admitted, a fallback per row a shard visit admitted, in
// its application's cells. A rolled-back row is counted by the Acquire
// that admits it again, like every row from the stop on.

import (
	"context"
	"slices"
	"time"
)

// rowBatch is the owner's statement-batch scratch: one entry per row in
// the caller's order, the (shard, row index) keys of the rows left for the
// latched visits, boxes allocated before a visit whose owner and shard
// caches ran short (so the malloc stays out of the critical section), the
// request a visit found incompatible, the Pending of the row a visit
// queued, and whether the visit added headers it has not yet synced the
// shard's table mirror for.
type rowBatch struct {
	ents    []batchRow
	keys    []uint64 // shard<<32 | row index, sorted before the visits
	spare   []*requestAndPending
	blocked *request
	wait    *Pending
	added   bool
}

// batchRow is one row of a statement batch.
type batchRow struct {
	name      Name
	hash      uint64
	si        int
	tier      uint8 // batchNone until admitted
	installed bool  // the batch installed a request for it
	sampled   bool  // an admission-latency sample (obsSampler)
}

// Admission tiers of a batch row.
const (
	batchNone    uint8 = iota // not admitted by the batch
	batchFast                 // a latch-free tier (counted as a fast-path hit)
	batchLatched              // a shard visit (counted as a fallback)
)

// AcquireRows acquires mode on row lock rows[i] of table for every i, as
// one batch (see the file comment): latch-free tiers first, then one latch
// visit per home shard, then the ordinary Acquire from the first row the
// batch could not admit. The caller holds the table intent lock. It
// returns how many rows, in order, are held — len(rows) unless a row's
// Acquire failed, whose error it returns.
func (m *Manager) AcquireRows(ctx context.Context, o *Owner, table uint32, rows []uint64, mode Mode) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	if !mode.Valid() {
		return 0, m.Acquire(ctx, o, RowName(table, rows[0]), mode, 1)
	}
	b := &o.rows
	stop := m.batchFastTier(o, b, table, rows, mode)
	slices.Sort(b.keys)
	for k := 0; k < len(b.keys); {
		si, end := int(b.keys[k]>>32), k+1
		for end < len(b.keys) && int(b.keys[end]>>32) == si {
			end++
		}
		if int(uint32(b.keys[k])) < stop {
			stop = m.admitShardRows(o, si, b, b.keys[k:end], mode, stop)
		}
		k = end
	}
	if stop < len(rows) {
		m.rollbackRows(o, b, stop)
	}
	m.countBatch(o, b, stop)
	m.flushConts()
	b.ents, b.keys = b.ents[:0], b.keys[:0]
	if p := b.wait; p != nil {
		b.wait = nil
		if _, err := m.await(ctx, o, RowName(table, rows[stop-1]), p); err != nil {
			return stop - 1, err
		}
	}
	for i := stop; i < len(rows); i++ {
		if err := m.Acquire(ctx, o, RowName(table, rows[i]), mode, 1); err != nil {
			return i, err
		}
	}
	return len(rows), nil
}

// batchFastTier fills b with the statement's rows, admitting what the
// latch-free tiers can and keying the rest for the shard visits. It
// returns the first row the batch cannot admit: len(rows), or the row at
// which the fast tier found the owner released.
func (m *Manager) batchFastTier(o *Owner, b *rowBatch, table uint32, rows []uint64, mode Mode) int {
	fast := fastEligible(mode)
	for i, row := range rows {
		name := RowName(table, row)
		hash := hashName(name)
		o.obsTick++
		e := batchRow{name: name, hash: hash, si: int(hash & m.shardMask), sampled: m.obsSampler.Admit(o.obsTick)}
		if fast {
			var t0 time.Time
			if e.sampled {
				t0 = time.Now()
			}
			if p, installed := m.tryFastAcquire(o, name, mode, 1, hash, e.si, true, e.sampled); p != nil {
				if st, _ := p.Status(); st != StatusGranted {
					b.ents = append(b.ents, e)
					return i // owner released: Acquire reports it
				}
				e.tier, e.installed = batchFast, installed
				if e.sampled {
					m.admitHist.RecordStripe(e.si, time.Since(t0).Nanoseconds())
				}
			}
		}
		if e.tier == batchNone {
			b.keys = append(b.keys, uint64(e.si)<<32|uint64(i))
		}
		b.ents = append(b.ents, e)
	}
	return len(rows)
}

// admitShardRows is one shard visit: it admits the rows of keys (one
// shard's, ascending by row index) that lie before stop, under one latch
// and one o.mu hold, and returns the new stop: the first row it could not
// admit, the row after one it queued (b.wait), or stop unchanged.
func (m *Manager) admitShardRows(o *Owner, si int, b *rowBatch, keys []uint64, mode Mode, stop int) int {
	s := &m.shards[si]
	sampled := false
	for _, k := range keys {
		sampled = sampled || b.ents[uint32(k)].sampled
	}
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	for need := len(keys) - len(o.cache.boxes) - int(s.rfreeN.Load()); len(b.spare) < need; {
		b.spare = append(b.spare, m.newBox())
	}
	s = m.lockShard(si)
	o.mu.Lock()
	granted := 0
	if o.released {
		stop = int(uint32(keys[0])) // Acquire reports it
	} else {
		o.markTouched(si)
		for _, k := range keys {
			i := int(uint32(k))
			if i >= stop {
				break
			}
			if !m.admitBatchRow(s, o, &b.ents[i], b, mode) {
				stop = i
				break
			}
			granted++
		}
	}
	o.mu.Unlock()
	m.grants.Writer(o.app.id).Add(int64(granted))
	if b.added {
		b.added = false
		s.syncTableMirror()
	}
	if req := b.blocked; req != nil {
		b.blocked = nil
		if b.queueable(stop) {
			req.pending = &req.box.pend
			req.pending.wake = o.wake
			b.wait = req.pending
			b.ents[stop].tier = batchLatched
			m.enqueueWaiter(s, si, req.header, req)
			granted++
			stop++
		} else {
			// Back out the allocation and the header, as a denied waiter
			// would; Acquire queues the row after the rollback.
			h := req.header
			m.freeRequestStructs(s, req)
			s.cacheOrEvict(h)
			m.settleFast(s, h)
			s.pushBox(req.box)
		}
	}
	if granted > 0 && s.fastPublishedN.Load() > 0 {
		m.maybeRefillFastCredit(s)
	}
	m.unlockShard(s)
	if sampled {
		for _, k := range keys[:granted] {
			if b.ents[uint32(k)].sampled {
				m.admitHist.RecordStripe(si, time.Since(t0).Nanoseconds())
			}
		}
	}
	return stop
}

// admitBatchRow admits one row inside a shard visit through the
// single-latch admission startRequest runs, reporting false where
// startRequest would convert, go global or queue. Only the last leaves
// anything behind: the request, allocated and sealed on its header, in
// b.blocked for the visit to queue or back out. Caller holds s's latch and
// o.mu; o is not released.
func (m *Manager) admitBatchRow(s *shard, o *Owner, e *batchRow, b *rowBatch, mode Mode) bool {
	if cur, covered := o.heldCover(e.name, e.hash, mode); covered {
		e.tier = batchLatched
		return true
	} else if cur != nil {
		return false // a conversion: Acquire runs it
	}
	hdl, ok := m.allocLocal(s, o.app, 1)
	if !ok {
		return false
	}
	box := o.cache.popBox()
	if box == nil {
		box = s.popBox()
	}
	if box == nil {
		if n := len(b.spare); n > 0 {
			box, b.spare = b.spare[n-1], b.spare[:n-1]
		} else {
			box = &requestAndPending{} // raced empty; rare
		}
	}
	req := &box.req
	req.owner = o
	req.name = e.name
	req.hash = e.hash
	req.mode = mode
	req.weight = 1
	req.handle = hdl
	req.box = box
	req.recyclable = true // its Pending never leaves AcquireRows
	req.obsSampled = e.sampled
	h, added := s.headerForDeferred(e.hash, e.name, &o.cache)
	b.added = b.added || added
	if !m.grantLocal(s, h, req) {
		req.header = h
		b.blocked = req
		return false
	}
	if e.sampled {
		req.grantedAt = time.Now()
	}
	e.tier, e.installed = batchLatched, true
	return true
}

// queueable reports whether row i may wait inside its visit: every row
// before it is admitted and none after it, so the batch holds exactly what
// a per-row Acquire of row i would hold while it waits.
func (b *rowBatch) queueable(i int) bool {
	for j, e := range b.ents {
		if (e.tier == batchNone) != (j >= i) {
			return false
		}
	}
	return true
}

// rollbackRows releases each request the batch installed at or after
// stop, unless a kept row before stop names the same lock.
func (m *Manager) rollbackRows(o *Owner, b *rowBatch, stop int) {
	for _, e := range b.ents[stop:] {
		if e.installed && !slices.ContainsFunc(b.ents[:stop], func(k batchRow) bool { return k.name == e.name }) {
			_ = m.Release(o, e.name)
		}
	}
}

// countBatch counts the admissions the batch keeps, those before stop, in
// the funnel: a fast-path hit per row the latch-free tiers admitted, a
// fallback per row a shard visit admitted.
func (m *Manager) countBatch(o *Owner, b *rowBatch, stop int) {
	var fast, latched int64
	for _, e := range b.ents[:stop] {
		switch e.tier {
		case batchFast:
			fast++
		case batchLatched:
			latched++
		}
	}
	m.fastHits.Writer(o.app.id).Add(fast)
	m.fastFallbacks.Writer(o.app.id).Add(latched)
}
