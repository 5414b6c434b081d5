package lockmgr

// Lock escalation (paper sections 1 and 2.2): when lock memory is
// constrained, or an application exceeds lockPercentPerApplication, the
// manager promotes the application's row locks on one table to a single
// table lock, dramatically reducing memory at the cost of concurrency.
//
// Escalation here converts the owner's existing table intent lock (IS/IX)
// to the supremum of its row-lock modes — S for pure readers, SIX or X when
// updates are involved. The conversion may have to wait for incompatible
// holders; the triggering request is "parked" and retried once the
// escalation completes (its row locks having been freed, or the new table
// lock covering it outright).
//
// escalate itself still runs in global mode: it is reached only from the
// admission pipeline of last resort (admitStructsGlobal), whose quota and
// memory decisions need a consistent view of every pool and the chain. The
// continuations it schedules — free the escalated rows, retry the parked
// request, abandon it on failure — do NOT: they are drained with no latches
// held and latch the shards they touch themselves, re-validating each
// target under its latch. A row released, a transaction committed, or a
// parked request timed out between enqueue and drain is simply observed and
// skipped; stale snapshot entries cost a latch acquisition, never
// correctness.

import (
	"cmp"
	"slices"
)

// escalate promotes o's row locks on its most structure-hungry table.
// parked, if non-nil, is the request that triggered escalation; it is
// retried after the escalation completes. Returns false when there is
// nothing to escalate (the caller then denies the triggering request).
// Caller holds all shard latches (global mode).
func (m *Manager) escalate(o *Owner, parked *request) bool {
	// Victim selection: the owner's table with the most row lock
	// structures, mirroring "promoting one or more row level locks to...
	// a table level lock" where it pays the most. o.mu covers the reads of
	// the owner's indexes (a stray ReleaseAll clears them under o.mu alone).
	o.mu.Lock()
	var victimOT *ownerTable
	for i := range o.tables {
		ot := &o.tables[i]
		if ot.tableReq == nil || !ot.tableReq.granted || ot.nRows == 0 {
			continue
		}
		if ot.tableReq.converting {
			continue // an escalation is already in flight on this table
		}
		if victimOT == nil || ot.rowStructs > victimOT.rowStructs {
			victimOT = ot
		}
	}
	if victimOT == nil {
		o.mu.Unlock()
		return false
	}
	victim, tableReq := victimOT.tid, victimOT.tableReq

	// Target mode: the weakest table mode covering every row lock held
	// (plus the triggering request if it is a row of the victim table).
	target := tableReq.mode
	o.held.Each(func(r *request) bool {
		if r.name.Gran == GranRow && r.name.Table == victim {
			target = Supremum(target, r.mode)
		}
		return true
	})
	o.mu.Unlock()
	if parked != nil && parked.name.Gran == GranRow && parked.name.Table == victim {
		target = Supremum(target, parked.mode)
	}

	m.stats.escalations.Add(1)
	if target == ModeX {
		m.stats.exclusiveEscalations.Add(1)
	}
	if m.cfg.Events != nil {
		m.cfg.Events.OnEscalation(o.app.id, victim, target)
	}
	if m.flight != nil {
		tn := tableReq.name
		m.flightRecord(m.shardOf(tn), m.clk.Now(), flightRec{kind: flightEscalation, app: o.app.id,
			name: tn, mode: target, owner: o.id})
	}

	if parked != nil {
		parked.parked = true
		parked.deadline = m.deadline()
		// The park is a wait from the requester's point of view: stamp it
		// so the wait histogram includes escalation stalls (the counter in
		// stats.waits is deliberately not bumped — parked requests are
		// retried, not queued behind a lock). Parked requests join the
		// waiting set and count in the owner's inWait gauge.
		m.markWaiting(parked, m.clk.Now())
		m.shardFor(parked.name).addWaiting(parked)
	}

	continueAfter := func(m *Manager, _ *request, _ error) {
		m.freeEscalatedRows(o, victim)
		m.retryParked(parked)
	}
	abandon := func(m *Manager, _ *request, err error) {
		m.abandonParked(parked, err)
	}

	if Supremum(tableReq.mode, target) == tableReq.mode {
		// The table lock is already strong enough (e.g. a prior
		// escalation); just shed the redundant row locks. The continuation
		// self-latches, so it cannot run here under every latch — it is
		// queued and drained as soon as the global section ends.
		m.enqueueCont(cont{fn: continueAfter, pin: o.pin()})
		return true
	}

	m.startConversion(tableReq, target, new(Pending), continueAfter, abandon)
	return true
}

// freeEscalatedRows releases every row lock o holds on the table; the
// escalated table lock now covers them. It runs as a continuation with no
// latches held: the table's rows are picked out of the held index under
// o.mu, sorted by home shard, and every row is re-validated under its
// shard's latch (plus o.mu for the index read) before release — rows the
// owner released or converted in the meantime are skipped.
func (m *Manager) freeEscalatedRows(o *Owner, table uint32) {
	// Snapshot (row, hash, request) under o.mu. The row keys are copied
	// out of the index: shard routing and revalidation below must not
	// dereference a request pointer the owner's commit may have released
	// concurrently — a released box can be recycled and rewritten by an
	// unrelated acquire.
	type rowSnap struct {
		row  uint64
		hash uint64
		r    *request
	}
	var rows []rowSnap
	o.mu.Lock()
	if ot := o.tableFor(table); ot != nil && ot.nRows > 0 {
		rows = make([]rowSnap, 0, ot.nRows)
		o.held.Each(func(r *request) bool {
			if r.name.Gran == GranRow && r.name.Table == table {
				rows = append(rows, rowSnap{r.name.Row, r.hash, r})
			}
			return true
		})
	}
	o.mu.Unlock()
	if len(rows) == 0 {
		return
	}

	// Walk the rows in ascending home-shard order, so each shard is
	// latched once and the latch order (and the order wakes fire in) is
	// the same on every run.
	slices.SortFunc(rows, func(a, b rowSnap) int {
		return cmp.Or(cmp.Compare(a.hash&m.shardMask, b.hash&m.shardMask), cmp.Compare(a.row, b.row))
	})
	for len(rows) > 0 {
		i := int(rows[0].hash & m.shardMask)
		n := 1
		for n < len(rows) && int(rows[n].hash&m.shardMask) == i {
			n++
		}
		batch := rows[:n]
		rows = rows[n:]
		s := m.lockShard(i)
		// Re-validate under the latch: a row request's granted/converting
		// state and its held membership only change under its home shard
		// latch (held) plus o.mu (taken for the index read), so the
		// filtered batch is accurate for as long as we hold the latch.
		// Pointer identity decides first; only a match proves e.r is
		// still this owner's live request, making its fields safe to read.
		live := batch[:0]
		o.mu.Lock()
		for _, e := range batch {
			if cur, ok := o.heldGet(e.hash, RowName(table, e.row)); ok && cur == e.r && e.r.granted {
				live = append(live, e)
			}
		}
		o.mu.Unlock()
		for _, e := range live {
			if e.r.converting {
				// A row conversion in flight is subsumed by the table lock.
				m.deny(e.r, ErrCanceled)
			}
			m.releaseGranted(e.r)
		}
		m.unlockShard(s)
	}
}

// retryParked re-runs the admission pipeline for a request that was parked
// behind an escalation, unless it was denied (timed out) in the meantime.
// It runs as a continuation with no latches held: it latches the parked
// request's home shard, re-checks that the request is still pending, and
// first attempts fast-path admission — the escalation just freed structures,
// so the common case grants locally. Only if the fast path backs out does
// it fall back to the global pipeline.
func (m *Manager) retryParked(parked *request) {
	if parked == nil {
		return
	}
	si := m.shardOf(parked.name)
	s := m.lockShard(si)
	s.delWaiting(parked)
	if parked.pending == nil {
		m.unlockShard(s)
		return // already denied (timed out) while parked
	}
	if st, _ := parked.pending.Status(); st != StatusWaiting {
		m.unlockShard(s)
		return
	}
	ok := m.startRequest(s, si, parked, nil, false)
	m.unlockShard(s)
	if !ok {
		// runGlobal survivor: same admission-of-last-resort rationale as
		// AcquireAsync — the retry may itself need quota growth or a
		// further escalation, which require every latch.
		m.runGlobal(func() {
			if !m.startRequest(s, si, parked, nil, true) {
				panic("lockmgr: global retry deferred admission")
			}
		})
	}
}

// abandonParked denies a parked request after its escalation failed. It
// runs as a continuation with no latches held; the deny happens under the
// parked request's home shard latch, and a request that was already
// completed (e.g. it timed out before the escalation did) is left alone.
func (m *Manager) abandonParked(parked *request, err error) {
	if parked == nil {
		return
	}
	s := m.lockShard(m.shardOf(parked.name))
	// parked.pending is nil when the parked request was already completed.
	if parked.pending != nil {
		if st, _ := parked.pending.Status(); st == StatusWaiting {
			m.deny(parked, err)
		}
	}
	m.unlockShard(s)
}
