package lockmgr

// Group release: the commit-side batching stage of the release path.
//
// A quiesced commit detaches its whole held set from the owner's indexes
// in one o.mu section (collectDetach) and then visits each touched shard.
// On a quiet shard, or one with waiters, it latches and applies its batch
// directly — the same single latch acquisition the touched-shard walk
// always paid — so every grant the release makes is delivered before
// ReleaseAll returns. On a storming shard without waiters (armed by real
// commit-side latch contention, and kept armed by multi-batch drains) the
// visit does NOT latch at all: it copies
// the shard's entries into a dedicated pooled batch and publishes it on
// the shard's MPSC staging list, fire-and-forget. Staged batches are pure
// intent — the lock table, grant words, quotas, and every invariant still
// describe the locks as held — so nothing needs to wait for them.
//
// Flush leaders turn the staged intent into releases in one latched
// section per group: swap the list, apply every batch (one frozen unlink
// pass each), then settle pool/chain/quota, run one FIFO posting pass,
// and sync the table mirror once (finishShardVisit). Leadership has three
// triggers, each elected by CAS on the shard's flush word:
//
//   - a committing walk, at walk end, for any touched shard whose list
//     has reached the combining threshold — or that has waiters, which
//     must never be left behind staged releases;
//   - any acquirer entering the shard's latched admission path while the
//     list is non-empty (drainStagedInline — a piggyback drain under the
//     latch the acquirer already paid for, no election needed), so
//     conflict evaluation and quota checks always see staged releases
//     applied first, at zero extra latch acquisitions. The admission path
//     re-checks the list again right after a request joins the waiting
//     set (enqueueWaiter / startConversion): the post-addWaiting re-check
//     and the walk's waiter-aware trigger form a store/load pair in both
//     directions, so a batch staged inside an acquirer's latched section
//     can never slip past both — the one interleave where neither side
//     alone would fire (trigger reads nWaiting before the enqueue, list
//     still below threshold, shard then goes quiet) is caught by the
//     re-check;
//   - a stager that hits the high-water bound (backpressure) — the one
//     case a committer waits: it spins, then parks on the shard's flush
//     condition until a drain completes, electing itself if no leader is
//     active, so parked stagers always have a live leader to wake them.
//
// Grant wakeups coalesce across the whole walk: post() defers each grant's
// Pending completion (a wake send — a runtime wakeup) and onGrant
// continuation into the drain's wake list, and the walk fires the list
// once after the last latch has been dropped. Wake-side work therefore
// never re-acquires a latch the walk already dropped, and a leader's
// latched section does no channel operations at all.
//
// Owner teardown is refcounted (Owner.stagedRefs): NewOwner sets one bias
// ref, which the release walk drops last; each staged batch holds one
// more, and so does each queued continuation that names the owner (an
// escalation step, a culled waiter's reactivation). Whoever drops the
// count to zero — the walk itself when nothing else is left, else the last
// flush leader or continuation — recycles the owner if FinishOwner
// promised exclusive ownership. That is what keeps a staged batch
// self-contained: its owner (and the app pointer the drain's quota settle
// needs) cannot be reset or reused while any batch is in flight.
//
// Contended-acquire signal (internal/latch): a commit visit's failed
// TryLock (tryLockShard) records one contended acquire on the latch, the
// same event a blocking acquire's slow path records. So the storm arm and
// the latch's spin-budget tuner observe one stream: a shard whose commits
// keep failing TryLock is armed for group release and retuned alike.
//
// Interaction with the fast path (fastpath.go): staging touches no grant
// word — it is invisible to CAS admissions and optimistic readers. The
// leader's unlink pass uses the same seal/settle protocol as a direct
// release (sealFastWord per holder removal, O(1) word settle for live
// words, settleFast in the posting pass), so the PR 5/6 fence and
// epoch-bump rules hold unchanged; a hot header merely stays fenced for
// one combined visit instead of several consecutive ones.

import (
	"runtime"

	"repro/internal/metrics"
)

// flushThreshold is how many staged batches make a shard's list due for a
// combined drain at commit walk end. Below it the list keeps
// accumulating — deferring the latch acquisition and the per-visit settle
// until enough release work has piled up to amortize them.
const flushThreshold = 8

// flushHighWater bounds a shard's staging list. A stager that would push
// past it first drains the list (or waits for the active leader to), so
// staged-but-unflushed intent — and the deferred teardown debt behind
// it — stays bounded under any arrival pattern.
const flushHighWater = 64

// flushSpinBudget is how many Gosched spins a backpressured stager burns
// before parking on the shard's flush condition.
const flushSpinBudget = 32

// flushCombineRounds bounds the leader's combining window: after draining
// the staging list it re-polls up to this many times, picking up batches
// staged while it was applying the previous round, before releasing the
// latch. Bounded so a steady arrival stream cannot capture the latch
// forever.
const flushCombineRounds = 4

// relStormArm is the arm value a shard gets on evidence of a commit storm
// (a failed commit-side TryLock, or a drain that combined ≥ 2 batches).
// Each single-batch combined drain decays the arm by one, so the shard
// needs that many consecutive solo drains to fall back to the direct
// path.
const relStormArm = 8

// wakeEntry is one deferred FIFO grant wakeup: the Pending to complete
// and/or the onGrant continuation to enqueue. The grant itself (install,
// accounting, inWait) was applied under the latch; only the notification
// is deferred.
type wakeEntry struct {
	p *Pending
	c cont // the onGrant continuation, its owner already pinned
}

// releaseDrain accumulates the cross-batch work of a release walk: the
// per-visit deferred posting list and settle totals (reset by
// finishShardVisit), and the walk-wide wake list (fired by fireWakes once
// every latch is dropped). Pooled; the steady-state commit walk allocates
// nothing.
type releaseDrain struct {
	hdrs      []*lockHeader // deferred posting pass; deduped via postPending
	poolFreed int           // pooled frees awaiting one SettleFree
	fastFreed int           // fast credit awaiting one recredit
	wakes     []wakeEntry   // deferred grant completions, FIFO per header
}

// releaseShardGrouped is one quiesced commit's visit to shard si: latch
// and apply directly when the shard is quiet or has waiters, publish a
// detached batch on the staging list when it is storming. b carries the
// owner's detached snapshot (collectDetach ran under o.mu); d accumulates
// deferred wakeups for the caller's post-walk pass. A shard with waiters
// is latched even if that blocks: its grants then land in d, delivered
// before ReleaseAll returns, and not in another drainer's later wake pass.
func (m *Manager) releaseShardGrouped(si int, o *Owner, b *releaseBatch, d *releaseDrain) {
	s := &m.shards[si]
	if waiters := s.nWaiting.Load() > 0; waiters || s.relStorm.Load() == 0 && s.relHead.Load() == nil {
		ok := true
		if waiters {
			m.lockShard(si)
		} else {
			_, ok = m.tryLockShard(si)
		}
		if ok {
			// A group of one. A batch staged between the list check and
			// the latch (a racing commit that failed its own TryLock
			// against us) is drained here too.
			m.releaseShardPhase1(s, si, o, b, true, d)
			m.relBatches.Shard(si).Inc()
			// No relCond broadcast for batches drained here: stagers only
			// park while a relFlush leader is active, and that leader
			// broadcasts when it finishes.
			m.drainStagedLocked(s, si, d)
			m.finishShardVisit(s, si, d)
			m.unlockShard(s)
			return
		}
		// Contended commit-side acquire. The failed TryLock just recorded
		// one contended acquire on the shard latch itself — the same
		// signal its spin-budget controller tunes from — so the storm arm
		// and the latch tuner fire on one shared definition of "this
		// shard is contended" (see the header). Arm the storm stage and
		// fall through to the group protocol.
		s.relStorm.Store(relStormArm)
	}

	// Storming shard: publish and move on. The entries were detached from
	// the owner at collect time, so after the CAS below the stager never
	// touches the staged batch (or these requests) again — the flush
	// leader owns it until the drain, after which arsenal slots revert to
	// the owner (guarded by stagedRefs) and pooled overflow batches go
	// back to releaseBatchPool.
	if int(s.relLen.Load()) >= flushHighWater {
		m.flushBackpressured(s, si, d)
	}
	var sb *releaseBatch
	if int(o.sbUsed) < len(o.sbArsenal) {
		sb = &o.sbArsenal[o.sbUsed]
		o.sbUsed++
		sb.pooled = false
	} else {
		sb = releaseBatchPool.Get().(*releaseBatch)
		sb.pooled = true
	}
	sb.reset()
	for _, e := range b.rows {
		if e.si == si {
			sb.rows = append(sb.rows, e)
		}
	}
	for _, e := range b.tables {
		if e.si == si {
			sb.tables = append(sb.tables, e)
		}
	}
	sb.stagedOwner, sb.stagedShard = o, si
	o.stagedRefs.Add(1)
	// relLen rises before the push and falls after a drain's pops, so it
	// never under-reports the list: the high-water bound and the
	// invariant checker can rely on it as an upper envelope.
	s.relLen.Add(1)
	for {
		head := s.relHead.Load()
		sb.next = head
		if s.relHead.CompareAndSwap(head, sb) {
			break
		}
	}
	m.flushWaits.Shard(si).Inc()
}

// maybeFlushShard is the commit walk's flush trigger, run per touched
// shard after the last visit: elect this committer flush leader if the
// shard's staging list has reached the combining threshold, or if the
// shard has waiters (ones that queued after the visit staged) — a stager
// must never leave waiters behind its own staged batch. In the waiter case
// the trigger waits out an active leader instead of skipping: the
// leader's last swap may predate our push. A stale nWaiting read cannot
// strand a waiter either: enqueueWaiter re-checks relHead after its
// addWaiting store (see its comment for the pairing argument).
func (m *Manager) maybeFlushShard(si int, d *releaseDrain) {
	s := &m.shards[si]
	for {
		if s.relHead.Load() == nil {
			return
		}
		waiters := s.nWaiting.Load() > 0
		if !waiters && int(s.relLen.Load()) < flushThreshold {
			return
		}
		if s.relFlush.CompareAndSwap(0, 1) {
			m.lockShard(si)
			n := m.drainStagedLocked(s, si, d)
			m.finishShardVisit(s, si, d)
			m.unlockShard(s)
			s.relFlush.Store(0)
			m.signalFlushed(s)
			// Combining feedback: group drains keep the shard armed,
			// solo drains decay it toward the direct path. A racing
			// re-arm losing one decrement is harmless.
			if n >= 2 {
				s.relStorm.Store(relStormArm)
			} else if n == 1 {
				if arm := s.relStorm.Load(); arm > 0 {
					s.relStorm.Store(arm - 1)
				}
			}
			return
		}
		if !waiters {
			return // active leader owns the list; a later trigger finishes it
		}
		runtime.Gosched()
	}
}

// drainStagedInline applies shard si's staged batches under a latch the
// caller already holds — the admission path's drain, costing zero extra
// latch acquisitions. Grant wakeups fire immediately (under the latch,
// like a plain grant); the deferred-wake optimization is reserved for the
// release walk. No flush-word election: the latch itself serializes
// against every latch-taking leader, and the list Swap is atomic against
// all of them. No relCond broadcast either — stagers only park while a
// relFlush leader is active, and that leader broadcasts when it is done.
// The drain scratch is embedded in the shard (latch-protected, like its
// table), so the per-acquire drain allocates nothing.
func (m *Manager) drainStagedInline(s *shard, si int) {
	d := &s.relInline
	m.drainStagedLocked(s, si, d)
	m.finishShardVisit(s, si, d)
	m.fireWakes(d)
}

// flushBackpressured bounds the staging list: called when a stager finds
// it at high water. Elect and drain if no leader is active; otherwise
// spin briefly and then park on the flush condition until the active
// leader's drain completes. The park guard re-checks under relMu: a
// leader lowers relFlush before it broadcasts (also under relMu), so
// observing relFlush != 0 here means that leader's broadcast is still
// ahead of us — no lost wakeup — and observing 0 means we must not park
// (we elect instead).
func (m *Manager) flushBackpressured(s *shard, si int, d *releaseDrain) {
	spins := 0
	for int(s.relLen.Load()) >= flushHighWater {
		if s.relFlush.CompareAndSwap(0, 1) {
			m.lockShard(si)
			m.drainStagedLocked(s, si, d)
			m.finishShardVisit(s, si, d)
			m.unlockShard(s)
			s.relFlush.Store(0)
			m.signalFlushed(s)
			return
		}
		if spins < flushSpinBudget {
			spins++
			runtime.Gosched()
			continue
		}
		s.relMu.Lock()
		if int(s.relLen.Load()) >= flushHighWater && s.relFlush.Load() != 0 {
			s.relCond.Wait()
		}
		s.relMu.Unlock()
		spins = 0
	}
}

// drainStagedLocked swaps the shard's staging list out and applies every
// staged batch, re-polling up to flushCombineRounds times for batches that
// arrived mid-drain. Each batch is returned to the pool — and its owner
// ref dropped — only after phase 1 has completely finished with it.
// Returns the number of batches drained. Caller holds the shard latch and
// must finish the visit (finishShardVisit) before dropping it.
func (m *Manager) drainStagedLocked(s *shard, si int, d *releaseDrain) int {
	n := 0
	for round := 0; round < flushCombineRounds; round++ {
		if s.relHead.Load() == nil {
			break // plain load keeps the empty case off the RMW path
		}
		sb := s.relHead.Swap(nil)
		if sb == nil {
			break
		}
		for sb != nil {
			next := sb.next
			o := sb.stagedOwner
			m.releaseShardPhase1(s, si, o, sb, true, d)
			m.relBatches.Shard(si).Inc()
			sb.next, sb.stagedOwner = nil, nil
			sb.reset()
			if sb.pooled {
				releaseBatchPool.Put(sb)
			}
			m.dropStagedRef(o)
			n++
			sb = next
		}
	}
	if n > 0 {
		s.relLen.Add(int32(-n))
	}
	return n
}

// dropStagedRef releases one hold on the owner's teardown count; the drop
// to zero performs the deferred FinishOwner recycling when it was
// promised. The atomic decrement orders the teardown after every other use
// of the owner.
func (m *Manager) dropStagedRef(o *Owner) {
	if o.stagedRefs.Add(-1) == 0 && o.recycleOnZero {
		if len(o.wake) != 0 {
			m.wakeLeaks.Add(1)
			<-o.wake
		}
		o.resetForReuse()
		m.ownerPool.Put(o)
	}
}

// flushAllStaged force-drains every shard's staging list regardless of
// length. This is the quiesce hook: staged batches are pure intent, so an
// idle manager would otherwise carry their charged structs forever. The
// last deregistering owner runs it (releaseAll), restoring the classical
// "all transactions finished ⇒ zero used structs" identity that callers
// of UsedStructs rely on. Racing leaders are waited out — on return every
// list observed non-empty here has been applied.
func (m *Manager) flushAllStaged(d *releaseDrain) {
	for si := range m.shards {
		s := &m.shards[si]
		for s.relHead.Load() != nil {
			if s.relFlush.CompareAndSwap(0, 1) {
				m.lockShard(si)
				m.drainStagedLocked(s, si, d)
				m.finishShardVisit(s, si, d)
				m.unlockShard(s)
				s.relFlush.Store(0)
				m.signalFlushed(s)
				m.fireWakes(d)
				continue
			}
			runtime.Gosched()
		}
	}
}

// FlushStaged applies every staged release batch immediately. Harnesses
// and shutdown paths that assert exact struct accounting while
// transactions may still be staging can call it to force quiescence.
func (m *Manager) FlushStaged() {
	var d releaseDrain
	m.flushAllStaged(&d)
}

// signalFlushed wakes every backpressured stager parked on the shard's
// flush condition. Callers must have lowered relFlush first; the
// broadcast runs under relMu so it cannot slip between a parker's guard
// check and its Wait.
func (m *Manager) signalFlushed(s *shard) {
	s.relMu.Lock()
	s.relCond.Broadcast()
	s.relMu.Unlock()
}

// fireWakes delivers the walk's deferred grant wakeups — Pending
// completions and onGrant continuations — in the order post() granted
// them. Caller holds no latches.
func (m *Manager) fireWakes(d *releaseDrain) {
	for i := range d.wakes {
		e := &d.wakes[i]
		if e.p != nil {
			e.p.complete(StatusGranted, nil)
		}
		if e.c.fn != nil {
			m.enqueueCont(e.c)
		}
		d.wakes[i] = wakeEntry{}
	}
	d.wakes = d.wakes[:0]
}

// ReleaseBatches returns the total number of release batches applied
// across all shards (one per owner-visit; batches drained by a flush
// leader count toward the shard they were staged on). Lock-free.
func (m *Manager) ReleaseBatches() int64 { return m.relBatches.Total() }

// ReleaseBatchCounters exposes the per-shard release-batch counters for
// metrics wiring.
func (m *Manager) ReleaseBatchCounters() *metrics.ShardCounters { return m.relBatches }

// WakeupsCoalesced returns how many FIFO grant wakeups were deferred out
// of a latched release section and fired in a post-walk pass. Lock-free.
func (m *Manager) WakeupsCoalesced() int64 { return m.wakesCoalesced.Total() }

// WakeupsCoalescedCounters exposes the per-shard coalesced-wakeup counters
// for metrics wiring.
func (m *Manager) WakeupsCoalescedCounters() *metrics.ShardCounters { return m.wakesCoalesced }

// FlushFollowerWaits returns how many commit-side shard visits deferred
// to a flush leader — staged their release batch instead of latching the
// shard themselves. Lock-free.
func (m *Manager) FlushFollowerWaits() int64 { return m.flushWaits.Total() }

// FlushFollowerWaitCounters exposes the per-shard follower-wait counters
// for metrics wiring.
func (m *Manager) FlushFollowerWaitCounters() *metrics.ShardCounters { return m.flushWaits }
