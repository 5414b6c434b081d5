package lockmgr

// throttle.go is the saturation-aware admission throttle: a per-shard
// concurrency limiter that keeps a hot lock's active wait queue at an
// adaptive ceiling and parks the excess in a passive per-header culled set,
// after Dice & Kogan ("Avoiding Scalability Collapse by Restricting
// Concurrency"): past a contended lock's saturation knee, every additional
// active waiter *reduces* throughput — it lengthens the FIFO grant walk,
// fattens the deadlock detector's wait-graph export, and multiplies wakeup
// traffic — so the highest-throughput policy is to admit only as many
// waiters as the queue can drain and feed the rest back as it does.
//
// Mechanics. A culled request is registered in its shard's waiting set
// (so SweepTimeouts, cancel, and the abort path find it — it still honors
// LockTimeout and owner abort) and stacked on its header's culled LIFO,
// but holds no lock structures, no quota, no FIFO queue position, and
// exports no deadlock-graph edges. Reactivation piggybacks on the posting
// pass (post): releases and denials refill the active queue from the
// culled stack as headroom opens, re-running the full admission pipeline
// via a self-latching continuation (retryCulled, the retryParked shape).
// LIFO order is deliberate — the most recently culled waiter's goroutine
// and cache state are the warmest (Dice & Kogan's "passive set" policy).
//
// Liveness. Culled waiters are throughput-invisible but NOT
// liveness-invisible: a culled owner may hold locks the active queue
// needs, and with no wait-graph edges the deadlock detector cannot see
// the cycle. SweepTimeouts doubles as the valve — each pass
// force-reactivates the oldest culled waiter of any header whose culled
// set has stopped draining (pass age ≥ 2), so every culled waiter regains
// detector visibility within a bounded number of sweep passes and real
// cycles are broken at most two passes late (see docs/ALGORITHM.md,
// "Saturation-aware throttling").
//
// Control. The per-shard ceiling is retuned by RetuneThrottle on the same
// STMM cadence that tunes lock memory, from signals the manager already
// exports: the queue-depth high-water mark since the last window, the
// lock-wait p99, and the grant-throughput delta between windows. A
// disengaged shard (ceiling 0) pays exactly one atomic load per admission
// — quiet tables never pay anything — and the controller disengages again
// after two quiet windows (hysteresis). Every adjustment lands in the
// decision log as kind "throttle-tune", replayable via /debug/tuner.

import (
	"fmt"

	"repro/internal/obs"
)

const (
	// throttleCeilMin / throttleCeilMax clamp every ceiling the
	// controller (or a fixed Config.Throttle) can set: below 2 the active
	// queue cannot pipeline a grant with the next waiter's wakeup; above
	// 64 the FIFO walk and detector export costs the limiter exists to
	// bound are already back.
	throttleCeilMin = 2
	throttleCeilMax = 64
	// throttleEngageHW is the queue-depth high-water mark at which a
	// disengaged shard's controller engages: depth 16 is past the knee on
	// every shape we bench while short convoys on quiet tables (the
	// common case) never trip it.
	throttleEngageHW = 16
	// throttleEngageCeil is the ceiling installed at engage — half the
	// engage threshold, so the first window already restricts.
	throttleEngageCeil = 8
	// throttleQuietWindows is how many consecutive retune windows with a
	// zero high-water mark disengage the ceiling (hysteresis: one idle
	// window is not proof the storm has passed).
	throttleQuietWindows = 2
	// throttleStalePasses is the culled-set liveness valve's age bound:
	// a header whose oldest culled waiter has sat through this many
	// SweepTimeouts passes without draining gets one waiter
	// force-reactivated per pass.
	throttleStalePasses = 2
)

// maybeCull decides whether req — a new, non-conversion request — should
// be diverted into its header's culled set instead of the admission
// pipeline, and performs the cull if so. Caller holds the shard latch and
// req.owner.mu, and has already checked that the shard's ceiling is
// engaged. Returns whether the request was culled (its Pending stays
// StatusWaiting; grant or denial arrives via reactivation, timeout,
// cancel, or abort).
func (m *Manager) maybeCull(s *shard, si int, req *request) bool {
	if req.everQueued {
		// A request that has already waited — reactivated from the culled
		// set, or retried after an escalation park — is never culled
		// (again). Re-culling a reactivated waiter would bounce it between
		// the stack and the admission pipeline whenever the queue refilled
		// first, and would defeat the liveness valve outright: a
		// force-reactivated waiter must actually reach the active queue to
		// regain its deadlock-graph edges.
		return false
	}
	h := s.header(req.hash, req.name)
	if h == nil {
		// No header means no contention on this name: a quiet lock is
		// never culled (it will be granted, not queued).
		return false
	}
	ceil := int(s.throtCeil.Load())
	if ceil <= 0 || len(h.waiters)+h.reactInFlight < ceil {
		return false
	}
	m.beginWait(req)
	req.culled = true
	req.culledPass = m.sweepPass.Load()
	req.header = h
	h.culled = append(h.culled, req)
	s.addWaiting(req)
	m.throtCulled.Shard(si).Inc()
	m.throtLive.Add(1)
	// The backlog still counts toward the lock's blamed queue depth and
	// the controller's high-water signal: a culled waiter is deferred
	// demand, not absent demand.
	depth := len(h.converters) + len(h.waiters) + len(h.culled)
	throtDepthMax(s, int32(depth))
	m.hot.Observe(si, h.name, hotEventBlameNs, obs.HotQueueMax, int64(depth))
	if m.flight != nil {
		m.flightRecord(si, m.clk.Now(), flightRec{kind: flightCulled, app: req.owner.app.id,
			name: h.name, mode: req.mode, owner: req.owner.id, val: int64(depth)})
	}
	// Fence the grant word while culled waiters exist (recomputeWord
	// treats them like queued ones), so every release takes the latched
	// path and reaches post — the reactivation trigger. Usually a no-op:
	// culling requires a full active queue, which already fences.
	m.sealFast(h)
	m.settleFast(s, h)
	return true
}

// reactivateCulled refills h's active queue from its culled stack, newest
// first, up to the shard's ceiling headroom — or entirely, if the ceiling
// has since disengaged. Each popped waiter re-enters the admission
// pipeline via a self-latching continuation; reactInFlight reserves its
// queue slot until that continuation runs, so one posting pass cannot
// over-admit past the ceiling. Caller holds the shard latch; callers
// flush continuations after dropping it (every posting site already
// does).
func (m *Manager) reactivateCulled(s *shard, h *lockHeader) {
	free := len(h.culled)
	if ceil := int(s.throtCeil.Load()); ceil > 0 {
		free = ceil - (len(h.waiters) + len(h.converters) + h.reactInFlight)
	}
	for free > 0 && len(h.culled) > 0 {
		m.popCulled(s, h, len(h.culled)-1)
		free--
	}
}

// popCulled removes h.culled[i], counts the reactivation, and enqueues the
// continuation that re-runs admission for it. Caller holds the shard
// latch.
func (m *Manager) popCulled(s *shard, h *lockHeader, i int) {
	req := h.culled[i]
	h.culled = removeAt(h.culled, i)
	req.culled = false
	h.reactInFlight++
	m.throtReact.Shard(s.idx).Inc()
	m.throtLive.Add(-1)
	m.enqueueCont(cont{fn: (*Manager).retryCulled, req: req, pin: req.owner.pin()})
}

// retryCulled re-runs the admission pipeline for a reactivated culled
// waiter, unless it was denied (timeout, cancel, abort) in the window
// between the pop and this continuation. It runs with no latches held and
// mirrors retryParked: latch the home shard, release the reserved queue
// slot, re-check the pending, then fast-path admission with a global
// fallback. The header stays resident across the window — eviction is
// pinned by reactInFlight (cacheOrEvictDeferred) — so the decrement
// through req.header is safe.
func (m *Manager) retryCulled(req *request, _ error) {
	si := m.shardOf(req.name)
	s := m.lockShard(si)
	h := req.header
	if h != nil && h.reactInFlight > 0 {
		h.reactInFlight--
	}
	s.delWaiting(req)
	if req.pending == nil {
		s.cacheOrEvict(h)
		m.unlockShard(s)
		return // already denied while culled
	}
	if st, _ := req.pending.Status(); st != StatusWaiting {
		s.cacheOrEvict(h)
		m.unlockShard(s)
		return
	}
	ok := m.startRequest(s, si, req, false)
	m.unlockShard(s)
	if !ok {
		// Same admission-of-last-resort rationale as retryParked: the
		// retry may need quota growth or an escalation, which require
		// every latch.
		m.runGlobal(func() {
			if !m.startRequest(s, si, req, true) {
				panic("lockmgr: global culled retry deferred admission")
			}
		})
	}
}

// sweepCulled is the liveness valve (see the file comment): for each
// header whose oldest culled waiter has aged past throttleStalePasses, it
// force-reactivates that oldest waiter — the culled LIFO's bottom entry,
// which was culled no later than any other — bypassing the ceiling.
// Progress restores the waiter's deadlock-graph edges, so a cycle through
// a culled owner becomes detectable within a bounded number of passes.
// Caller holds the shard latch; SweepTimeouts flushes the continuations.
func (m *Manager) sweepCulled(s *shard, stale []*lockHeader) {
	for _, h := range stale {
		if len(h.culled) == 0 {
			continue
		}
		m.popCulled(s, h, 0)
	}
}

// appendHeaderOnce appends h to list unless already present (the stale
// lists the sweep builds are a handful of headers, so linear dedup beats
// a map allocation).
func appendHeaderOnce(list []*lockHeader, h *lockHeader) []*lockHeader {
	for _, x := range list {
		if x == h {
			return list
		}
	}
	return append(list, h)
}

// throtDepthMax raises s.throtDepthHW to depth (CAS max — enqueues race).
func throtDepthMax(s *shard, depth int32) {
	for {
		cur := s.throtDepthHW.Load()
		if depth <= cur || s.throtDepthHW.CompareAndSwap(cur, depth) {
			return
		}
	}
}

// RetuneThrottle runs one pass of the adaptive ceiling controller over
// every shard. The STMM controller calls it on the same cadence as the
// lock-memory tuner (stmm.Controller.TuneOnce); tests and the sweep
// benches call it directly. It must have a single caller at a time — the
// per-shard scratch (grants at last window, previous delta, quiet count)
// is unsynchronized controller state, like the tuner's own.
//
// The policy per shard: disengaged ceilings engage when the queue-depth
// high-water mark since the last window crosses the saturation knee
// (throttleEngageHW). Engaged ceilings hill-climb on the grant-throughput
// delta between windows — keep stepping in the direction that improved
// throughput, reverse when it regressed — with a lock-wait p99 relief
// valve (a doubled p99 steps the ceiling up regardless), clamped to
// [throttleCeilMin, throttleCeilMax]. Two consecutive windows with a zero
// high-water mark disengage. Every change is recorded in the decision log
// (kind "throttle-tune"). No-op unless Config.Throttle == 0 (adaptive).
func (m *Manager) RetuneThrottle() {
	if m.cfg.Throttle != 0 {
		return // fixed or disabled ceiling: nothing adaptive to do
	}
	grantsNow := m.stats.grants.Load()
	p99 := int64(m.waitHist.Snapshot().Quantile(0.99))
	for i := range m.shards {
		s := &m.shards[i]
		hw := int(s.throtDepthHW.Swap(0))
		ceil := int(s.throtCeil.Load())
		delta := grantsNow - s.throtGrants
		s.throtGrants = grantsNow
		prevDelta, prevP99 := s.throtDelta, s.throtP99
		s.throtDelta, s.throtP99 = delta, p99

		if ceil == 0 {
			if hw < throttleEngageHW {
				continue
			}
			s.throtDir = -1 // restricting is the move that pays past the knee
			s.throtQuiet = 0
			s.throtCeil.Store(throttleEngageCeil)
			m.throtDecide(i, 0, throttleEngageCeil, hw, delta, p99, "throttle-engage",
				fmt.Sprintf("queue depth hw %d ≥ %d", hw, throttleEngageHW))
			continue
		}

		if hw == 0 {
			s.throtQuiet++
			if s.throtQuiet < throttleQuietWindows {
				continue
			}
			s.throtQuiet = 0
			s.throtCeil.Store(0)
			m.throtDecide(i, ceil, 0, hw, delta, p99, "throttle-disengage",
				fmt.Sprintf("%d quiet windows", throttleQuietWindows))
			continue
		}
		s.throtQuiet = 0

		step := ceil / 4
		if step < 1 {
			step = 1
		}
		next := ceil
		action, reason := "", ""
		switch {
		case prevP99 > 0 && p99 > 2*prevP99 && ceil < throttleCeilMax:
			// Latency relief valve: the restricted queue is hurting wait
			// p99 more than the knee was — give back some concurrency.
			next = ceil + step
			action = "throttle-up"
			reason = fmt.Sprintf("wait p99 %dns > 2× previous %dns", p99, prevP99)
		case prevDelta <= 0:
			// First engaged window (no baseline yet): hold and measure.
		case delta < prevDelta-prevDelta/8:
			// Throughput regressed > 12.5% since the last move: reverse.
			s.throtDir = -s.throtDir
			next = ceil + s.throtDir*step
			action = "throttle-reverse"
			reason = fmt.Sprintf("grants/window %d < previous %d", delta, prevDelta)
		default:
			// Improved or flat: keep climbing in the same direction.
			next = ceil + s.throtDir*step
			action = "throttle-step"
			reason = fmt.Sprintf("grants/window %d vs previous %d", delta, prevDelta)
		}
		if next < throttleCeilMin {
			next = throttleCeilMin
		}
		if next > throttleCeilMax {
			next = throttleCeilMax
		}
		if next == ceil {
			continue
		}
		s.throtCeil.Store(int32(next))
		m.throtDecide(i, ceil, next, hw, delta, p99, action, reason)
	}
}

// throtDecide records one ceiling adjustment in the throttle decision log
// (nil-safe no-op until SetThrottleDecisionLog wires one).
func (m *Manager) throtDecide(si, before, after, hw int, delta, p99 int64, action, reason string) {
	dl := m.throtDL.Load()
	if dl == nil {
		return
	}
	dl.Add(obs.Decision{
		Time:          m.clk.Now(),
		Kind:          obs.KindThrottleTune,
		Shard:         si,
		CeilingBefore: before,
		CeilingAfter:  after,
		QueueDepthHW:  int64(hw),
		GrantsDelta:   delta,
		WaitP99Ns:     p99,
		Action:        action,
		Reason:        reason,
	})
}

// SetThrottleDecisionLog routes every ceiling adjustment RetuneThrottle
// makes into dl, as KindThrottleTune decisions stamped on the manager's
// clock — the same leaf discipline as SetLatchDecisionLog (DecisionLog.Add
// takes only the log's own mutex). The engine wires it during Open.
func (m *Manager) SetThrottleDecisionLog(dl *obs.DecisionLog) {
	if dl == nil {
		return
	}
	m.throtDL.Store(dl)
}

// ThrottleCulled returns how many waiters the admission throttle has
// diverted into the passive culled set, ever. Lock-free.
func (m *Manager) ThrottleCulled() int64 { return m.throtCulled.Total() }

// ThrottleReactivated returns how many culled waiters have been fed back
// into the admission pipeline. Lock-free.
func (m *Manager) ThrottleReactivated() int64 { return m.throtReact.Total() }

// ThrottleDenied returns how many culled waiters were denied in place
// (timeout, cancel, abort). Every culled waiter resolves exactly once:
// ThrottleCulled == ThrottleReactivated + ThrottleDenied + ThrottleLive.
// Lock-free.
func (m *Manager) ThrottleDenied() int64 { return m.throtDenied.Total() }

// ThrottleLive returns how many culled waiters are parked right now.
// Lock-free.
func (m *Manager) ThrottleLive() int64 { return m.throtLive.Load() }

// ThrottleCulledValues returns the per-shard culled counts.
func (m *Manager) ThrottleCulledValues() []int64 { return m.throtCulled.Values() }

// ThrottleReactivatedValues returns the per-shard reactivation counts.
func (m *Manager) ThrottleReactivatedValues() []int64 { return m.throtReact.Values() }

// ThrottleCeilings returns each shard's live concurrency ceiling (0 =
// disengaged). Lock-free.
func (m *Manager) ThrottleCeilings() []int {
	out := make([]int, len(m.shards))
	for i := range m.shards {
		out[i] = int(m.shards[i].throtCeil.Load())
	}
	return out
}

// ThrottleCeilingMax returns the highest engaged ceiling across shards (0
// when fully disengaged) — the scalar the engine snapshot and sim series
// report. Lock-free.
func (m *Manager) ThrottleCeilingMax() int {
	max := 0
	for i := range m.shards {
		if c := int(m.shards[i].throtCeil.Load()); c > max {
			max = c
		}
	}
	return max
}
