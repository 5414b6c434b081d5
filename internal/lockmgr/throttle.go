package lockmgr

// throttle.go is the saturation-aware admission throttle: a per-shard
// ceiling c on how many of a hot lock's waiters are served in arrival
// order. Once a header already has c waiters, enqueueWaiter inserts each
// new one at index c instead of appending it, so the first c waiters are
// served FIFO and the rest newest-first. Every waiter is an ordinary
// queued request — structures, queue position, wait-graph edges — so the
// wait list has one waiting state. The newest-first overflow is Dice &
// Kogan's passive-set order ("Avoiding Scalability Collapse by
// Restricting Concurrency"): the most recently arrived goroutine is the
// warmest, and serving it next lowers hot-row median latency
// (EXPERIMENTS.md, "Throttle by queue order").
//
// Fairness. Newest-first alone could starve an early overflow waiter
// under a steady stream of arrivals. SweepTimeouts doubles as the valve
// (Dice & Kogan's long-term fairness): each pass moves each header's
// oldest waiter past index c, once it has sat through
// throttleStalePasses passes, up to index c — the front of the overflow
// (promoteStale).
//
// Control. The per-shard ceiling is retuned by RetuneThrottle on the same
// STMM cadence that tunes lock memory, from signals the manager already
// exports: the queue-depth high-water mark since the last window, the
// lock-wait p99, and the grant-throughput delta between windows. A
// disengaged shard (ceiling 0) pays exactly one atomic load per wait, and
// the controller disengages again after two quiet windows (hysteresis).
// Every adjustment lands in the decision log as kind "throttle-tune",
// replayable via /debug/tuner.

import (
	"fmt"

	"repro/internal/obs"
)

const (
	// throttleCeilMin / throttleCeilMax clamp every ceiling the
	// controller can set (a fixed Config.Throttle is clamped to the max
	// only): below 2 the FIFO head cannot pipeline a grant with the next
	// waiter's wakeup; 64 bounds how far the hill-climb can step up.
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
	// throttleStalePasses is the fairness valve's age bound: a waiter
	// past the ceiling that has sat through this many SweepTimeouts
	// passes is eligible for promotion to the front of the overflow.
	throttleStalePasses = 2
)

// promoteStale is the fairness valve (see the file comment): it moves h's
// oldest waiter past index c — smallest waitPass, the furthest back among
// ties — to index c, once it is throttleStalePasses passes old and the
// waiter at c is no older. The promoted waiter is stamped 0, so it wins
// index c back on every pass until a grant moves it into the FIFO part.
// Caller holds the shard latch. Reordering behind the blocked head grants
// nothing, so the word stays fenced.
func promoteStale(h *lockHeader, c int, pass uint64) {
	if len(h.waiters) <= c+1 {
		return
	}
	old := c + 1
	for j := c + 2; j < len(h.waiters); j++ {
		if h.waiters[j].waitPass <= h.waiters[old].waitPass {
			old = j
		}
	}
	w := h.waiters[old]
	if h.waiters[c].waitPass < w.waitPass || pass-w.waitPass < throttleStalePasses {
		return
	}
	copy(h.waiters[c+1:old+1], h.waiters[c:old])
	h.waiters[c] = w
	w.waitPass = 0
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
	grantsNow := m.grants.Total()
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
// clock. DecisionLog.Add takes only the log's own mutex, so the sink is a
// leaf. The engine wires it during Open.
func (m *Manager) SetThrottleDecisionLog(dl *obs.DecisionLog) {
	if dl == nil {
		return
	}
	m.throtDL.Store(dl)
}

// ThrottleCulled returns how many waiters the admission throttle has
// queued behind a ceiling (inserted newest-first), ever. Lock-free.
func (m *Manager) ThrottleCulled() int64 { return m.throtCulled.Total() }

// ThrottleCulledValues returns the per-shard culled counts.
func (m *Manager) ThrottleCulledValues() []int64 { return m.throtCulled.Values() }

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
