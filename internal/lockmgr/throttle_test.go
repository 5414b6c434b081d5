package lockmgr

// Tests for the saturation-aware admission throttle (throttle.go): fixed
// ceilings cull and reactivate, culled waiters keep their liveness
// semantics (timeout, abort, deadlock via the sweep valve), and the
// adaptive controller engages, steps, and disengages with every move in
// the decision log.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// throttleIdentity asserts the lifetime accounting identity
// culled == reactivated + denied + live and runs CheckInvariants.
func throttleIdentity(t *testing.T, m *Manager) {
	t.Helper()
	c, r, d, l := m.ThrottleCulled(), m.ThrottleReactivated(), m.ThrottleDenied(), m.ThrottleLive()
	if c != r+d+l {
		t.Fatalf("throttle identity broken: culled=%d reactivated=%d denied=%d live=%d", c, r, d, l)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestThrottleFixedCeilingCullAndDrain pins the tentpole mechanics with a
// fixed ceiling: waiters beyond the ceiling divert into the culled set,
// stay StatusWaiting, and are fed back by releases until the backlog
// drains — every culled waiter eventually granted, none lost.
func TestThrottleFixedCeilingCullAndDrain(t *testing.T) {
	m := newMgr(Config{Throttle: 2, Shards: 1})
	row := RowName(1, 1)
	holder := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(holder, row, ModeX, 1), "holder X")

	const n = 6
	owners := make([]*Owner, n)
	pends := make([]*Pending, n)
	for i := range owners {
		owners[i] = m.NewOwner(m.RegisterApp())
		pends[i] = m.AcquireAsync(owners[i], row, ModeS, 1)
		mustWait(t, pends[i], "S waiter")
	}
	// Ceiling 2: the first two occupy the active queue, the other four
	// are culled.
	if got := m.ThrottleCulled(); got != n-2 {
		t.Fatalf("culled = %d, want %d", got, n-2)
	}
	if got := m.ThrottleLive(); got != n-2 {
		t.Fatalf("live = %d, want %d", got, n-2)
	}
	throttleIdentity(t, m)

	// Drain: each release posts the queue and refills it from the culled
	// stack. Every waiter must resolve granted within n rounds.
	m.ReleaseAll(holder)
	for round := 0; round < n; round++ {
		done := true
		for i, p := range pends {
			st, err := p.Status()
			switch st {
			case StatusGranted:
				m.ReleaseAll(owners[i])
				pends[i] = nil
			case StatusWaiting:
				done = false
			default:
				t.Fatalf("waiter %d: status=%v err=%v", i, st, err)
			}
		}
		// Compact the granted-and-released entries.
		live := pends[:0]
		liveOwners := owners[:0]
		for i, p := range pends {
			if p != nil {
				live = append(live, p)
				liveOwners = append(liveOwners, owners[i])
			}
		}
		pends, owners = live, liveOwners
		if done && len(pends) == 0 {
			break
		}
	}
	if len(pends) != 0 {
		t.Fatalf("%d waiters never drained", len(pends))
	}
	if c, r := m.ThrottleCulled(), m.ThrottleReactivated(); c != n-2 || r != c {
		t.Fatalf("culled=%d reactivated=%d, want %d each after drain", c, r, n-2)
	}
	if got := m.ThrottleLive(); got != 0 {
		t.Fatalf("live = %d after drain, want 0", got)
	}
	throttleIdentity(t, m)
}

// TestThrottleDisabled pins the negative Config.Throttle escape hatch: no
// waiter is ever culled regardless of queue depth.
func TestThrottleDisabled(t *testing.T) {
	m := newMgr(Config{Throttle: -1, Shards: 1})
	row := RowName(1, 1)
	holder := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(holder, row, ModeX, 1), "holder X")
	for i := 0; i < 32; i++ {
		mustWait(t, m.AcquireAsync(m.NewOwner(m.RegisterApp()), row, ModeS, 1), "S waiter")
	}
	m.RetuneThrottle() // must be a no-op too
	if got := m.ThrottleCulled(); got != 0 {
		t.Fatalf("culled = %d with throttle disabled", got)
	}
	if got := m.ThrottleCeilingMax(); got != 0 {
		t.Fatalf("ceiling = %d with throttle disabled", got)
	}
}

// TestThrottleTimeoutWhileCulled: culled waiters stay in the shard's
// waiting set, so LockTimeout still fires for them — denied in place with
// ErrTimeout, never reactivated.
func TestThrottleTimeoutWhileCulled(t *testing.T) {
	clk := clock.NewSim()
	m := newMgr(Config{Throttle: 1, Shards: 1, Clock: clk, LockTimeout: 10 * time.Second})
	row := RowName(1, 1)
	holder := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(holder, row, ModeX, 1), "holder X")

	// Staggered deadlines: the active waiter (deadline t=10) expires
	// first; LIFO reactivation then refills the freed slot with c2 (the
	// newest, deadline re-stamped on reactivation), so c1 times out at
	// t=12 while still culled — the in-place denial path.
	active := m.AcquireAsync(m.NewOwner(m.RegisterApp()), row, ModeS, 1)
	mustWait(t, active, "active waiter")
	clk.Advance(2 * time.Second)
	c1 := m.AcquireAsync(m.NewOwner(m.RegisterApp()), row, ModeS, 1)
	mustWait(t, c1, "c1 (culled)")
	clk.Advance(2 * time.Second)
	c2owner := m.NewOwner(m.RegisterApp())
	c2 := m.AcquireAsync(c2owner, row, ModeS, 1)
	mustWait(t, c2, "c2 (culled)")
	if got := m.ThrottleCulled(); got != 2 {
		t.Fatalf("culled = %d, want 2", got)
	}

	clk.Advance(7 * time.Second) // t=11: only the active waiter expired
	if n := m.SweepTimeouts(); n != 1 {
		t.Fatalf("swept %d at t=11, want 1 (active waiter)", n)
	}
	if st, err := active.Status(); st != StatusDenied || !errors.Is(err, ErrTimeout) {
		t.Fatalf("active waiter: status=%v err=%v, want timeout denial", st, err)
	}
	// The freed slot was refilled newest-first: c2 reactivated, c1 still
	// culled.
	if r := m.ThrottleReactivated(); r != 1 {
		t.Fatalf("reactivated = %d after refill, want 1 (c2)", r)
	}
	mustWait(t, c2, "c2 after reactivation")

	clk.Advance(2 * time.Second) // t=13: c1 (deadline 12) expired while culled
	if n := m.SweepTimeouts(); n != 1 {
		t.Fatalf("swept %d at t=13, want 1 (c1)", n)
	}
	if st, err := c1.Status(); st != StatusDenied || !errors.Is(err, ErrTimeout) {
		t.Fatalf("c1: status=%v err=%v, want timeout denial while culled", st, err)
	}
	if d := m.ThrottleDenied(); d != 1 {
		t.Fatalf("denied = %d, want 1 (c1 denied in place)", d)
	}
	if l := m.ThrottleLive(); l != 0 {
		t.Fatalf("live = %d after denial, want 0", l)
	}
	throttleIdentity(t, m)
	m.ReleaseAll(holder)
	mustGrant(t, c2, "c2 after holder release")
	m.ReleaseAll(c2owner)
	throttleIdentity(t, m)
}

// TestThrottleAbortWhileCulled: an owner abort (ReleaseAll with a wait in
// flight) withdraws its culled request like any waiting one — denied with
// ErrCanceled, accounting exact.
func TestThrottleAbortWhileCulled(t *testing.T) {
	m := newMgr(Config{Throttle: 1, Shards: 1})
	row := RowName(1, 1)
	holder := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(holder, row, ModeX, 1), "holder X")

	mustWait(t, m.AcquireAsync(m.NewOwner(m.RegisterApp()), row, ModeS, 1), "active waiter")
	aborter := m.NewOwner(m.RegisterApp())
	culled := m.AcquireAsync(aborter, row, ModeS, 1)
	mustWait(t, culled, "culled waiter")
	if got := m.ThrottleCulled(); got != 1 {
		t.Fatalf("culled = %d, want 1", got)
	}

	m.ReleaseAll(aborter) // abort: the culled wait is withdrawn in place
	if st, err := culled.Status(); st != StatusDenied || !errors.Is(err, ErrCanceled) {
		t.Fatalf("culled waiter: status=%v err=%v, want cancel denial", st, err)
	}
	if d := m.ThrottleDenied(); d != 1 {
		t.Fatalf("denied = %d, want 1", d)
	}
	throttleIdentity(t, m)
	m.ReleaseAll(holder)
	throttleIdentity(t, m)
}

// TestThrottleDeadlockVictimCulledThenReactivated pins the liveness valve:
// a deadlock cycle through a culled waiter is invisible to the detector
// (culled waiters export no wait-graph edges), but SweepTimeouts
// force-reactivates stale culled waiters, after which the detector sees
// the cycle and breaks it.
func TestThrottleDeadlockVictimCulledThenReactivated(t *testing.T) {
	m := newMgr(Config{Throttle: 1, Shards: 1})
	rowA, rowB := RowName(1, 1), RowName(1, 2)
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())
	filler := m.NewOwner(m.RegisterApp())

	mustGrant(t, m.AcquireAsync(o1, rowA, ModeX, 1), "o1 X A")
	mustGrant(t, m.AcquireAsync(o2, rowB, ModeX, 1), "o2 X B")

	// The filler occupies rowA's single active-queue slot so o2's request
	// for A is culled — its wait-for edge to o1 disappears from the graph.
	pFiller := m.AcquireAsync(filler, rowA, ModeS, 1)
	mustWait(t, pFiller, "filler S A")
	p2 := m.AcquireAsync(o2, rowA, ModeS, 1)
	mustWait(t, p2, "o2 S A (culled)")
	if got := m.ThrottleCulled(); got != 1 {
		t.Fatalf("culled = %d, want 1", got)
	}
	// Close the cycle: o1 waits for B, held by o2.
	p1 := m.AcquireAsync(o1, rowB, ModeS, 1)
	mustWait(t, p1, "o1 S B")

	// The cycle exists but one edge is culled: the detector must not see
	// it (no false victim, but also no detection).
	if n := m.DetectDeadlocks(); n != 0 {
		t.Fatalf("detector denied %d with the edge culled, want 0", n)
	}

	// Two sweep passes age the culled waiter past the valve threshold and
	// force-reactivate it into the active queue, restoring its edge.
	m.SweepTimeouts()
	m.SweepTimeouts()
	if got := m.ThrottleReactivated(); got != 1 {
		t.Fatalf("reactivated = %d after valve sweeps, want 1", got)
	}

	if n := m.DetectDeadlocks(); n == 0 {
		t.Fatal("detector found nothing after reactivation, want a victim")
	}
	// The victim is the youngest owner on the cycle (o2): exactly one of
	// the two cycle edges must have been denied with ErrDeadlock.
	st1, err1 := p1.Status()
	st2, err2 := p2.Status()
	deadlocked := 0
	if st1 == StatusDenied && errors.Is(err1, ErrDeadlock) {
		deadlocked++
	}
	if st2 == StatusDenied && errors.Is(err2, ErrDeadlock) {
		deadlocked++
	}
	if deadlocked != 1 {
		t.Fatalf("deadlock denials = %d (p1=%v/%v p2=%v/%v), want exactly 1",
			deadlocked, st1, err1, st2, err2)
	}
	throttleIdentity(t, m)
	m.ReleaseAll(o1)
	m.ReleaseAll(o2)
	m.ReleaseAll(filler)
	throttleIdentity(t, m)
}

// TestRetuneThrottleEngageStepDisengage drives the adaptive controller
// through its whole lifecycle — engage past the knee, hill-climb step,
// disengage after quiet windows — and checks every move landed in the
// decision log.
func TestRetuneThrottleEngageStepDisengage(t *testing.T) {
	m := newMgr(Config{Shards: 1}) // Throttle 0: adaptive
	dl := obs.NewDecisionLog(64)
	m.SetThrottleDecisionLog(dl)
	row := RowName(1, 1)
	holder := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(holder, row, ModeX, 1), "holder X")

	// Build a queue past the engage threshold while disengaged: nothing
	// is culled, but the high-water mark records the depth.
	var owners []*Owner
	for i := 0; i < throttleEngageHW+4; i++ {
		o := m.NewOwner(m.RegisterApp())
		owners = append(owners, o)
		mustWait(t, m.AcquireAsync(o, row, ModeS, 1), "S waiter")
	}
	if got := m.ThrottleCulled(); got != 0 {
		t.Fatalf("culled = %d while disengaged, want 0", got)
	}

	m.RetuneThrottle()
	if got := m.ThrottleCeilingMax(); got != throttleEngageCeil {
		t.Fatalf("ceiling = %d after engage window, want %d", got, throttleEngageCeil)
	}
	// With the ceiling engaged and the active queue far past it, the next
	// arrival is culled.
	late := m.NewOwner(m.RegisterApp())
	owners = append(owners, late)
	mustWait(t, m.AcquireAsync(late, row, ModeS, 1), "late S waiter")
	if got := m.ThrottleCulled(); got != 1 {
		t.Fatalf("culled = %d after engage, want 1", got)
	}

	// Second busy window with no grants: throughput regressed, so the
	// controller reverses and steps the ceiling up.
	m.RetuneThrottle()
	stepped := m.ThrottleCeilingMax()
	if stepped == throttleEngageCeil || stepped == 0 {
		t.Fatalf("ceiling = %d after regressed window, want a step away from %d",
			stepped, throttleEngageCeil)
	}

	// Drain everything, then two quiet windows disengage.
	m.ReleaseAll(holder)
	for round := 0; round < len(owners); round++ {
		for _, o := range owners {
			m.ReleaseAll(o)
		}
	}
	if got := m.ThrottleLive(); got != 0 {
		t.Fatalf("live = %d after drain, want 0", got)
	}
	m.RetuneThrottle() // clears the drain window's residual high-water mark
	m.RetuneThrottle() // quiet window 1
	m.RetuneThrottle() // quiet window 2: disengage
	if got := m.ThrottleCeilingMax(); got != 0 {
		t.Fatalf("ceiling = %d after quiet windows, want 0 (disengaged)", got)
	}

	actions := map[string]int{}
	for _, d := range dl.Decisions() {
		if d.Kind != obs.KindThrottleTune {
			t.Fatalf("decision kind = %q, want %q", d.Kind, obs.KindThrottleTune)
		}
		if d.CeilingBefore == d.CeilingAfter {
			t.Fatalf("decision %+v records no ceiling change", d)
		}
		actions[d.Action]++
	}
	if actions["throttle-engage"] == 0 || actions["throttle-disengage"] == 0 {
		t.Fatalf("decision log actions = %v, want engage and disengage present", actions)
	}
	if len(dl.Decisions()) < 3 {
		t.Fatalf("decision log has %d entries, want every ceiling move (≥3)", len(dl.Decisions()))
	}
	throttleIdentity(t, m)
}

// TestThrottleConcurrentHammer pounds one hot lock from many goroutines
// with a fixed ceiling while sweeps, detection, and invariant checks run
// concurrently — the -race gate's target for the culled-set paths.
func TestThrottleConcurrentHammer(t *testing.T) {
	m := newMgr(Config{Throttle: 2, Shards: 2, LockTimeout: 20 * time.Millisecond})
	app := m.RegisterApp()
	row := RowName(7, 7)
	var wg sync.WaitGroup
	st := newStopper(t, &wg)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-st.C:
					return
				default:
				}
				o := m.NewOwner(app)
				mode := ModeS
				if (seed+i)%4 == 0 {
					mode = ModeX
				}
				// Errors (timeout under the storm) are expected; the
				// accounting identity at the end is the assertion.
				_ = m.Acquire(st.ctx, o, row, mode, 1)
				m.ReleaseAll(o)
			}
		}(g)
	}
	// Control plane: the maintenance loops the real engine runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-st.C:
				return
			default:
			}
			m.SweepTimeouts()
			m.DetectDeadlocks()
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(150 * time.Millisecond)
	st.stop()
	wg.Wait()
	m.SweepTimeouts() // final valve pass for any parked stragglers
	if got := m.ThrottleLive(); got != 0 {
		t.Fatalf("live = %d after full drain, want 0", got)
	}
	throttleIdentity(t, m)
}
