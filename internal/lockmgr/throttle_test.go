package lockmgr

// Tests for the saturation-aware admission throttle (throttle.go): a fixed
// ceiling serves the first waiters in arrival order and the rest
// newest-first, every waiter stays an ordinary queued request (timeout,
// abort and deadlock detection see it at once), the sweep valve promotes
// stale waiters, and the adaptive controller engages, steps, and
// disengages with every move in the decision log.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// mustInvariants runs CheckInvariants.
func mustInvariants(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// queueOf returns the owners on name's waiter queue, in queue order, read
// under its shard latch.
func queueOf(m *Manager, name Name) []*Owner {
	s := m.lockShard(m.shardOf(name))
	defer m.unlockShard(s)
	h := s.header(hashName(name), name)
	if h == nil {
		return nil
	}
	out := make([]*Owner, len(h.waiters))
	for i, w := range h.waiters {
		out[i] = w.owner
	}
	return out
}

// waitingNow sums the shards' waiting-set mirrors.
func waitingNow(m *Manager) int64 {
	var n int64
	for i := range m.shards {
		n += m.shards[i].nWaiting.Load()
	}
	return n
}

// drainInOrder releases holder, then each granted waiter in turn, and
// checks that the waiters want names (w1 = 0) are granted one at a time,
// in want's order.
func drainInOrder(t *testing.T, m *Manager, holder *Owner, owners []*Owner, pends []*Pending, want []int) {
	t.Helper()
	m.ReleaseAll(holder)
	for k, i := range want {
		mustGrant(t, pends[i], fmt.Sprintf("w%d, grant %d", i+1, k+1))
		for _, j := range want[k+1:] {
			mustWait(t, pends[j], fmt.Sprintf("w%d while w%d holds", j+1, i+1))
		}
		m.ReleaseAll(owners[i])
	}
}

// TestThrottleQueueOrder pins the queue order with a fixed ceiling of 2:
// six X waiters behind one X holder are granted w1, w2 (arrival order up
// to the ceiling), then w6, w5, w4, w3 (newest-first past it), and the
// four inserted waiters are counted.
func TestThrottleQueueOrder(t *testing.T) {
	m := newMgr(Config{Throttle: 2, Shards: 1})
	row := RowName(1, 1)
	holder := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(holder, row, ModeX, 1), "holder X")

	const n = 6
	owners := make([]*Owner, n)
	pends := make([]*Pending, n)
	for i := range owners {
		owners[i] = m.NewOwner(m.RegisterApp())
		pends[i] = m.AcquireAsync(owners[i], row, ModeX, 1)
		mustWait(t, pends[i], "X waiter")
	}
	if got := m.ThrottleCulled(); got != n-2 {
		t.Fatalf("culled = %d, want %d", got, n-2)
	}
	mustInvariants(t, m)
	drainInOrder(t, m, holder, owners, pends, []int{0, 1, 5, 4, 3, 2})
	if got := waitingNow(m); got != 0 {
		t.Fatalf("%d waiters left after drain", got)
	}
	mustInvariants(t, m)
}

// TestThrottleDisabled pins the negative Config.Throttle escape hatch: no
// waiter is ever inserted out of arrival order, whatever the queue depth.
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

// TestThrottleValvePromotesOldest pins the fairness valve: after two
// SweepTimeouts passes the oldest waiter past the ceiling (w3, the first
// inserted) sits at index c, and a further pass leaves it there.
func TestThrottleValvePromotesOldest(t *testing.T) {
	const c = 2
	m := newMgr(Config{Throttle: c, Shards: 1})
	row := RowName(1, 1)
	holder := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(holder, row, ModeX, 1), "holder X")
	owners := make([]*Owner, 6)
	for i := range owners {
		owners[i] = m.NewOwner(m.RegisterApp())
		mustWait(t, m.AcquireAsync(owners[i], row, ModeX, 1), "X waiter")
	}
	if q := queueOf(m, row); q[c] != owners[5] {
		t.Fatalf("before sweeps: index %d holds owner %d, want w6 (newest)", c, q[c].id)
	}
	m.SweepTimeouts()
	if q := queueOf(m, row); q[c] != owners[5] {
		t.Fatalf("after one pass: index %d holds owner %d, want w6 (too young to promote)", c, q[c].id)
	}
	for pass := 2; pass <= 3; pass++ {
		m.SweepTimeouts()
		q := queueOf(m, row)
		want := []*Owner{owners[0], owners[1], owners[2], owners[5], owners[4], owners[3]}
		for i := range want {
			if q[i] != want[i] {
				t.Fatalf("after %d passes: index %d holds owner %d, want %d", pass, i, q[i].id, want[i].id)
			}
		}
	}
	mustInvariants(t, m)
}

// TestThrottleOverflowWaiterDenied: a waiter inserted past the ceiling is
// an ordinary queued request, so a timeout or an abort withdraws it like
// any other; the rest of the queue still drains in queue order and the
// invariants hold throughout.
func TestThrottleOverflowWaiterDenied(t *testing.T) {
	cases := []struct {
		name     string
		withdraw func(t *testing.T, m *Manager, clk *clock.Sim, owners []*Owner)
		err      error
		denied   []int // waiters withdrawn, w1 = 0
		order    []int // grant order of the rest
	}{
		{
			// Deadlines follow arrival: w1 and w2 (t=0) expire at the
			// first sweep, w3 (t=2) alone at the second, while w4 and
			// w5 (t=4) still wait.
			name: "timeout",
			withdraw: func(t *testing.T, m *Manager, clk *clock.Sim, _ []*Owner) {
				clk.Advance(6500 * time.Millisecond)
				if n := m.SweepTimeouts(); n != 2 {
					t.Fatalf("first sweep denied %d, want 2 (w1, w2)", n)
				}
				clk.Advance(2 * time.Second)
				if n := m.SweepTimeouts(); n != 1 {
					t.Fatalf("second sweep denied %d, want 1 (w3)", n)
				}
			},
			err:    ErrTimeout,
			denied: []int{0, 1, 2},
			order:  []int{4, 3},
		},
		{
			name:     "abort",
			withdraw: func(_ *testing.T, m *Manager, _ *clock.Sim, owners []*Owner) { m.ReleaseAll(owners[2]) },
			err:      ErrCanceled,
			denied:   []int{2},
			order:    []int{0, 1, 4, 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewSim()
			m := newMgr(Config{Throttle: 2, Shards: 1, Clock: clk, LockTimeout: 10 * time.Second})
			row := RowName(1, 1)
			holder := m.NewOwner(m.RegisterApp())
			mustGrant(t, m.AcquireAsync(holder, row, ModeX, 1), "holder X")
			owners := make([]*Owner, 5)
			pends := make([]*Pending, 5)
			for i := range owners {
				switch i {
				case 2, 3:
					clk.Advance(2 * time.Second) // w3 at t=2, w4 and w5 at t=4
				}
				owners[i] = m.NewOwner(m.RegisterApp())
				pends[i] = m.AcquireAsync(owners[i], row, ModeX, 1)
				mustWait(t, pends[i], "X waiter")
			}
			// Queue: w1 w2 | w5 w4 w3.
			tc.withdraw(t, m, clk, owners)
			for _, i := range tc.denied {
				if st, err := pends[i].Status(); st != StatusDenied || !errors.Is(err, tc.err) {
					t.Fatalf("w%d: status=%v err=%v, want denial with %v", i+1, st, err, tc.err)
				}
			}
			mustInvariants(t, m)
			drainInOrder(t, m, holder, owners, pends, tc.order)
			if got := waitingNow(m); got != 0 {
				t.Fatalf("%d waiters left after drain", got)
			}
			mustInvariants(t, m)
		})
	}
}

// TestThrottleDeadlockThroughOverflowWaiter: a waiter inserted past the
// ceiling exports its wait-graph edges at once, so a deadlock cycle
// through it is found on the first DetectDeadlocks pass with no sweep.
func TestThrottleDeadlockThroughOverflowWaiter(t *testing.T) {
	m := newMgr(Config{Throttle: 1, Shards: 1})
	rowA, rowB := RowName(1, 1), RowName(1, 2)
	// The filler is oldest: o2 waits behind it, so o2 → filler → o1 → o2
	// is a second cycle, and o2 must be the youngest owner on both.
	filler := m.NewOwner(m.RegisterApp())
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())

	mustGrant(t, m.AcquireAsync(o1, rowA, ModeX, 1), "o1 X A")
	mustGrant(t, m.AcquireAsync(o2, rowB, ModeX, 1), "o2 X B")
	// The filler takes rowA's one in-order slot, so o2's request for A is
	// inserted past the ceiling.
	pFiller := m.AcquireAsync(filler, rowA, ModeS, 1)
	mustWait(t, pFiller, "filler S A")
	p2 := m.AcquireAsync(o2, rowA, ModeS, 1)
	mustWait(t, p2, "o2 S A (past the ceiling)")
	if got := m.ThrottleCulled(); got != 1 {
		t.Fatalf("culled = %d, want 1", got)
	}
	// Close the cycle: o1 waits for B, held by o2.
	p1 := m.AcquireAsync(o1, rowB, ModeS, 1)
	mustWait(t, p1, "o1 S B")

	if n := m.DetectDeadlocks(); n != 1 {
		t.Fatalf("first detector pass denied %d, want 1", n)
	}
	// The victim is the youngest owner on the cycle: o2.
	if st, err := p2.Status(); st != StatusDenied || !errors.Is(err, ErrDeadlock) {
		t.Fatalf("o2: status=%v err=%v, want deadlock denial", st, err)
	}
	mustWait(t, p1, "o1 S B after the victim")
	mustWait(t, pFiller, "filler S A after the victim")
	mustInvariants(t, m)
	m.ReleaseAll(o2)
	mustGrant(t, p1, "o1 S B after o2 aborts")
	m.ReleaseAll(o1)
	mustGrant(t, pFiller, "filler S A after o1 commits")
	m.ReleaseAll(filler)
	mustInvariants(t, m)
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

	// Build a queue past the engage threshold while disengaged: every
	// waiter is appended, but the high-water mark records the depth.
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
	// With the ceiling engaged and the queue far past it, the next arrival
	// is inserted at the ceiling's index.
	late := m.NewOwner(m.RegisterApp())
	owners = append(owners, late)
	mustWait(t, m.AcquireAsync(late, row, ModeS, 1), "late S waiter")
	if q := queueOf(m, row); q[throttleEngageCeil] != late {
		t.Fatalf("late waiter not at queue index %d", throttleEngageCeil)
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
	if got := waitingNow(m); got != 0 {
		t.Fatalf("%d waiters left after drain", got)
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
	mustInvariants(t, m)
}

// TestThrottleConcurrentHammer pounds one hot lock from many goroutines
// with a fixed ceiling while sweeps, detection, and invariant checks run
// concurrently — the -race gate's target for the throttled queue paths.
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
				// drain and the invariants at the end are the assertion.
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
	if got := waitingNow(m); got != 0 {
		t.Fatalf("%d waiters left after full drain", got)
	}
	mustInvariants(t, m)
}
