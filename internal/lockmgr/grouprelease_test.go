package lockmgr

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Group-release concurrency tests. Like stress_test.go they are written
// for the race detector (`go test -race ./internal/lockmgr`) and pin the
// three properties the staged release path must preserve:
//
//  1. FIFO grant order survives release-by-staging: a flush leader
//     applying another owner's batch posts that owner's header exactly
//     like a direct release would, so no waiter is starved or woken out
//     of order;
//  2. backpressured stagers parked on the flush condition always make
//     progress — when the active leader retires, a parked stager elects
//     itself and drains (leader handoff);
//  3. the invariant checker's stopped world composes with staged batches,
//     escalation, and deadlock detection running concurrently.

// stormRowsInShard returns n distinct row ids of table whose lock names
// all hash to one shard, together with that shard's index.
func stormRowsInShard(m *Manager, table uint32, n int) (int, []uint64) {
	si := m.ShardOf(RowName(table, 0))
	rows := make([]uint64, 0, n)
	for row := uint64(0); len(rows) < n; row++ {
		if m.ShardOf(RowName(table, row)) == si {
			rows = append(rows, row)
		}
	}
	return si, rows
}

// TestGroupReleaseFIFOOrder: release on a storming shard must preserve
// per-lock FIFO. The shard is re-armed before every release in the chain,
// but each release finds waiters queued, so it latches and applies its
// batch instead of staging it, and its grant is delivered before
// ReleaseAll returns. The observed grant sequence must match the enqueue
// order exactly.
func TestGroupReleaseFIFOOrder(t *testing.T) {
	const waiters = 32
	m := newMgr(Config{})
	app := m.RegisterApp()

	row := RowName(1, 1)
	si := m.ShardOf(row)
	s := &m.shards[si]

	holder := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(holder, row, ModeX, 1), "holder X")

	owners := make([]*Owner, waiters)
	pendings := make([]*Pending, waiters)
	for i := range owners {
		owners[i] = m.NewOwner(app)
		pendings[i] = m.AcquireAsync(owners[i], row, ModeX, 1)
		mustWait(t, pendings[i], "queued waiter")
	}

	var seq atomic.Int64
	order := make([]int64, waiters)
	var wg sync.WaitGroup
	newStopper(t, &wg)
	for i := range owners {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-pendings[i].Done()
			if st, err := pendings[i].Status(); st != StatusGranted {
				t.Errorf("waiter %d: status=%v err=%v", i, st, err)
				return
			}
			order[i] = seq.Add(1) - 1
			// Keep the shard storming so this release stages too (solo
			// drains would otherwise decay the arm back to the direct
			// path partway through the chain).
			s.relStorm.Store(relStormArm)
			m.ReleaseAll(owners[i])
		}(i)
	}
	s.relStorm.Store(relStormArm)
	m.ReleaseAll(holder)
	wg.Wait()

	for i, got := range order {
		if got != int64(i) {
			t.Fatalf("FIFO violated: waiter %d granted at position %d", i, got)
		}
	}
	if m.WakeupsCoalesced() == 0 {
		t.Fatal("no wakeups were coalesced — the storm path never engaged")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupReleaseBackpressureHandoff: a stager that parks at the
// high-water bound behind an active flush leader must be woken when that
// leader retires, and must then elect itself and drain (no lost wakeup,
// no permanent park). The "active leader" is simulated by holding the
// flush word; the committer goroutine stages past high water, parks, and
// must finish once the word is released and the condition signalled.
func TestGroupReleaseBackpressureHandoff(t *testing.T) {
	const committers = flushHighWater + 8
	m := newMgr(Config{InitialPages: 32 * 16})
	app := m.RegisterApp()
	si, rows := stormRowsInShard(m, 1, committers)
	s := &m.shards[si]

	owners := make([]*Owner, committers)
	for i := range owners {
		owners[i] = m.NewOwner(app)
		mustGrant(t, m.AcquireAsync(owners[i], RowName(1, rows[i]), ModeX, 1), "setup X")
	}

	// Pose as an active flush leader, then commit every owner from one
	// goroutine: each visit stages (the shard is re-armed each time), and
	// the visit that finds the list at high water parks behind "us".
	s.relFlush.Store(1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	newStopper(t, &wg)
	// Runs before the stopper's wait: a committer parked behind the fake
	// leader must be let go even when the test fails early.
	t.Cleanup(func() { s.relFlush.Store(0); m.signalFlushed(s) })
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, o := range owners {
			s.relStorm.Store(relStormArm)
			m.FinishOwner(o)
		}
	}()

	// Wait until the list is full and the committer has had time to burn
	// its spin budget and park.
	deadline := time.Now().Add(5 * time.Second)
	for int(s.relLen.Load()) < flushHighWater {
		if time.Now().After(deadline) {
			t.Fatal("staging list never reached high water")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("committer finished despite a held flush word and a full list")
	default:
	}

	// Leader handoff: retire the fake leader. The parked stager must wake,
	// elect itself, drain, and finish the remaining commits.
	s.relFlush.Store(0)
	m.signalFlushed(s)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("parked stager never woke after leader handoff")
	}

	// Drain whatever the last walk left staged (below threshold, no
	// waiters) via the admission path's piggyback drain, then verify the
	// world is clean.
	s.relStorm.Store(0)
	o := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(o, RowName(1, rows[0]), ModeX, 1), "drain trigger")
	m.FinishOwner(o)
	if s.relHead.Load() != nil || s.relLen.Load() != 0 {
		t.Fatalf("staging list not empty after drains: len=%d", s.relLen.Load())
	}
	if m.FlushFollowerWaits() < committers {
		t.Fatalf("follower waits %d, want >= %d (every visit should have staged)",
			m.FlushFollowerWaits(), committers)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupReleaseStagedInvariants: CheckInvariants must hold while
// batches sit staged-but-unflushed — the lock table still describes the
// staged locks as held, and the checker's staged pass cross-checks the
// list against owner refcounts and app quota charges.
func TestGroupReleaseStagedInvariants(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()
	si, rows := stormRowsInShard(m, 1, 2)
	s := &m.shards[si]

	// A second registered owner pins the manager non-idle: the last owner
	// out force-flushes every staging list (flushAllStaged), which would
	// defeat the staged-state assertions below.
	pin := m.NewOwner(app)
	defer m.FinishOwner(pin)

	o := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(o, RowName(1, rows[0]), ModeX, 1), "row 0")
	mustGrant(t, m.AcquireAsync(o, RowName(1, rows[1]), ModeX, 1), "row 1")

	s.relStorm.Store(relStormArm)
	m.FinishOwner(o)
	if s.relHead.Load() == nil {
		t.Fatal("commit did not stage (storm path never engaged)")
	}
	// The staged batch is pure intent: locks still in the table, weight
	// still charged, owner teardown still pending.
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants with staged batch: %v", err)
	}

	// Drain through the piggyback path and re-verify.
	s.relStorm.Store(0)
	o2 := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(o2, RowName(1, rows[0]), ModeX, 1), "drain trigger")
	m.FinishOwner(o2)
	if s.relHead.Load() != nil || s.relLen.Load() != 0 {
		t.Fatal("staged batch not drained by the admission path")
	}
	if m.ReleaseBatches() == 0 || m.FlushFollowerWaits() == 0 {
		t.Fatalf("counters: batches=%d followerWaits=%d, want both > 0",
			m.ReleaseBatches(), m.FlushFollowerWaits())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupReleaseAdmissionWindowRace pins the lost-flush-trigger
// interleave: an acquirer's latched admission section checks the staging
// list at entry (empty), and a commit then stages the release of the very
// lock the acquirer is about to queue behind — before the acquirer's
// addWaiting store. The commit's walk-end trigger sees no waiters and a
// below-threshold list, so it skips the flush; with no further traffic on
// the shard, only the admission path's post-enqueue re-check is left to
// apply the staged release. Without it the waiter blocks forever behind
// an already-committed release. The hook fires the commit synchronously
// inside the window, making the interleave deterministic.
func TestGroupReleaseAdmissionWindowRace(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()
	row := RowName(1, 1)
	s := &m.shards[m.ShardOf(row)]

	holder := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(holder, row, ModeX, 1), "holder X")

	waiter := m.NewOwner(app) // registered before the commit: no last-owner-out force flush
	fired := false
	m.preEnqueueHook = func() {
		if fired {
			return
		}
		fired = true
		s.relStorm.Store(relStormArm)
		m.FinishOwner(holder)
		if s.relHead.Load() == nil {
			t.Error("commit did not stage (storm path never engaged)")
		}
	}

	p := m.AcquireAsync(waiter, row, ModeX, 1)
	if !fired {
		t.Fatal("admission never reached the enqueue window")
	}
	select {
	case <-p.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("waiter stranded behind a staged release (lost flush trigger)")
	}
	if st, err := p.Status(); st != StatusGranted {
		t.Fatalf("waiter: status=%v err=%v", st, err)
	}
	m.FinishOwner(waiter)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupReleaseConversionWindowRace: the same lost-trigger interleave
// against the converter queue — a commit stages the release of the only
// incompatible shared holder while an upgrade (S→X) is inside its latched
// section, after conflict evaluation but before the converter joins the
// waiting set. The post-enqueue re-check in startConversion must drain
// the staged batch and let the conversion complete.
func TestGroupReleaseConversionWindowRace(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()
	row := RowName(1, 1)
	s := &m.shards[m.ShardOf(row)]

	other := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(other, row, ModeS, 1), "other S")

	conv := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(conv, row, ModeS, 1), "conv S")

	fired := false
	m.preEnqueueHook = func() {
		if fired {
			return
		}
		fired = true
		s.relStorm.Store(relStormArm)
		m.FinishOwner(other)
		if s.relHead.Load() == nil {
			t.Error("commit did not stage (storm path never engaged)")
		}
	}

	p := m.AcquireAsync(conv, row, ModeX, 1)
	if !fired {
		t.Fatal("conversion never reached the enqueue window")
	}
	select {
	case <-p.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("converter stranded behind a staged release (lost flush trigger)")
	}
	if st, err := p.Status(); st != StatusGranted {
		t.Fatalf("conversion: status=%v err=%v", st, err)
	}
	m.FinishOwner(conv)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupReleaseStormRacingControlPlane: a commit storm (every release
// staged) racing the whole control plane — CheckInvariants' stopped-world
// sweep, deadlock detection, timeout sweeps, and quota-driven escalation.
// The tight per-app quota forces escalations to table locks mid-storm;
// concurrent escalations of the same table can genuinely deadlock, which
// is exactly what the racing detector must resolve. The test asserts no
// invariant violation, no lost transaction, and a clean final state.
func TestGroupReleaseStormRacingControlPlane(t *testing.T) {
	const (
		goroutines = 8
		txPerG     = 200
		hotRows    = 64
	)
	m := newMgr(Config{
		InitialPages: 32,
		Quota:        fixedQuota(25),
		LockTimeout:  5 * time.Second,
	})

	var sweeperWG, wg sync.WaitGroup
	st := newStopper(t, &sweeperWG, &wg)
	sweeperWG.Add(1)
	go func() {
		defer sweeperWG.Done()
		for {
			select {
			case <-st.C:
				return
			default:
			}
			if err := m.CheckInvariants(); err != nil {
				t.Errorf("invariants: %v", err)
				return
			}
			m.DetectDeadlocks()
			m.SweepTimeouts()
			// Keep every shard storming so commits stage even when the
			// race is quiet.
			for i := range m.shards {
				m.shards[i].relStorm.Store(relStormArm)
			}
		}
	}()

	ctx := st.ctx
	var commits, denials atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			app := m.RegisterApp()
			for tx := 0; tx < txPerG; tx++ {
				o := m.NewOwner(app)
				ok := true
				// Ascending row order: conflicts queue FIFO instead of
				// deadlocking (escalation can still deadlock — that is
				// the detector's job).
				for l := 0; l < 3; l++ {
					row := uint64((g*txPerG + tx*3 + l*7) % hotRows)
					if err := m.Acquire(ctx, o, RowName(1, row), ModeX, 1); err != nil {
						if !errors.Is(err, ErrQuotaExceeded) && !errors.Is(err, ErrDeadlock) &&
							!errors.Is(err, ErrLockMemory) && !errors.Is(err, ErrTimeout) {
							t.Errorf("g%d tx%d: %v", g, tx, err)
						}
						denials.Add(1)
						ok = false
						break
					}
				}
				m.FinishOwner(o)
				if ok {
					commits.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	st.stop()
	sweeperWG.Wait()

	if commits.Load() == 0 {
		t.Fatal("no transaction ever committed")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.ReleaseBatches() == 0 {
		t.Fatal("no release batches were applied")
	}
}
