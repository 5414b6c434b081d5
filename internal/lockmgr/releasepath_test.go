package lockmgr

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the O(locks-held) commit fast path: ReleaseAll walks only the
// owner's touched shards, idle control-plane sweeps take no latches, and the
// per-shard rows-before-tables release order is pinned. The latch cost
// proofs use the unconditional LatchAcquisitions counter, so they are exact,
// not statistical.

// TestReleaseAllLatchesOnlyTouchedShards proves the tentpole bound: a commit
// latches exactly the distinct shards hosting the owner's locks — not the
// 3×shards full sweep the release path used to cost.
func TestReleaseAllLatchesOnlyTouchedShards(t *testing.T) {
	m := newMgr(Config{Shards: 8})
	app := m.RegisterApp()
	o := m.NewOwner(app)

	names := []Name{
		TableName(1), RowName(1, 1), RowName(1, 2),
		TableName(2), RowName(2, 7),
	}
	touched := make(map[int]struct{})
	for _, n := range names {
		mode := ModeX
		if n.Gran == GranTable {
			mode = ModeIX
		}
		mustGrant(t, m.AcquireAsync(o, n, mode, 1), "acquire")
		touched[m.shardOf(n)] = struct{}{}
	}

	base := m.LatchAcquisitions()
	m.ReleaseAll(o)
	delta := m.LatchAcquisitions() - base

	if want := int64(len(touched)); delta != want {
		t.Fatalf("ReleaseAll took %d latch acquisitions, want %d (one per touched shard)", delta, want)
	}
	if full := int64(3 * m.NumShards()); delta >= full {
		t.Fatalf("ReleaseAll took %d latches, not better than the %d full-sweep cost", delta, full)
	}
	if got := m.UsedStructs(); got != 0 {
		t.Fatalf("used structs after commit = %d, want 0", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseAllEmptyOwnerTakesNoLatches: a transaction that acquired
// nothing commits without touching a single shard latch, and a double
// release stays free too.
func TestReleaseAllEmptyOwnerTakesNoLatches(t *testing.T) {
	m := newMgr(Config{Shards: 8})
	app := m.RegisterApp()
	o := m.NewOwner(app)

	base := m.LatchAcquisitions()
	m.ReleaseAll(o)
	m.ReleaseAll(o) // double release: no-op, still latch-free
	if delta := m.LatchAcquisitions() - base; delta != 0 {
		t.Fatalf("empty-owner ReleaseAll took %d latch acquisitions, want 0", delta)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIdleControlPlaneTakesNoLatches: with locks held but nobody waiting,
// the timeout sweep, the deadlock detector, and a cancel probe all observe
// the published nWaiting mirrors and return without latching anything.
func TestIdleControlPlaneTakesNoLatches(t *testing.T) {
	m := newMgr(Config{Shards: 8, LockTimeout: time.Second})
	app := m.RegisterApp()
	o := m.NewOwner(app)
	for i := 0; i < 6; i++ {
		mustGrant(t, m.AcquireAsync(o, RowName(uint32(i+1), uint64(i)), ModeX, 1), "grant")
	}

	base := m.LatchAcquisitions()
	if n := m.SweepTimeouts(); n != 0 {
		t.Fatalf("idle SweepTimeouts denied %d", n)
	}
	if n := m.DetectDeadlocks(); n != 0 {
		t.Fatalf("idle DetectDeadlocks denied %d", n)
	}
	m.cancel(o, RowName(1, 0)) // granted, not waiting: mirror reads zero
	if delta := m.LatchAcquisitions() - base; delta != 0 {
		t.Fatalf("idle control plane took %d latch acquisitions, want 0", delta)
	}

	m.ReleaseAll(o)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseOrderRowsBeforeTables pins the per-shard release ordering
// choice: within one shard visit the batch buckets rows ahead of tables, in
// ascending shard order, and releaseShardBatch walks rows first — so an
// intent table lock never disappears before the row locks it covers.
func TestReleaseOrderRowsBeforeTables(t *testing.T) {
	m := newMgr(Config{Shards: 1})
	app := m.RegisterApp()
	o := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(o, TableName(7), ModeIX, 1), "intent")
	for i := 0; i < 3; i++ {
		mustGrant(t, m.AcquireAsync(o, RowName(7, uint64(i)), ModeX, 1), "row")
	}

	var b releaseBatch
	o.mu.Lock()
	b.collect(m, o)
	o.mu.Unlock()
	if !b.hasShard(0) || b.hasShard(1) {
		t.Fatalf("single-shard batch shard bits wrong: %v", b.shards)
	}
	if got := len(b.rows); got != 3 {
		t.Fatalf("row list holds %d entries, want 3", got)
	}
	if got := len(b.tables); got != 1 {
		t.Fatalf("table list holds %d entries, want 1", got)
	}
	for _, e := range b.rows {
		if e.name.Gran != GranRow {
			t.Fatalf("non-row entry %v in row list", e.name)
		}
	}
	for _, e := range b.tables {
		if e.name.Gran != GranTable {
			t.Fatalf("non-table entry %v in table list", e.name)
		}
	}
	m.ReleaseAll(o)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseBatchAscendingShards: the walk visits shards in ascending
// index order (the multi-shard latch protocol), and every shard the batch
// marks carries a touched bit.
func TestReleaseBatchAscendingShards(t *testing.T) {
	m := newMgr(Config{Shards: 8})
	app := m.RegisterApp()
	o := m.NewOwner(app)
	for i := 0; i < 32; i++ {
		mustGrant(t, m.AcquireAsync(o, RowName(uint32(1+i%5), uint64(i*37)), ModeS, 1), "row")
	}

	var b releaseBatch
	o.mu.Lock()
	b.collect(m, o)
	touched := o.touchedShards(nil)
	o.mu.Unlock()

	marked := 0
	for si := 0; si < m.NumShards(); si++ {
		if b.hasShard(si) {
			marked++
		}
	}
	if marked < 2 {
		t.Fatalf("expected rows to span multiple shards, got %d", marked)
	}
	touchedSet := make(map[int]struct{}, len(touched))
	for j, si := range touched {
		if j > 0 && touched[j-1] >= si {
			t.Fatalf("touched shard order not ascending: %v", touched)
		}
		touchedSet[si] = struct{}{}
	}
	for si := 0; si < m.NumShards(); si++ {
		if !b.hasShard(si) {
			continue
		}
		if _, ok := touchedSet[si]; !ok {
			t.Fatalf("batched shard %d missing from touched set %v", si, touched)
		}
	}
	// Every entry's cached shard index must match its name's home shard.
	for _, e := range b.rows {
		if e.si != m.shardOf(e.name) {
			t.Fatalf("entry %v cached shard %d, home is %d", e.name, e.si, m.shardOf(e.name))
		}
	}
	m.ReleaseAll(o)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseAllAbortsInFlightWaits exercises the non-quiesced walk: an
// owner released while one of its requests still waits has that request
// denied (ErrCanceled) before any of its granted locks are freed, and
// nothing leaks.
func TestReleaseAllAbortsInFlightWaits(t *testing.T) {
	m := newMgr(Config{Shards: 8})
	app := m.RegisterApp()
	holder := m.NewOwner(app)
	row := RowName(3, 14)
	mustGrant(t, m.AcquireAsync(holder, row, ModeX, 1), "holder X")

	waiter := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(waiter, RowName(4, 1), ModeX, 1), "waiter's own row")
	p := m.AcquireAsync(waiter, row, ModeX, 1)
	mustWait(t, p, "queued behind holder")

	m.ReleaseAll(waiter) // abort: must withdraw the queued request
	if st, err := p.Status(); st != StatusDenied || !errors.Is(err, ErrCanceled) {
		t.Fatalf("aborted wait: status=%v err=%v, want denied/ErrCanceled", st, err)
	}
	m.ReleaseAll(holder)
	if got := m.UsedStructs(); got != 0 {
		t.Fatalf("used structs after aborts = %d, want 0", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleReleaseAllConcurrent: two goroutines racing ReleaseAll on the
// same owner — a commit/abort race — release every lock exactly once.
func TestDoubleReleaseAllConcurrent(t *testing.T) {
	m := newMgr(Config{Shards: 8})
	app := m.RegisterApp()
	for round := 0; round < 50; round++ {
		o := m.NewOwner(app)
		for i := 0; i < 8; i++ {
			mustGrant(t, m.AcquireAsync(o, RowName(uint32(1+i%3), uint64(round*100+i)), ModeX, 1), "row")
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.ReleaseAll(o)
			}()
		}
		wg.Wait()
		if got := m.UsedStructs(); got != 0 {
			t.Fatalf("round %d: used structs = %d, want 0", round, got)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitStormReleasePath is the commit-storm stress run: concurrent
// commits and aborts over shared and private tables, escalations forced by
// a small per-application quota, aborts fired while async requests are
// still queued, racing double releases — all under a continuous deadlock
// detector + timeout sweeper that asserts CheckInvariants throughout. Run
// it with -race.
func TestCommitStormReleasePath(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		workers     = 8
		txPerWorker = 120
		hotRows     = 4
	)
	m := New(Config{
		InitialPages: 32, // one block: 2048 structs, quota bites at 102
		Shards:       8,
		Quota:        fixedQuota(5),
		LockTimeout:  50 * time.Millisecond,
	})

	var (
		sweeps   atomic.Int64
		aborts   atomic.Int64
		invErrMu sync.Mutex
		invErr   error
	)
	var sweeperWG, wg sync.WaitGroup
	st := newStopper(t, &sweeperWG, &wg)
	sweeperWG.Add(1)
	go func() {
		defer sweeperWG.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-st.C:
				return
			case <-tick.C:
			}
			m.DetectDeadlocks()
			m.SweepTimeouts()
			if err := m.CheckInvariants(); err != nil {
				invErrMu.Lock()
				invErr = err
				invErrMu.Unlock()
				return
			}
			sweeps.Add(1)
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			app := m.RegisterApp()
			rng := rand.New(rand.NewSource(int64(w)))
			private := uint32(100 + w)
			for tx := 0; tx < txPerWorker; tx++ {
				o := m.NewOwner(app)
				ok := true
				if err := m.Acquire(st.ctx, o, TableName(private), ModeIX, 1); err != nil {
					t.Errorf("private intent: %v", err)
					ok = false
				}
				// Every 10th transaction blows through the 5%% quota on its
				// private table, forcing an escalation (and the parked-
				// request retry) on the commit path about to run.
				rows := 4 + rng.Intn(8)
				if tx%10 == 5 {
					rows = 120
				}
				for r := 0; ok && r < rows; r++ {
					err := m.Acquire(st.ctx, o, RowName(private, uint64(tx*200+r)), ModeX, 1)
					if err != nil {
						if !errors.Is(err, ErrDeadlock) && !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrLockMemory) {
							t.Errorf("private row: %v", err)
						}
						aborts.Add(1)
						ok = false
					}
				}
				// Hot shared rows: S with occasional X upgrades → convert
				// deadlocks, broken by the sweeper; timeouts tolerated.
				for h := 0; ok && h < hotRows; h++ {
					if rng.Intn(2) == 0 {
						continue
					}
					mode := ModeS
					if rng.Intn(4) == 0 {
						mode = ModeX
					}
					if err := m.Acquire(st.ctx, o, RowName(99, uint64(h)), mode, 1); err != nil {
						if !errors.Is(err, ErrDeadlock) && !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrLockMemory) {
							t.Errorf("hot row: %v", err)
						}
						aborts.Add(1)
						ok = false
					}
				}
				// Sometimes abort with an async request still in flight: the
				// non-quiesced walk must withdraw it.
				var inflight *Pending
				if ok && rng.Intn(4) == 0 {
					inflight = m.AcquireAsync(o, RowName(99, uint64(rng.Intn(hotRows))), ModeX, 1)
				}
				// Sometimes race a second ReleaseAll against the first.
				if rng.Intn(4) == 0 {
					var rel sync.WaitGroup
					rel.Add(1)
					go func() {
						defer rel.Done()
						m.ReleaseAll(o)
					}()
					m.ReleaseAll(o)
					rel.Wait()
				} else {
					// The exactly-once path hands the owner back for
					// recycling, as the transaction layer does, waited
					// or not.
					m.FinishOwner(o)
				}
				if inflight != nil {
					if st, _ := inflight.Status(); st == StatusWaiting {
						t.Errorf("in-flight request still waiting after ReleaseAll")
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st.stop()
	sweeperWG.Wait()

	invErrMu.Lock()
	err := invErr
	invErrMu.Unlock()
	if err != nil {
		t.Fatalf("invariant violated during storm: %v", err)
	}
	if sweeps.Load() == 0 {
		t.Fatal("sweeper never completed a pass")
	}
	if got := m.UsedStructs(); got != 0 {
		t.Fatalf("used structs after storm = %d, want 0", got)
	}
	if st := m.Stats(); st.Escalations == 0 {
		t.Fatal("storm produced no escalations; quota pressure miswired")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("sweeps=%d aborts=%d escalations=%d latchAcqs=%d",
		sweeps.Load(), aborts.Load(), m.Stats().Escalations, m.LatchAcquisitions())
}

// TestBoxRecycling: ReleaseAll (unlike FinishOwner) recycles nothing — it
// keeps no boxes or headers and parks no owner — but returns every
// structure to the pools, and never touches a caller-held async Pending.
func TestBoxRecycling(t *testing.T) {
	m := newMgr(Config{Shards: 1})
	app := m.RegisterApp()
	ctx := context.Background()

	for round := 0; round < 3; round++ {
		o := m.NewOwner(app)
		for i := 0; i < 4; i++ {
			if err := m.Acquire(ctx, o, RowName(1, uint64(i)), ModeX, 1); err != nil {
				t.Fatal(err)
			}
		}
		m.ReleaseAll(o)
		if used, held := m.UsedStructs(), app.structs.Load(); used != 0 || held != 0 {
			t.Fatalf("round %d: %d structures used, %d charged to the app after ReleaseAll, want 0", round, used, held)
		}
		if n, h := len(o.cache.boxes), len(o.cache.hdrs); n != 0 || h != 0 {
			t.Fatalf("round %d: ReleaseAll kept %d boxes and %d headers, want none", round, n, h)
		}
		if app.parked != nil {
			t.Fatalf("round %d: ReleaseAll parked its owner", round)
		}
	}

	// Async pendings are caller-held and must never be recycled.
	o := m.NewOwner(app)
	p := m.AcquireAsync(o, RowName(2, 1), ModeX, 1)
	mustGrant(t, p, "async")
	m.ReleaseAll(o)
	if st, err := p.Status(); st != StatusGranted || err != nil {
		t.Fatalf("caller-held pending corrupted after release: status=%v err=%v", st, err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFinishOwnerRecycling: FinishOwner hands owners back to the manager's
// pool, waited or not, and a recycled owner starts from a clean slate —
// fresh id, empty held index, cleared touched set.
func TestFinishOwnerRecycling(t *testing.T) {
	m := New(Config{InitialPages: 8, Shards: 8})
	app := m.RegisterApp()
	ctx := context.Background()

	var lastID uint64
	for round := 0; round < 64; round++ {
		o := m.NewOwner(app)
		if o.id <= lastID {
			t.Fatalf("round %d: owner id %d not monotonic (last %d)", round, o.id, lastID)
		}
		lastID = o.id
		if o.released || o.held.Len() != 0 || o.held.Slots() > heldKeepSlots || o.touched0 != 0 || len(o.tables) != 0 {
			t.Fatalf("round %d: recycled owner not reset: %+v", round, o)
		}
		for l := 0; l < 5; l++ {
			if err := m.Acquire(ctx, o, RowName(1, uint64(round*8+l)), ModeX, 1); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		m.FinishOwner(o)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if got := m.UsedStructs(); got != 0 {
		t.Fatalf("UsedStructs = %d after all owners finished, want 0", got)
	}

	// An owner that waited is recycled as well: nothing names it once its
	// release is done, so FinishOwner parks it on its app at once, reset.
	holder := m.NewOwner(app)
	if err := m.Acquire(ctx, holder, RowName(2, 1), ModeX, 1); err != nil {
		t.Fatal(err)
	}
	waiterApp := m.RegisterApp()
	waiter := m.NewOwner(waiterApp)
	p := m.AcquireAsync(waiter, RowName(2, 1), ModeX, 1)
	if st, _ := p.Status(); st != StatusWaiting {
		t.Fatalf("conflicting request status %v, want waiting", st)
	}
	m.FinishOwner(holder) // grants the waiter
	if st, _ := p.Status(); st != StatusGranted {
		t.Fatalf("waiter status %v after holder release, want granted", st)
	}
	m.FinishOwner(waiter)
	if waiter.released || waiter.app != nil || waiter.refs.Load() != 0 || len(waiter.wake) != 0 || waiterApp.parked != waiter {
		t.Fatal("FinishOwner did not recycle the owner that waited")
	}
	if st, _ := p.Status(); st != StatusGranted {
		t.Fatalf("caller-held pending changed by recycling: %v", st)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// rowsInShard returns n distinct row ids of table whose lock names all hash
// to one shard.
func rowsInShard(m *Manager, table uint32, n int) []uint64 {
	si := m.ShardOf(RowName(table, 0))
	rows := make([]uint64, 0, n)
	for row := uint64(0); len(rows) < n; row++ {
		if m.ShardOf(RowName(table, row)) == si {
			rows = append(rows, row)
		}
	}
	return rows
}

// TestReleaseAllFreesBeforeReturn pins ReleaseAll's contract as written:
// when it returns, the owner's locks are out of the lock table and their
// structures are back in the shard pools. Eight goroutines commit X
// transactions on rows of one shard, so their commit visits contend for
// that shard's latch; a bystander owner stays registered throughout, so
// nothing runs after the last commit to tidy up. Once every committer has
// returned, nothing may still be charged.
func TestReleaseAllFreesBeforeReturn(t *testing.T) {
	const (
		goroutines = 8
		txPerG     = 500
	)
	m := newMgr(Config{})
	app := m.RegisterApp()
	bystander := m.NewOwner(app)
	defer m.ReleaseAll(bystander)
	rows := rowsInShard(m, 1, goroutines)

	var wg sync.WaitGroup
	st := newStopper(t, &wg)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(row Name) {
			defer wg.Done()
			for tx := 0; tx < txPerG; tx++ {
				o := m.NewOwner(app)
				if err := m.Acquire(st.ctx, o, row, ModeX, 1); err != nil {
					t.Errorf("acquire %v: %v", row, err)
				}
				m.FinishOwner(o)
			}
		}(RowName(1, rows[g]))
	}
	wg.Wait()

	if got := m.UsedStructs(); got != 0 {
		t.Fatalf("used structs after every commit returned = %d, want 0", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseFIFOOrder: a chain of commits, each releasing the lock the
// next waiter queued for, must grant in enqueue order. Every release finds
// waiters queued, applies its batch under the shard latch and delivers the
// grant before ReleaseAll returns.
func TestReleaseFIFOOrder(t *testing.T) {
	const waiters = 32
	m := newMgr(Config{})
	app := m.RegisterApp()

	row := RowName(1, 1)
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
			m.ReleaseAll(owners[i])
		}(i)
	}
	m.ReleaseAll(holder)
	wg.Wait()

	for i, got := range order {
		if got != int64(i) {
			t.Fatalf("FIFO violated: waiter %d granted at position %d", i, got)
		}
	}
	if m.WakeupsCoalesced() == 0 {
		t.Fatal("no wakeups were coalesced — the deferred wake pass never ran")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseRacingControlPlane: concurrent commits racing the whole
// control plane — CheckInvariants' stopped-world sweep, deadlock
// detection, timeout sweeps, and quota-driven escalation. The tight
// per-app quota forces escalations to table locks mid-run; concurrent
// escalations of the same table can genuinely deadlock, which is exactly
// what the racing detector must resolve. The test asserts no invariant
// violation, no lost transaction, and a clean final state.
func TestReleaseRacingControlPlane(t *testing.T) {
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

// TestReleaseBucketsByShard: a commit's batch is bucketed by shard once,
// at collect time. An owner holding rows and table locks in at least four
// shards has each visit's bucket hold exactly that shard's entries, rows
// before tables, every entry in exactly one bucket; the commit then leaves
// a consistent table.
func TestReleaseBucketsByShard(t *testing.T) {
	m := newMgr(Config{Shards: 8})
	app := m.RegisterApp()
	o := m.NewOwner(app)
	for tid := uint32(1); tid <= 16; tid++ {
		mustGrant(t, m.AcquireAsync(o, TableName(tid), ModeIX, 1), "intent")
		for r := uint64(0); r < 4; r++ {
			mustGrant(t, m.AcquireAsync(o, RowName(tid, r*101+uint64(tid)), ModeX, 1), "row")
		}
	}

	var b releaseBatch
	o.mu.Lock()
	b.collect(m, o)
	touched := o.touchedShards(nil)
	o.mu.Unlock()

	both, seen := 0, 0
	for _, si := range touched {
		ents := b.shardEntries(si)
		rows, tables := 0, 0
		for _, e := range ents {
			if e.si != si || m.shardOf(e.name) != si {
				t.Fatalf("shard %d's bucket holds %v, homed in shard %d", si, e.name, m.shardOf(e.name))
			}
			if e.name.Gran == GranRow {
				if tables > 0 {
					t.Fatalf("shard %d's bucket releases row %v after a table lock", si, e.name)
				}
				rows++
			} else {
				tables++
			}
		}
		if rows > 0 && tables > 0 {
			both++
		}
		if len(ents) > 0 != b.hasShard(si) {
			t.Fatalf("shard %d: bucket of %d entries but shard bit %v", si, len(ents), b.hasShard(si))
		}
		seen += len(ents)
	}
	if both < 4 {
		t.Fatalf("rows and table locks share only %d shards, want at least 4", both)
	}
	if want := len(b.rows) + len(b.tables); seen != want || want != 16*5 {
		t.Fatalf("buckets hold %d entries, batch collected %d, owner held %d", seen, want, 16*5)
	}
	m.FinishOwner(o)
	mustInvariants(t, m)
	if got := m.UsedStructs(); got != 0 {
		t.Fatalf("used structs = %d after commit", got)
	}
}
