package lockmgr

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testing.AllocsPerRun counts the whole process's allocations, so a
// goroutine another test left running would be counted here too. Churn
// goroutines in this package stop in t.Cleanup, this file sorts first, and
// make allocs runs TestTransactionAllocations in a process of its own.

// tpccShapedTxn runs one transaction the size of the bench's tpcc mean: 23
// row locks over 5 tables, each row behind its table's intent lock, through
// the blocking Acquire and FinishOwner like internal/txn does.
func tpccShapedTxn(tb testing.TB, m *Manager, app *App) {
	ctx := context.Background()
	o := m.NewOwner(app)
	for i := 0; i < 23; i++ {
		table := uint32(1 + i%5)
		if err := m.Acquire(ctx, o, TableName(table), ModeIX, 1); err != nil {
			tb.Fatal(err)
		}
		if err := m.Acquire(ctx, o, RowName(table, uint64(1000+i)), ModeX, 1); err != nil {
			tb.Fatal(err)
		}
	}
	m.FinishOwner(o)
}

// tpccShapedBatch is tpccShapedTxn's 23 rows as five statements, one per
// table, each behind one intent request and admitted by AcquireRows like
// internal/txn's LockRows does.
func tpccShapedBatch(tb testing.TB, m *Manager, app *App, rows []uint64) {
	ctx := context.Background()
	o := m.NewOwner(app)
	for table := uint32(1); table <= 5; table++ {
		rows = rows[:0]
		for i := int(table) - 1; i < 23; i += 5 {
			rows = append(rows, uint64(1000+i))
		}
		if err := m.Acquire(ctx, o, TableName(table), ModeIX, 1); err != nil {
			tb.Fatal(err)
		}
		if _, err := m.AcquireRows(ctx, o, table, rows, ModeX); err != nil {
			tb.Fatal(err)
		}
	}
	m.FinishOwner(o)
}

// waitPair runs the one-wait transaction pair: a waiter, on a goroutine of
// its own, queues behind a holder in a blocking Acquire; the holder
// commits, then the waiter commits. Each side is a session with an App of
// its own, as every engine session is, so each finds its last owner parked
// there.
type waitPair struct {
	m     *Manager
	app   *App
	row   Name
	start chan struct{}
	done  chan *Owner
}

func newWaitPair(t *testing.T, m *Manager, app *App) *waitPair {
	w := &waitPair{m: m, app: app, row: RowName(9, 1), start: make(chan struct{}), done: make(chan *Owner)}
	waiterApp := m.RegisterApp()
	var wg sync.WaitGroup
	st := newStopper(t, &wg)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-st.C:
				return
			case <-w.start:
			}
			o := m.NewOwner(waiterApp)
			if err := m.Acquire(st.ctx, o, w.row, ModeX, 1); err != nil {
				t.Error(err)
			}
			m.FinishOwner(o)
			select {
			case w.done <- o:
			case <-st.C:
				return
			}
		}
	}()
	return w
}

// run is one holder and one waiter transaction; it returns the waiter's
// owner.
func (w *waitPair) run(tb testing.TB) *Owner {
	holder := w.m.NewOwner(w.app)
	if err := w.m.Acquire(context.Background(), holder, w.row, ModeX, 1); err != nil {
		tb.Fatal(err)
	}
	w.start <- struct{}{}
	for w.m.shards[w.m.ShardOf(w.row)].nWaiting.Load() == 0 {
		runtime.Gosched()
	}
	w.m.FinishOwner(holder)
	return <-w.done
}

func TestTransactionAllocations(t *testing.T) {
	// Sampling off: one acquisition in 64 otherwise reads the clock, which
	// allocates nothing either, but keep the measured path the plain one.
	m := New(Config{InitialPages: 32, Shards: 8, ObsSampleStride: -1})
	app := m.RegisterApp()

	// Recycled owner: after warm-up the owner comes back from the app's
	// slot, with its held array, request boxes and lock headers.
	for i := 0; i < 100; i++ {
		tpccShapedTxn(t, m, app)
	}
	if n := testing.AllocsPerRun(200, func() { tpccShapedTxn(t, m, app) }); n != 0 {
		t.Errorf("23-row, 5-table transaction on a recycled owner: %v allocations, want 0", n)
	}
	// The same rows as statement batches: the batch's scratch lives on the
	// recycled owner.
	rows := make([]uint64, 0, 8)
	for i := 0; i < 100; i++ {
		tpccShapedBatch(t, m, app, rows)
	}
	if n := testing.AllocsPerRun(200, func() { tpccShapedBatch(t, m, app, rows) }); n != 0 {
		t.Errorf("23-row, 5-statement batched transaction on a recycled owner: %v allocations, want 0", n)
	}

	// One wait: the waiter parks on its owner's wake channel, and both
	// owners come back from their apps' slots, each with its request box
	// and header — the waiter's owner included, handed out again by
	// NewOwner every time.
	w := newWaitPair(t, m, app)
	waiters := make(map[*Owner]bool)
	const warm = 100
	for i := 0; i < warm; i++ {
		waiters[w.run(t)] = true
	}
	if len(waiters) != 1 {
		t.Errorf("%d one-wait transactions used %d distinct waiter owners, want 1", warm, len(waiters))
	}
	if n := testing.AllocsPerRun(200, func() { w.run(t) }); n > 2 {
		t.Errorf("one-wait transaction on recycled owners: %v allocations, want at most 2", n)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledWaitHammer: every transaction waits, and the owners and
// request boxes of waited transactions are recycled while the whole control
// plane runs against them: waiters queued past a ceiling (Throttle 2), a short
// lock timeout, cancels through ctx, deadlock detection, timeout sweeps and
// invariant checks. Workers take their rows in ascending order, so no
// deadlock is real: a victim here would be a false one, the detector acting
// on a recycled owner or box it saw in an earlier transaction. Every
// transaction whose first request found the row held must be counted as a
// wait: a bound that does not depend on how the scheduler interleaves the
// workers. Run it with -race.
func TestRecycledWaitHammer(t *testing.T) {
	m := New(Config{InitialPages: 64, Shards: 4, Throttle: 2, LockTimeout: 5 * time.Millisecond})
	const workers = 8
	var wg sync.WaitGroup
	st := newStopper(t, &wg)
	var txns, found atomic.Int64
	seen := make([]map[*Owner]bool, workers)
	for w := range seen {
		seen[w] = make(map[*Owner]bool)
		wg.Add(1)
		go func(mine map[*Owner]bool) {
			defer wg.Done()
			app := m.RegisterApp() // one session per worker
			for n := 0; !st.stopped(); n++ {
				o := m.NewOwner(app)
				mine[o] = true
				ctx, cancel := st.ctx, context.CancelFunc(func() {})
				if n%10 == 0 { // a tenth of the transactions give up through ctx
					ctx, cancel = context.WithTimeout(st.ctx, 200*time.Microsecond)
				}
				for r := uint64(0); r < 3; r++ {
					waited, err := m.acquire(ctx, o, RowName(1, r), ModeX, 1)
					if waited && r == 0 {
						found.Add(1)
					}
					if err != nil {
						if !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrCanceled) {
							t.Errorf("row %d: %v", r, err)
						}
						break
					}
					runtime.Gosched() // hold across a yield so the others queue
				}
				cancel()
				m.FinishOwner(o)
				txns.Add(1)
			}
		}(seen[w])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := time.Now()
		for !st.stopped() {
			m.DetectDeadlocks()
			m.SweepTimeouts()
			if time.Now().After(next) {
				next = time.Now().Add(100 * time.Millisecond)
				if err := m.CheckInvariants(); err != nil {
					t.Errorf("invariants: %v", err)
					return
				}
			}
			runtime.Gosched()
		}
	}()
	time.Sleep(500 * time.Millisecond)
	st.stop()
	wg.Wait()

	owners := make(map[*Owner]bool)
	for _, mine := range seen {
		for o := range mine {
			owners[o] = true
		}
	}
	n := txns.Load()
	if int64(len(owners))*2 > n {
		t.Errorf("%d distinct owners for %d transactions: owners that waited are not reused", len(owners), n)
	}
	if s := m.Stats(); found.Load() == 0 || s.Waits < found.Load() || s.Deadlocks != 0 {
		t.Errorf("%d transactions, %d found row 0 held, %d waits, %d deadlock victims: want some to find it held, each of those counted as a wait, and no victim",
			n, found.Load(), s.Waits, s.Deadlocks)
	}
	if got := waitingNow(m); got != 0 {
		t.Errorf("%d waiters left after every transaction finished", got)
	}
	mustInvariants(t, m)
	if got := m.UsedStructs(); got != 0 {
		t.Errorf("used structs = %d after every transaction finished", got)
	}
}
