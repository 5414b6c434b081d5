package lockmgr

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the owner caches: FinishOwner's walk recycles committed request
// boxes and emptied unpublished headers into the owner, and the owner's
// next transaction draws from them before the shard freelists.

// TestBoxRecyclingFinishOwner is TestBoxRecycling through FinishOwner:
// committed blocking acquires return their boxes to the owner's cache, not
// the shard's, and the next transaction on the recycled owner reuses the
// very box its last request freed.
func TestBoxRecyclingFinishOwner(t *testing.T) {
	m := newMgr(Config{Shards: 1})
	app := m.RegisterApp()
	ctx := context.Background()
	s := &m.shards[0]

	o := m.NewOwner(app)
	for i := 0; i < 4; i++ {
		if err := m.Acquire(ctx, o, RowName(1, uint64(i)), ModeX, 1); err != nil {
			t.Fatal(err)
		}
	}
	m.FinishOwner(o)
	cached := slices.Clone(o.cache.boxes)
	if len(cached) != 4 {
		t.Fatalf("owner caches %d boxes after committing 4 blocking acquires, want 4", len(cached))
	}
	if len(o.cache.hdrs) != 4 {
		t.Fatalf("owner caches %d headers after committing 4 private rows, want 4", len(o.cache.hdrs))
	}
	if n := s.rfreeN.Load(); n != 0 {
		t.Fatalf("shard cache holds %d boxes: FinishOwner recycled past a non-full owner cache", n)
	}

	o2 := m.NewOwner(app)
	if o2 != o {
		if raceEnabled {
			t.Skip("the race detector makes sync.Pool drop owners at random")
		}
		t.Fatal("NewOwner did not hand the finished owner out again")
	}
	if err := m.Acquire(ctx, o2, RowName(2, 1), ModeX, 1); err != nil {
		t.Fatal(err)
	}
	o2.mu.Lock()
	req, _ := o2.heldGet(hashName(RowName(2, 1)), RowName(2, 1))
	o2.mu.Unlock()
	if req == nil || req.box != cached[len(cached)-1] {
		t.Fatal("the recycled owner's next request did not reuse its last cached box")
	}
	if len(o2.cache.hdrs) != 3 {
		t.Fatalf("owner caches %d headers after creating one, want 3", len(o2.cache.hdrs))
	}

	// Async pendings are caller-held and must never be recycled.
	p := m.AcquireAsync(o2, RowName(3, 1), ModeX, 1)
	mustGrant(t, p, "async")
	m.FinishOwner(o2)
	if st, err := p.Status(); st != StatusGranted || err != nil {
		t.Fatalf("caller-held pending corrupted after release: status=%v err=%v", st, err)
	}
	mustInvariants(t, m)
}

// TestOwnerCacheHammer: transactions commit and abort through FinishOwner
// over shared and private rows — blocking, batched and fast-path grants,
// waits, timeouts, cancels and aborts with a wait in flight — while the
// deadlock detector, the timeout sweep and CheckInvariants run against
// them. CheckInvariants checks every registered owner's cache: boxes
// zeroed and on no queue or wait list, headers unpublished, empty and in no
// shard table. Run it with -race.
func TestOwnerCacheHammer(t *testing.T) {
	m := New(Config{InitialPages: 64, Shards: 4, LockTimeout: 5 * time.Millisecond})
	const workers = 6
	var wg sync.WaitGroup
	st := newStopper(t, &wg)
	var txns, aborts atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			app := m.RegisterApp()
			rows := make([]uint64, 0, 8)
			for n := uint64(0); !st.stopped(); n++ {
				o := m.NewOwner(app)
				ctx, cancel := st.ctx, context.CancelFunc(func() {})
				if n%7 == 0 {
					ctx, cancel = context.WithTimeout(st.ctx, 200*time.Microsecond)
				}
				err := m.Acquire(ctx, o, TableName(1), ModeIX, 1)
				// Private rows: fresh headers every transaction, through the
				// batch path and one by one.
				rows = rows[:0]
				for r := uint64(0); r < 6; r++ {
					rows = append(rows, uint64(w)<<40|n<<8|r)
				}
				if err == nil {
					_, err = m.AcquireRows(ctx, o, 1, rows[:4], ModeX)
				}
				for _, r := range rows[4:] {
					if err == nil {
						err = m.Acquire(ctx, o, RowName(1, r), ModeX, 1)
					}
				}
				// Shared rows: S readers (fast-path once published) and X
				// writers queue on a small hot set, in ascending order.
				mode := ModeS
				if n%3 == 0 {
					mode = ModeX
				}
				for r := uint64(0); r < 3 && err == nil; r++ {
					err = m.Acquire(ctx, o, RowName(2, r), mode, 1)
					runtime.Gosched()
				}
				if err != nil && !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrCanceled) && !errors.Is(err, ErrDeadlock) {
					t.Errorf("worker %d: %v", w, err)
				}
				if err == nil && n%5 == 0 {
					// Abort with a wait in flight — a conversion of the
					// table intent the other workers hold too: the walk's
					// revalidating path recycles the granted boxes.
					if st, _ := m.AcquireAsync(o, TableName(1), ModeX, 1).Status(); st == StatusWaiting {
						aborts.Add(1)
					}
				}
				cancel()
				m.FinishOwner(o)
				txns.Add(1)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := time.Now()
		for !st.stopped() {
			m.DetectDeadlocks()
			m.SweepTimeouts()
			if time.Now().After(next) {
				next = time.Now().Add(20 * time.Millisecond)
				if err := m.CheckInvariants(); err != nil {
					t.Errorf("invariants: %v", err)
					return
				}
			}
			runtime.Gosched()
		}
	}()
	time.Sleep(400 * time.Millisecond)
	st.stop()
	wg.Wait()

	if txns.Load() == 0 || aborts.Load() == 0 {
		t.Fatalf("%d transactions, %d aborts with a wait in flight: want both", txns.Load(), aborts.Load())
	}
	t.Logf("%d transactions, %d aborts with a wait in flight, %d waits, %d deadlock victims",
		txns.Load(), aborts.Load(), m.Stats().Waits, m.Stats().Deadlocks)
	if got := waitingNow(m); got != 0 {
		t.Errorf("%d waiters left after every transaction finished", got)
	}
	mustInvariants(t, m)
	if got := m.UsedStructs(); got != 0 {
		t.Errorf("used structs = %d after every transaction finished", got)
	}
}
