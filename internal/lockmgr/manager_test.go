package lockmgr

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/memblock"
)

// newMgr builds a manager with one block of lock memory and no timeout.
func newMgr(cfg Config) *Manager {
	if cfg.InitialPages == 0 {
		cfg.InitialPages = 32 * 8 // eight blocks
	}
	return New(cfg)
}

// mustGrant asserts that a pending completed as granted.
func mustGrant(t *testing.T, p *Pending, what string) {
	t.Helper()
	st, err := p.Status()
	if st != StatusGranted {
		t.Fatalf("%s: status=%v err=%v, want granted", what, st, err)
	}
}

// mustWait asserts that a pending is still waiting.
func mustWait(t *testing.T, p *Pending, what string) {
	t.Helper()
	if st, err := p.Status(); st != StatusWaiting {
		t.Fatalf("%s: status=%v err=%v, want waiting", what, st, err)
	}
}

// stopper stops a test's background goroutines: cleanup raises the stop
// flag, cancels ctx (ending any wait in Acquire) and waits on every
// WaitGroup given, so a test that exits through t.Fatal leaks no goroutine
// into the tests after it.
type stopper struct {
	C    chan struct{} // closed by stop
	ctx  context.Context
	once sync.Once
}

func newStopper(t *testing.T, wgs ...*sync.WaitGroup) *stopper {
	ctx, cancel := context.WithCancel(context.Background())
	st := &stopper{C: make(chan struct{}), ctx: ctx}
	t.Cleanup(func() {
		st.stop()
		cancel()
		for _, wg := range wgs {
			wg.Wait()
		}
	})
	return st
}

// stop raises the stop flag; calling it again does nothing.
func (st *stopper) stop() { st.once.Do(func() { close(st.C) }) }

// stopped reports whether the stop flag is raised.
func (st *stopper) stopped() bool {
	select {
	case <-st.C:
		return true
	default:
		return false
	}
}

func TestAcquireReleaseBasics(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()
	o := m.NewOwner(app)

	p := m.AcquireAsync(o, RowName(1, 1), ModeS, 1)
	mustGrant(t, p, "first S")
	if got := m.UsedStructs(); got != 1 {
		t.Fatalf("used structs = %d, want 1", got)
	}
	if got := m.AppStructs(app); got != 1 {
		t.Fatalf("app structs = %d, want 1", got)
	}

	if err := m.Release(o, RowName(1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := m.UsedStructs(); got != 0 {
		t.Fatalf("used structs after release = %d, want 0", got)
	}
	if err := m.Release(o, RowName(1, 1)); err == nil {
		t.Fatal("double release must error")
	}
}

func TestInvalidRequests(t *testing.T) {
	m := newMgr(Config{})
	o := m.NewOwner(m.RegisterApp())
	if st, _ := m.AcquireAsync(o, RowName(1, 1), ModeNone, 1).Status(); st != StatusDenied {
		t.Fatal("NONE mode must be denied")
	}
	if st, _ := m.AcquireAsync(o, RowName(1, 1), ModeS, 0).Status(); st != StatusDenied {
		t.Fatal("weight 0 must be denied")
	}
	if st, _ := m.AcquireAsync(o, TableName(1), ModeS, 4).Status(); st != StatusDenied {
		t.Fatal("weighted table lock must be denied")
	}
}

func TestSharedGrant(t *testing.T) {
	m := newMgr(Config{})
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(o1, RowName(1, 5), ModeS, 1), "o1 S")
	mustGrant(t, m.AcquireAsync(o2, RowName(1, 5), ModeS, 1), "o2 S")
	if got := m.UsedStructs(); got != 2 {
		t.Fatalf("used = %d, want 2 (one struct per holder)", got)
	}
}

// TestLockQueuingFigure3 reproduces the scenario of Figure 3: apps 1 and 2
// share a row in S; app 3 requests X and waits; app 4 requests S and must
// queue behind app 3 rather than jump in with the current S holders.
func TestLockQueuingFigure3(t *testing.T) {
	m := newMgr(Config{})
	owners := make([]*Owner, 5)
	for i := 1; i <= 4; i++ {
		owners[i] = m.NewOwner(m.RegisterApp())
	}
	row := RowName(9, 42)

	p1 := m.AcquireAsync(owners[1], row, ModeS, 1)
	p2 := m.AcquireAsync(owners[2], row, ModeS, 1)
	mustGrant(t, p1, "app1 S")
	mustGrant(t, p2, "app2 S")

	p3 := m.AcquireAsync(owners[3], row, ModeX, 1)
	mustWait(t, p3, "app3 X")

	p4 := m.AcquireAsync(owners[4], row, ModeS, 1)
	mustWait(t, p4, "app4 S queues behind app3 (no queue jumping)")

	// App1 releases: app3 still blocked by app2.
	if err := m.Release(owners[1], row); err != nil {
		t.Fatal(err)
	}
	mustWait(t, p3, "app3 X after one release")
	mustWait(t, p4, "app4 S")

	// App2 releases: app3 gets X; app4 still behind app3.
	if err := m.Release(owners[2], row); err != nil {
		t.Fatal(err)
	}
	mustGrant(t, p3, "app3 X after both releases")
	mustWait(t, p4, "app4 S blocked by app3's X")

	// App3 releases: app4 finally granted — strict request order.
	if err := m.Release(owners[3], row); err != nil {
		t.Fatal(err)
	}
	mustGrant(t, p4, "app4 S at the end of the chain")
}

func TestFIFOOrderPreserved(t *testing.T) {
	m := newMgr(Config{})
	row := RowName(1, 1)
	holder := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(holder, row, ModeX, 1), "holder X")

	// Queue S, X, S, S: on release, the first S is granted alone? No —
	// strict FIFO grants S then stops at X. After the X holder releases,
	// S1 is granted; then X2 blocks S3, S4 even though they are
	// compatible with S1.
	o := make([]*Owner, 5)
	p := make([]*Pending, 5)
	modes := []Mode{0, ModeS, ModeX, ModeS, ModeS}
	for i := 1; i <= 4; i++ {
		o[i] = m.NewOwner(m.RegisterApp())
		p[i] = m.AcquireAsync(o[i], row, modes[i], 1)
		mustWait(t, p[i], "queued")
	}
	if err := m.Release(holder, row); err != nil {
		t.Fatal(err)
	}
	mustGrant(t, p[1], "S1")
	mustWait(t, p[2], "X2 blocked by S1")
	mustWait(t, p[3], "S3 must not jump X2")
	mustWait(t, p[4], "S4 must not jump X2")
}

func TestReacquireWeakerIsNoop(t *testing.T) {
	m := newMgr(Config{})
	o := m.NewOwner(m.RegisterApp())
	row := RowName(1, 1)
	mustGrant(t, m.AcquireAsync(o, row, ModeX, 1), "X")
	used := m.UsedStructs()
	mustGrant(t, m.AcquireAsync(o, row, ModeS, 1), "S re-acquire under X")
	if m.UsedStructs() != used {
		t.Fatal("weaker re-acquire must not consume structures")
	}
}

func TestConversionImmediate(t *testing.T) {
	m := newMgr(Config{})
	o := m.NewOwner(m.RegisterApp())
	row := RowName(1, 1)
	mustGrant(t, m.AcquireAsync(o, row, ModeS, 1), "S")
	used := m.UsedStructs()
	mustGrant(t, m.AcquireAsync(o, row, ModeX, 1), "S→X with no other holders")
	if m.UsedStructs() != used {
		t.Fatal("conversion must not consume structures")
	}
}

func TestConversionWaitsForOtherHolder(t *testing.T) {
	m := newMgr(Config{})
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())
	row := RowName(1, 1)
	mustGrant(t, m.AcquireAsync(o1, row, ModeS, 1), "o1 S")
	mustGrant(t, m.AcquireAsync(o2, row, ModeS, 1), "o2 S")

	pc := m.AcquireAsync(o1, row, ModeX, 1) // convert S→X
	mustWait(t, pc, "conversion blocked by o2's S")

	if err := m.Release(o2, row); err != nil {
		t.Fatal(err)
	}
	mustGrant(t, pc, "conversion after o2 release")
}

func TestConverterPriorityOverWaiters(t *testing.T) {
	m := newMgr(Config{})
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())
	o3 := m.NewOwner(m.RegisterApp())
	row := RowName(1, 1)
	mustGrant(t, m.AcquireAsync(o1, row, ModeS, 1), "o1 S")
	mustGrant(t, m.AcquireAsync(o2, row, ModeS, 1), "o2 S")

	p3 := m.AcquireAsync(o3, row, ModeS, 1) // compatible, grants right away
	mustGrant(t, p3, "o3 S")

	pc := m.AcquireAsync(o1, row, ModeX, 1) // conversion waits on o2, o3
	mustWait(t, pc, "conversion")

	// A new S request must now wait: converters block later arrivals.
	o4 := m.NewOwner(m.RegisterApp())
	p4 := m.AcquireAsync(o4, row, ModeS, 1)
	mustWait(t, p4, "S behind pending conversion")

	if err := m.Release(o2, row); err != nil {
		t.Fatal(err)
	}
	mustWait(t, pc, "conversion still blocked by o3")
	if err := m.Release(o3, row); err != nil {
		t.Fatal(err)
	}
	mustGrant(t, pc, "conversion first")
	mustWait(t, p4, "S blocked by converted X")
}

func TestTableCoverageSkipsRowLocks(t *testing.T) {
	m := newMgr(Config{})
	o := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(o, TableName(3), ModeX, 1), "table X")
	used := m.UsedStructs()
	mustGrant(t, m.AcquireAsync(o, RowName(3, 1), ModeX, 1), "covered row X")
	mustGrant(t, m.AcquireAsync(o, RowName(3, 2), ModeS, 1), "covered row S")
	if m.UsedStructs() != used {
		t.Fatal("covered rows must not consume structures")
	}
	// Coverage is per-owner: another owner following the intent protocol
	// blocks at the table intent lock.
	o2 := m.NewOwner(m.RegisterApp())
	p := m.AcquireAsync(o2, TableName(3), ModeIS, 1)
	mustWait(t, p, "other owner's IS intent vs table X")
}

func TestIntentThenRowPattern(t *testing.T) {
	m := newMgr(Config{})
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())
	// Two writers on different rows of one table coexist via IX.
	mustGrant(t, m.AcquireAsync(o1, TableName(1), ModeIX, 1), "o1 IX")
	mustGrant(t, m.AcquireAsync(o2, TableName(1), ModeIX, 1), "o2 IX")
	mustGrant(t, m.AcquireAsync(o1, RowName(1, 1), ModeX, 1), "o1 row 1 X")
	mustGrant(t, m.AcquireAsync(o2, RowName(1, 2), ModeX, 1), "o2 row 2 X")
	// Same row conflicts.
	p := m.AcquireAsync(o2, RowName(1, 1), ModeX, 1)
	mustWait(t, p, "o2 row 1 X vs o1's X")
}

func TestWeightedLockAccounting(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()
	o := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(o, RowName(1, 0), ModeS, 64), "chunk lock")
	if got := m.UsedStructs(); got != 64 {
		t.Fatalf("used = %d, want 64", got)
	}
	if got := m.AppStructs(app); got != 64 {
		t.Fatalf("app structs = %d, want 64", got)
	}
	m.ReleaseAll(o)
	if got := m.UsedStructs(); got != 0 {
		t.Fatalf("used after ReleaseAll = %d, want 0", got)
	}
}

func TestReleaseAllWakesWaiters(t *testing.T) {
	m := newMgr(Config{})
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())
	row := RowName(1, 1)
	mustGrant(t, m.AcquireAsync(o1, row, ModeX, 1), "o1 X")
	p := m.AcquireAsync(o2, row, ModeS, 1)
	mustWait(t, p, "o2 S")
	m.ReleaseAll(o1)
	mustGrant(t, p, "o2 S after o1 commit")
}

func TestReleaseAllCancelsOwnWaits(t *testing.T) {
	m := newMgr(Config{})
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())
	row := RowName(1, 1)
	mustGrant(t, m.AcquireAsync(o1, row, ModeX, 1), "o1 X")
	p := m.AcquireAsync(o2, row, ModeS, 1)
	mustWait(t, p, "o2 S")
	m.ReleaseAll(o2) // abort while waiting
	if st, err := p.Status(); st != StatusDenied || !errors.Is(err, ErrCanceled) {
		t.Fatalf("status=%v err=%v, want denied/canceled", st, err)
	}
	if got := m.UsedStructs(); got != 1 {
		t.Fatalf("used = %d, want 1 (only o1's lock)", got)
	}
}

func TestUnregisterAppGuard(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()
	o := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(o, RowName(1, 1), ModeS, 1), "S")
	if err := m.UnregisterApp(app); err == nil {
		t.Fatal("unregister with held locks must fail")
	}
	m.ReleaseAll(o)
	if err := m.UnregisterApp(app); err != nil {
		t.Fatal(err)
	}
	if got := m.NumApps(); got != 0 {
		t.Fatalf("apps = %d, want 0", got)
	}
}

func TestBlockingAcquire(t *testing.T) {
	m := newMgr(Config{})
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())
	row := RowName(1, 1)
	if err := m.Acquire(context.Background(), o1, row, ModeX, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var wg sync.WaitGroup
	st := newStopper(t, &wg)
	wg.Add(1)
	go func() {
		defer wg.Done()
		done <- m.Acquire(st.ctx, o2, row, ModeS, 1)
	}()
	time.Sleep(10 * time.Millisecond)
	m.ReleaseAll(o1)
	if err := <-done; err != nil {
		t.Fatalf("blocking acquire: %v", err)
	}
}

func TestBlockingAcquireContextCancel(t *testing.T) {
	m := newMgr(Config{})
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())
	row := RowName(1, 1)
	if err := m.Acquire(context.Background(), o1, row, ModeX, 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := m.Acquire(ctx, o2, row, ModeS, 1)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// The canceled waiter must be fully withdrawn.
	m.ReleaseAll(o1)
	if got := m.UsedStructs(); got != 0 {
		t.Fatalf("used = %d, want 0", got)
	}
}

func TestTimeoutSweep(t *testing.T) {
	clk := clock.NewSim()
	m := New(Config{InitialPages: 64, Clock: clk, LockTimeout: 30 * time.Second})
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())
	row := RowName(1, 1)
	mustGrant(t, m.AcquireAsync(o1, row, ModeX, 1), "o1 X")
	p := m.AcquireAsync(o2, row, ModeS, 1)
	mustWait(t, p, "o2 S")

	clk.Advance(29 * time.Second)
	if n := m.SweepTimeouts(); n != 0 {
		t.Fatalf("swept %d before deadline", n)
	}
	clk.Advance(2 * time.Second)
	if n := m.SweepTimeouts(); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	if st, err := p.Status(); st != StatusDenied || !errors.Is(err, ErrTimeout) {
		t.Fatalf("status=%v err=%v, want timeout denial", st, err)
	}
	if got := m.Stats().Timeouts; got != 1 {
		t.Fatalf("timeout stat = %d", got)
	}
}

func TestNoTimeoutWhenDisabled(t *testing.T) {
	clk := clock.NewSim()
	m := New(Config{InitialPages: 64, Clock: clk}) // LockTimeout zero
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(o1, RowName(1, 1), ModeX, 1), "X")
	p := m.AcquireAsync(o2, RowName(1, 1), ModeS, 1)
	clk.Advance(time.Hour)
	if n := m.SweepTimeouts(); n != 0 {
		t.Fatalf("swept %d with timeouts disabled", n)
	}
	mustWait(t, p, "still waiting")
}

func TestResize(t *testing.T) {
	m := newMgr(Config{InitialPages: 64})
	if got := m.Resize(256); got != 256 {
		t.Fatalf("grow resize = %d, want 256", got)
	}
	if got := m.Resize(128); got != 128 {
		t.Fatalf("shrink resize = %d, want 128", got)
	}
	// Shrink below live data is best-effort.
	o := m.NewOwner(m.RegisterApp())
	for i := 0; i < memblock.StructsPerBlock+1; i++ {
		mustGrant(t, m.AcquireAsync(o, RowName(1, uint64(i)), ModeS, 1), "fill")
	}
	got := m.Resize(32)
	if got < 64 {
		t.Fatalf("resize freed live blocks: %d pages", got)
	}
}

func TestStatsCounters(t *testing.T) {
	m := newMgr(Config{})
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(o1, RowName(1, 1), ModeX, 1), "X")
	m.AcquireAsync(o2, RowName(1, 1), ModeS, 1)
	s := m.Stats()
	if s.Grants != 1 || s.Waits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestConcurrentChurn(t *testing.T) {
	m := New(Config{InitialPages: 32 * 64})
	const goroutines = 8
	var wg sync.WaitGroup
	st := newStopper(t, &wg)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			app := m.RegisterApp()
			for i := 0; i < 200; i++ {
				o := m.NewOwner(app)
				ctx, cancel := context.WithTimeout(st.ctx, 50*time.Millisecond)
				table := uint32(rng.Intn(3))
				rowMode := ModeS
				if rng.Intn(2) == 0 {
					rowMode = ModeX
				}
				if err := m.Acquire(ctx, o, TableName(table), intentFor(rowMode), 1); err == nil {
					for j := 0; j < rng.Intn(5); j++ {
						_ = m.Acquire(ctx, o, RowName(table, uint64(rng.Intn(40))), rowMode, 1)
					}
				}
				cancel()
				m.ReleaseAll(o)
			}
			wg2 := m.UsedStructs() // touch accessor concurrently
			_ = wg2
		}(int64(g))
	}
	wg.Wait()
	if got := m.UsedStructs(); got != 0 {
		t.Fatalf("used after churn = %d, want 0", got)
	}
}

func TestAcquireAfterReleaseAllRejected(t *testing.T) {
	m := newMgr(Config{})
	o := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(o, RowName(1, 1), ModeS, 1), "S")
	m.ReleaseAll(o)
	p := m.AcquireAsync(o, RowName(1, 2), ModeX, 1)
	if st, err := p.Status(); st != StatusDenied || err == nil {
		t.Fatalf("ghost owner acquired: %v %v", st, err)
	}
	if got := m.UsedStructs(); got != 0 {
		t.Fatalf("leak: %d structs", got)
	}
}

func TestAccessorsAndStrings(t *testing.T) {
	m := newMgr(Config{InitialPages: 64})
	app := m.RegisterApp()
	o := m.NewOwner(app)
	if o.App() != app || o.ID() == 0 || app.ID() == 0 {
		t.Fatal("identity accessors wrong")
	}
	if StatusWaiting.String() != "waiting" || StatusGranted.String() != "granted" ||
		StatusDenied.String() != "denied" || Status(9).String() != "Status(9)" {
		t.Fatal("status strings wrong")
	}
	mustGrant(t, m.AcquireAsync(o, RowName(1, 1), ModeS, 1), "S")
	if m.CapacityStructs() != 64*memblock.StructsPerPage {
		t.Fatalf("capacity = %d", m.CapacityStructs())
	}
	if m.UsedPages() != 1 || m.StructRequests() == 0 {
		t.Fatalf("usedPages=%d requests=%d", m.UsedPages(), m.StructRequests())
	}
	if got := m.GrowPages(32); got != 32 {
		t.Fatalf("GrowPages = %d", got)
	}
	if m.Pages() != 96 {
		t.Fatalf("pages = %d", m.Pages())
	}
}
