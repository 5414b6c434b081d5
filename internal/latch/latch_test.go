package latch

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func newLatch() *Latch {
	var l Latch
	l.Init()
	return &l
}

func TestTryLockBasics(t *testing.T) {
	l := newLatch()
	if !l.TryLock() {
		t.Fatal("TryLock on a free latch failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on a held latch succeeded")
	}
	if got := l.Contended(); got != 1 {
		t.Fatalf("failed TryLock should count one contended acquire, got %d", got)
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	l.Unlock()
}

func TestLockUncontended(t *testing.T) {
	l := newLatch()
	if contended := l.Lock(); contended {
		t.Fatal("uncontended Lock reported contended")
	}
	l.Unlock()
	if waitNs, contended := l.LockProfiled(); contended || waitNs != 0 {
		t.Fatalf("uncontended LockProfiled reported (%d, %v)", waitNs, contended)
	}
	l.Unlock()
	if got := l.Contended(); got != 0 {
		t.Fatalf("uncontended acquires counted %d contended", got)
	}
}

func TestLockProfiledContended(t *testing.T) {
	l := newLatch()
	l.Lock()
	done := make(chan int64)
	go func() {
		waitNs, contended := l.LockProfiled()
		if !contended {
			t.Error("contended LockProfiled reported uncontended")
		}
		l.Unlock()
		done <- waitNs
	}()
	// lockSlow counts the acquire as contended before it spins or parks,
	// so once the count moves the goroutine is in the slow path.
	for l.Contended() == 0 {
		runtime.Gosched()
	}
	l.Unlock()
	if waitNs := <-done; waitNs <= 0 {
		t.Fatalf("contended LockProfiled measured %d ns", waitNs)
	}
}

// exclusionRun hammers one latch from g goroutines incrementing a plain
// (non-atomic) counter inside the critical section; under -race this is
// the mutual-exclusion proof, and the final count catches lost increments
// without -race too.
func exclusionRun(t *testing.T, l *Latch, g, iters int) {
	t.Helper()
	var wg sync.WaitGroup
	counter := 0
	start := make(chan struct{})
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for n := 0; n < iters; n++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("exclusion run wedged: likely lost wakeup")
	}
	if counter != g*iters {
		t.Fatalf("counter = %d, want %d", counter, g*iters)
	}
}

func TestMutualExclusionAdaptive(t *testing.T) {
	exclusionRun(t, newLatch(), 64, 500)
}

func TestMutualExclusionParkOnly(t *testing.T) {
	l := newLatch()
	l.SetFixedBudget(0) // every contended acquire parks: pure cond path
	exclusionRun(t, l, 64, 500)
	if l.SpinHits() != 0 {
		t.Fatalf("park-only latch recorded %d spin hits", l.SpinHits())
	}
}

func TestMutualExclusionFixedSpin(t *testing.T) {
	l := newLatch()
	l.SetFixedBudget(BudgetCap) // force the spin phase even on 1 P
	exclusionRun(t, l, 64, 500)
}

// TestNoLostWakeups parks a crowd behind a held latch with spinning
// disabled, then releases once: the handoff chain must wake every waiter.
func TestNoLostWakeups(t *testing.T) {
	l := newLatch()
	l.SetFixedBudget(0)
	l.Lock()
	const waiters = 64
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Lock()
			l.Unlock()
		}()
	}
	// Give the waiters time to park (not load-bearing: late arrivals
	// just find the latch free or park and get handed off anyway).
	time.Sleep(10 * time.Millisecond)
	l.Unlock()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("lost wakeup: %d parks, %d handoffs", l.Parks(), l.Handoffs())
	}
	if l.Parks() == 0 {
		t.Fatal("no waiter ever parked; test exercised nothing")
	}
}

// TestWakeDedupWithThieves is the regression test for the stranded
// wake-credit deadlock: handoff signals are deduped by wakePending, so if
// an unlock could Signal before the registered waiter reached cond.Wait
// (credit evaporates, flag stays set) and a TryLock thief then stole the
// latch, the parked waiter would sleep forever — every later unlock would
// see the stale wakePending and stay silent. The parked-count gate in
// Unlock forbids that Signal; this test hammers exactly that interleaving
// (parkers racing fastpath thieves) and fails by timeout if any waiter is
// ever stranded.
func TestWakeDedupWithThieves(t *testing.T) {
	l := newLatch()
	l.SetFixedBudget(0) // park immediately: maximize waiter traffic
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 2000; n++ {
				l.Lock()
				l.Unlock()
			}
		}()
	}
	var thiefWG sync.WaitGroup
	thiefWG.Add(1)
	go func() {
		defer thiefWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if l.TryLock() {
				l.Unlock()
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("stranded waiter: %d parks, %d handoffs, word=%#x",
			l.Parks(), l.Handoffs(), l.word.Load())
	}
	close(stop)
	thiefWG.Wait()
}

// TestRetuneRacingAcquires retunes and rebudgets the latch while a crowd
// acquires through it — the controller publishing budgets must never break
// mutual exclusion (checked by -race and the counter).
func TestRetuneRacingAcquires(t *testing.T) {
	l := newLatch()
	var wg sync.WaitGroup
	counter := 0
	stop := make(chan struct{})
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 400; n++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	var tunerWG sync.WaitGroup
	tunerWG.Add(1)
	go func() {
		defer tunerWG.Done()
		budgets := []int{0, 4, BudgetCap, 17, 1}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			l.SetBudget(budgets[i%len(budgets)])
			l.NoteHold(int64(i%5000) + 1)
			l.Retune(8)
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(stop)
	tunerWG.Wait()
	if counter != 32*400 {
		t.Fatalf("counter = %d, want %d", counter, 32*400)
	}
}

func TestTuneBudgetGuards(t *testing.T) {
	if got := TuneBudget(DefaultBudget, 200, 0, 0, 1); got != 0 {
		t.Fatalf("procs=1 should collapse the budget, got %d", got)
	}
	if got := TuneBudget(DefaultBudget, ParkThresholdNs+1, 0, 0, 8); got != 0 {
		t.Fatalf("long holds should collapse the budget, got %d", got)
	}
}

// TestTuneBudgetMonotone pins the hold-time rule's shape: the budget is
// nondecreasing in the hold EWMA on (0, ParkThresholdNs], then drops to
// zero past the threshold.
func TestTuneBudgetMonotone(t *testing.T) {
	prev := 0
	for hold := int64(1); hold <= ParkThresholdNs; hold += 64 {
		got := TuneBudget(DefaultBudget, hold, 0, 0, 8)
		if got < prev {
			t.Fatalf("budget not monotone: hold %d → %d after %d", hold, got, prev)
		}
		if got <= 0 {
			t.Fatalf("short hold %d should keep a nonzero budget, got %d", hold, got)
		}
		if got > BudgetCap {
			t.Fatalf("budget %d exceeds cap", got)
		}
		prev = got
	}
	if got := TuneBudget(DefaultBudget, ParkThresholdNs*2, 0, 0, 8); got != 0 {
		t.Fatalf("hold past threshold should zero the budget, got %d", got)
	}
}

func TestTuneBudgetSuccessRate(t *testing.T) {
	base := TuneBudget(DefaultBudget, 2000, 0, 0, 8)
	// <25% spin success halves; ≥75% grows; sparse evidence leaves it.
	if got := TuneBudget(DefaultBudget, 2000, 16, 1, 8); got >= base {
		t.Fatalf("failing spins should shrink the budget: %d → %d", base, got)
	}
	if got := TuneBudget(DefaultBudget, 2000, 16, 15, 8); got <= base {
		t.Fatalf("winning spins should grow the budget: %d → %d", base, got)
	}
	if got := TuneBudget(DefaultBudget, 2000, tuneMinEvidence-1, 0, 8); got != base {
		t.Fatalf("sparse evidence should not modulate: %d → %d", base, got)
	}
}

// TestTuneBudgetConvergence replays synthetic workloads through the
// controller the way lockSlow drives it: a long-hold workload must
// converge to zero spin, a short-hold workload to a nonzero budget
// proportional to its holds.
func TestTuneBudgetConvergence(t *testing.T) {
	l := newLatch()
	for round := 0; round < 8; round++ {
		for s := 0; s < 16; s++ {
			l.NoteHold(50_000) // 50 µs holds: parking territory
		}
		l.Retune(8)
	}
	if got := l.Budget(); got != 0 {
		t.Fatalf("long-hold workload should converge to 0 spin, got %d", got)
	}
	for round := 0; round < 64; round++ {
		for s := 0; s < 16; s++ {
			l.NoteHold(800) // 800 ns holds: spinning repays
		}
		l.Retune(8)
	}
	got := l.Budget()
	if got < MinBudget || got > BudgetCap {
		t.Fatalf("short-hold workload should converge to a small nonzero budget, got %d", got)
	}
	if want := 800 / SpinUnitNs; got < want/2 || got > want*2 {
		t.Fatalf("short-hold budget %d far from hold-derived target %d", got, want)
	}
}

// TestRetuneReportsChanges wires an OnTune observer and checks a budget
// change is reported with its inputs, and that unchanged budgets stay
// silent.
func TestRetuneReportsChanges(t *testing.T) {
	l := newLatch()
	var calls int
	var lastOld, lastNew int
	l.OnTune(func(old, next int, holdNs int64, tries, wins int) {
		calls++
		lastOld, lastNew = old, next
	})
	l.NoteHold(100_000)
	l.Retune(8) // long hold → 0
	if calls != 1 || lastOld != DefaultBudget || lastNew != 0 {
		t.Fatalf("retune reported calls=%d %d→%d", calls, lastOld, lastNew)
	}
	l.Retune(8) // unchanged → silent
	if calls != 1 {
		t.Fatalf("unchanged retune should not report, got %d calls", calls)
	}
}

func TestFixedBudgetDisablesRetune(t *testing.T) {
	l := newLatch()
	l.SetFixedBudget(7)
	l.NoteHold(1_000_000)
	l.Retune(8)
	if got := l.Budget(); got != 7 {
		t.Fatalf("fixed budget retuned to %d", got)
	}
}

func TestNoteHoldEwma(t *testing.T) {
	l := newLatch()
	l.NoteHold(1000)
	if got := l.HoldEwmaNs(); got != 1000 {
		t.Fatalf("first sample should seed the EWMA, got %d", got)
	}
	for i := 0; i < 200; i++ {
		l.NoteHold(3000)
	}
	if got := l.HoldEwmaNs(); got < 2500 || got > 3200 {
		t.Fatalf("EWMA failed to converge toward 3000, got %d", got)
	}
}
