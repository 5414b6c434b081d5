// Package latch implements the lock table's shard latch: an instrumented
// spin-then-park latch whose spin budget is tuned per instance from
// observed hold times and spin outcomes, replacing the stock sync.Mutex
// (which parks on first contention and makes every short-hold latched
// section pay a futex round trip).
//
// The design follows Nikolaev's Oracle latch/spinlock studies: any fixed
// spin count is wrong for some workload, so the right budget falls out of
// the hold-time distribution — a latch whose critical sections run shorter
// than the cost of a park/unpark should be spun on, one whose holds exceed
// it should be parked on immediately. Each Latch therefore carries:
//
//   - a packed atomic word: bit 0 is the lock bit, bits 1..24 count active
//     spinners, bits 25..48 count parked (or parking) waiters. Acquires
//     are a single CAS on the uncontended path; Unlock is a single atomic
//     add that reads the waiter count from its own return value, so the
//     no-waiter unlock touches no mutex;
//   - a spin budget in [0, BudgetCap], either fixed (the experimental
//     control) or retuned every TuneStride contended acquires from the
//     hold-time EWMA (fed by NoteHold from the owner's sampled
//     instrumentation) and the spin success rate of the last window;
//   - Nikolaev's retrial guards for adaptive mode: the budget is ignored
//     when GOMAXPROCS==1 (spinning can never observe a release: the
//     holder needs this P) or when the process-wide spinner count already
//     matches the P count (extra spinners burn cycles the holders need);
//   - a sync.Mutex + sync.Cond slow path for parking, with the classic
//     publish-then-recheck protocol: a waiter raises its waiter bit
//     before checking the lock bit under the mutex, an unlocker clears
//     the lock bit before reading the waiter count, and both operations
//     are seq-cst atomics on the same word — whichever side loses the
//     total order sees the other, so wakeups cannot be lost. Handoff
//     signals are deduped (wakePending) and gated on waiters actually
//     inside cond.Wait (parked), so an unlock storm issues one wakeup
//     per wake cycle instead of re-signalling a waiter the scheduler
//     has not yet run.
//
// State diagram of one contended acquire:
//
//	fast CAS fails
//	      │
//	      ▼
//	 [spin phase]  budget > 0 and guards pass: bounded retries with
//	      │        PAUSE-style backoff, yielding the P every
//	      │        goschedStride-th retry
//	      ├─ lock bit observed clear, CAS wins ──► acquired (spin hit)
//	      ▼ budget exhausted (or spin skipped)
//	 [park phase]  waiter count raised; lock bit rechecked under the
//	      │        mutex; cond.Wait until an unlock signals
//	      └─ woken, CAS wins ──► acquired (park)
//
// Tuning decisions are pure: TuneBudget maps (current budget, hold EWMA,
// spin window, P count) to the next budget, so the controller is unit
// testable without goroutines or clocks.
package latch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Packed word layout. 24-bit spinner and waiter fields cannot saturate:
// both are bounded by live goroutines, and the runtime falls over long
// before 16M of them block on one shard latch.
const (
	lockedBit   uint64 = 1
	spinnerOne  uint64 = 1 << 1
	spinnerMask uint64 = (1<<24 - 1) << 1
	waiterOne   uint64 = 1 << 25
	waiterMask  uint64 = (1<<24 - 1) << 25
)

// Two's-complement decrements for the packed fields.
const (
	negLocked  = ^(lockedBit - 1)  // -1: clears a set lock bit
	negSpinner = ^(spinnerOne - 1) // -spinnerOne
	negWaiter  = ^(waiterOne - 1)  // -waiterOne
)

// Controller parameters. All are compile-time constants so TuneBudget is a
// pure function of its arguments.
const (
	// BudgetCap bounds any spin budget: past it a hold is long enough
	// that parking is always cheaper than the wasted cycles.
	BudgetCap = 128
	// DefaultBudget is the adaptive controller's cold-start budget,
	// active until the first retune window accumulates evidence.
	DefaultBudget = 32
	// MinBudget is the smallest nonzero budget the hold-time rule emits:
	// fewer retries than this cannot cover even a back-to-back release.
	MinBudget = 4
	// TuneStride is how many contended acquires elapse between retunes
	// (power of two; the trigger is a mask test on the contended count).
	TuneStride = 128
	// SpinUnitNs approximates the cost of one spin retry (a PAUSE-style
	// backoff iteration plus the word reload), calibrated for current
	// x86/arm server cores. The hold-time rule divides by it: a latch
	// whose holds run H ns deserves about H/SpinUnitNs retries.
	SpinUnitNs = 40
	// ParkThresholdNs is the hold-time EWMA above which spinning never
	// repays: at ~4 µs of expected wait the futex round trip is cheaper
	// than the burned cycles, so the budget collapses to zero.
	ParkThresholdNs = 4096
	// tuneMinEvidence is the minimum spin attempts in a window before
	// the success-rate term may modulate the budget.
	tuneMinEvidence = 8
	// goschedStride: every goschedStride-th spin retry yields the P
	// instead of pausing, so a budgeted spinner cannot starve runnable
	// goroutines (the holder included) on an oversubscribed machine.
	goschedStride = 16
	// pauseIters sizes the PAUSE-style busy loop of one spin retry.
	pauseIters = 16
)

// globalSpinners is the process-wide count of goroutines currently inside
// an adaptive spin phase — the input to Nikolaev's retrial rule: once
// spinners match the P count, further spinning only steals cycles from the
// latch holders, so late arrivals park immediately.
var globalSpinners atomic.Int32

// procs caches runtime.GOMAXPROCS(0); refreshed by UpdateProcs on every
// retune so the guards track runtime changes without a runtime call per
// contended acquire.
var procs atomic.Int32

func init() { procs.Store(int32(runtime.GOMAXPROCS(0))) }

// UpdateProcs re-reads GOMAXPROCS into the package cache and returns it.
func UpdateProcs() int {
	p := runtime.GOMAXPROCS(0)
	procs.Store(int32(p))
	return p
}

// pause burns roughly SpinUnitNs of CPU without touching shared memory —
// the portable stand-in for a PAUSE/YIELD instruction. noinline so the
// loop (and the call) survive optimization.
//
//go:noinline
func pause() uint64 {
	acc := uint64(pauseIters)
	for i := 0; i < pauseIters; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	return acc
}

// Latch is one adaptive spin-then-park latch. The zero value is not ready
// for use: call Init first (and SetFixedBudget / OnTune, if wanted) before
// the latch is shared. All other methods are safe for concurrent use.
type Latch struct {
	word atomic.Uint64

	// budget is the current spin budget; fixed pins it (SetFixedBudget),
	// which also bypasses the GOMAXPROCS/global-spinner guards so fixed
	// budgets measure exactly what they say — the experimental control
	// for the adaptive controller's A/B runs.
	budget atomic.Int32
	fixed  atomic.Bool

	// holdEwma is the EWMA (÷8) of sampled hold times fed by NoteHold.
	// Updated with a racy load/store pair: a lost update skews the
	// average by one sample, which the controller tolerates.
	holdEwma atomic.Int64

	// Stats. contended counts every acquire that found the latch held
	// (failed fast CAS entering the slow path, or failed TryLock) — the
	// one definition of "contended" shared by the spin controller and
	// the lock manager's commit-storm hysteresis. spinHits counts slow
	// acquires won in the spin phase, parks those that blocked on the
	// cond, handoffs the unlocks that signalled a parked waiter.
	contended atomic.Uint64
	spinHits  atomic.Uint64
	parks     atomic.Uint64
	handoffs  atomic.Uint64

	// waitNs accumulates the exact wall-clock nanoseconds contended
	// acquires spent in the slow path — the numerator of the mean
	// contended wait the A/B benchmarks compare (the latch profile's
	// histogram quantizes to power-of-two buckets, too coarse for a
	// 20% comparison over few events).
	waitNs atomic.Int64

	// Spin-outcome window for the success-rate term, reset each retune.
	winTries atomic.Uint32
	winWins  atomic.Uint32

	// onTune, if set, observes every budget change the adaptive
	// controller makes. It runs on the acquiring goroutine immediately
	// after the latch is taken, so it must be a leaf (the lock manager
	// appends to its decision log, whose Add takes only its own mutex).
	onTune func(old, new int, holdNs int64, tries, wins int)

	mu   sync.Mutex
	cond sync.Cond
	// parked, guarded by mu, counts waiters inside cond.Wait — the only
	// waiters a Signal can reach. Unlock gates on it rather than the
	// word's waiter count: a waiter between its word increment and
	// cond.Wait would let a Signal evaporate.
	parked int
	// wakePending, guarded by mu, dedups handoff signals: once an unlock
	// has signalled a parked waiter, further unlocks stay silent until
	// that wakeup lands (the woken waiter clears the flag). Without it,
	// every unlock during the waiter's scheduling delay re-signals — on
	// an oversubscribed box that is thousands of futile wakeups per park,
	// each one re-running the waiter just to lose the race again.
	wakePending bool
}

// Init prepares the latch (condition binding, cold-start budget). Must be
// called exactly once, before the latch is shared.
func (l *Latch) Init() {
	l.cond.L = &l.mu
	l.budget.Store(DefaultBudget)
}

// OnTune registers a callback observing adaptive budget changes
// (old, new, hold EWMA, window tries, window wins). Must be set before the
// latch is shared; the callback must not acquire this latch.
func (l *Latch) OnTune(f func(old, new int, holdNs int64, tries, wins int)) {
	l.onTune = f
}

// SetFixedBudget pins the spin budget to n (clamped to [0, BudgetCap]) and
// disables the adaptive controller and its retrial guards.
func (l *Latch) SetFixedBudget(n int) {
	l.fixed.Store(true)
	l.budget.Store(int32(clampBudget(n)))
}

// SetBudget sets the current budget (clamped) without leaving adaptive
// mode. Exposed for tests and manual overrides.
func (l *Latch) SetBudget(n int) { l.budget.Store(int32(clampBudget(n))) }

// Budget returns the current spin budget.
func (l *Latch) Budget() int { return int(l.budget.Load()) }

// Fixed reports whether the budget is pinned (SetFixedBudget).
func (l *Latch) Fixed() bool { return l.fixed.Load() }

// HoldEwmaNs returns the current hold-time EWMA in nanoseconds.
func (l *Latch) HoldEwmaNs() int64 { return l.holdEwma.Load() }

// Contended returns how many acquires found the latch held (slow-path
// entries plus failed TryLocks).
func (l *Latch) Contended() uint64 { return l.contended.Load() }

// SpinHits returns how many contended acquires were won by spinning.
func (l *Latch) SpinHits() uint64 { return l.spinHits.Load() }

// Parks returns how many contended acquires parked on the condition.
func (l *Latch) Parks() uint64 { return l.parks.Load() }

// Handoffs returns how many unlocks signalled a parked waiter.
func (l *Latch) Handoffs() uint64 { return l.handoffs.Load() }

// WaitNs returns the total wall-clock nanoseconds contended acquires have
// spent in the slow path; WaitNs()/Contended() is the exact mean contended
// wait (TryLock failures contribute zero wait).
func (l *Latch) WaitNs() int64 { return l.waitNs.Load() }

func clampBudget(n int) int {
	if n < 0 {
		return 0
	}
	if n > BudgetCap {
		return BudgetCap
	}
	return n
}

// TryLock acquires the latch if it is free, without blocking. A failed
// attempt counts as one contended acquire — the same signal a slow-path
// entry emits, so hysteresis built on TryLock failures and the spin
// controller see the same definition of contention.
func (l *Latch) TryLock() bool {
	for {
		w := l.word.Load()
		if w&lockedBit != 0 {
			l.contended.Add(1)
			return false
		}
		if l.word.CompareAndSwap(w, w|lockedBit) {
			return true
		}
	}
}

// Lock acquires the latch, reporting whether the acquire was contended
// (found the latch held and took the slow path).
func (l *Latch) Lock() (contended bool) {
	if l.word.CompareAndSwap(0, lockedBit) {
		return false
	}
	if w := l.word.Load(); w&lockedBit == 0 && l.word.CompareAndSwap(w, w|lockedBit) {
		return false
	}
	l.lockSlow()
	return true
}

// LockProfiled is Lock plus the wall-clock nanoseconds a contended acquire
// spent in the slow path (spin plus park); the uncontended CAS pays no
// extra work over Lock.
func (l *Latch) LockProfiled() (waitNs int64, contended bool) {
	if l.word.CompareAndSwap(0, lockedBit) {
		return 0, false
	}
	if w := l.word.Load(); w&lockedBit == 0 && l.word.CompareAndSwap(w, w|lockedBit) {
		return 0, false
	}
	return l.lockSlow(), true
}

// lockSlow is the contended acquire: bounded spin, then park. The slow
// path is timed (contended acquires are rare, so the two clock reads stay
// off every fast path) and the exact wait accumulates in waitNs. Retunes
// the budget every TuneStride contended acquires (adaptive mode only),
// after the latch is held — the tune itself is off the critical acquire
// path.
func (l *Latch) lockSlow() int64 {
	c := l.contended.Add(1)
	t0 := time.Now()
	if !l.trySpin() {
		l.park()
	}
	ns := time.Since(t0).Nanoseconds()
	l.waitNs.Add(ns)
	if c&(TuneStride-1) == 0 && !l.fixed.Load() {
		l.Retune(UpdateProcs())
	}
	return ns
}

// trySpin runs the bounded spin phase; it reports whether it acquired the
// latch. Adaptive mode applies the retrial guards (single P, or spinners
// already matching the P count → don't spin); fixed mode always spends its
// budget.
func (l *Latch) trySpin() bool {
	budget := int(l.budget.Load())
	if budget <= 0 {
		return false
	}
	if !l.fixed.Load() {
		p := procs.Load()
		if p <= 1 {
			return false
		}
		if g := globalSpinners.Add(1); g > p {
			globalSpinners.Add(-1)
			return false
		}
	} else {
		globalSpinners.Add(1)
	}
	l.word.Add(spinnerOne)
	acquired := false
	for i := 0; i < budget; i++ {
		w := l.word.Load()
		if w&lockedBit == 0 {
			if l.word.CompareAndSwap(w, (w+negSpinner)|lockedBit) {
				acquired = true
				break
			}
			continue // CAS raced with another field update; reload
		}
		if i%goschedStride == goschedStride-1 {
			runtime.Gosched()
		} else {
			pause()
		}
	}
	if !acquired {
		l.word.Add(negSpinner)
	}
	globalSpinners.Add(-1)
	l.winTries.Add(1)
	if acquired {
		l.winWins.Add(1)
		l.spinHits.Add(1)
	}
	return acquired
}

// park blocks until the latch is acquired. The waiter bit is raised before
// the under-mutex recheck; see the package comment for why that ordering,
// against Unlock's clear-then-read, cannot lose a wakeup.
func (l *Latch) park() {
	// Yield tier: one cooperative Gosched before the condition-variable
	// round trip. On a saturated P the holder cannot release until it runs
	// again — and on GOMAXPROCS=1 yielding is the only thing that lets it —
	// so a recheck after one scheduler rotation often catches the release
	// and skips both the park and the wakeup requeue latency a signalled
	// waiter pays. The win counts as a spin hit (contended acquire, no
	// park) but stays out of the winTries/winWins window: the budget
	// controller's success rate must reflect budgeted spinning only. A
	// latch pinned to a zero budget skips the tier: "park immediately" is
	// the pure condition-variable control, so it must never record a hit.
	if !l.fixed.Load() || l.budget.Load() > 0 {
		runtime.Gosched()
		for {
			w := l.word.Load()
			if w&lockedBit != 0 {
				break
			}
			if l.word.CompareAndSwap(w, w|lockedBit) {
				l.spinHits.Add(1)
				return
			}
		}
	}
	l.parks.Add(1)
	l.word.Add(waiterOne)
	l.mu.Lock()
	for {
		w := l.word.Load()
		if w&lockedBit == 0 {
			// Consume any outstanding wake credit: whether this waiter got
			// here via a signal or by observing the free bit on its own
			// recheck, the credit has done its job and the next unlock
			// with parked waiters must signal again.
			l.wakePending = false
			if l.word.CompareAndSwap(w, (w+negWaiter)|lockedBit) {
				break
			}
			continue
		}
		l.parked++
		l.cond.Wait()
		l.parked--
		// The wakeup has landed: re-arm signalling before re-checking, so
		// that if the acquire below loses to a thief, the thief's unlock
		// signals afresh.
		l.wakePending = false
	}
	l.mu.Unlock()
}

// Unlock releases the latch. With no parked waiters it is a single atomic
// add; otherwise it signals one waiter under the park mutex (the handoff)
// — unless a previous signal is still in flight (wakePending), in which
// case the woken waiter will re-check the now-free lock bit itself. The
// parked count (not the word's waiter count) gates the signal: a waiter
// that has raised its word bit but not yet reached cond.Wait would miss a
// Signal entirely, stranding the wake credit — such a waiter needs no
// signal anyway, since its under-mutex recheck sees the freed bit.
// Spinners need no signal — they observe the cleared lock bit directly.
func (l *Latch) Unlock() {
	w := l.word.Add(negLocked)
	if w&waiterMask != 0 {
		l.mu.Lock()
		if l.parked > 0 && !l.wakePending {
			l.wakePending = true
			l.handoffs.Add(1)
			l.cond.Signal()
		}
		l.mu.Unlock()
	}
}

// NoteHold feeds one sampled hold duration into the hold-time EWMA. The
// caller owns the sampling policy (the lock manager reuses its existing
// 1-in-stride latch-profile stamp, so no clock reads are added to any fast
// path). The load/store pair is deliberately racy: concurrent samples may
// drop one update, which only delays convergence by a sample.
func (l *Latch) NoteHold(ns int64) {
	if ns < 0 {
		return
	}
	old := l.holdEwma.Load()
	if old == 0 {
		l.holdEwma.Store(ns)
		return
	}
	l.holdEwma.Store(old - old/8 + ns/8)
}

// Retune recomputes the spin budget from the current hold EWMA and the
// spin-outcome window (which it consumes), given the P count. No-op in
// fixed mode or when the computed budget equals the current one; otherwise
// the change is published and reported to the OnTune observer.
func (l *Latch) Retune(p int) {
	if l.fixed.Load() {
		return
	}
	old := int(l.budget.Load())
	hold := l.holdEwma.Load()
	tries := int(l.winTries.Swap(0))
	wins := int(l.winWins.Swap(0))
	next := TuneBudget(old, hold, tries, wins, p)
	if next == old {
		return
	}
	l.budget.Store(int32(next))
	if f := l.onTune; f != nil {
		f(old, next, hold, tries, wins)
	}
}

// TuneBudget is the pure budget rule: given the current budget, the
// hold-time EWMA, the last window's spin outcomes and the P count, return
// the next spin budget.
//
//   - procs ≤ 1 → 0: on a single P the holder cannot run while anyone
//     spins, so every retry is a wasted slice (Nikolaev's degenerate case).
//   - holdNs > ParkThresholdNs → 0: holds this long never repay spinning.
//   - otherwise the hold-time rule sets the target at holdNs/SpinUnitNs
//     retries (at least MinBudget), i.e. just enough spinning to cover an
//     expected release; with no hold signal the current budget carries.
//   - the success-rate term then modulates AIMD-style once the window has
//     tuneMinEvidence attempts: under 25% spin success halves the target
//     (contenders are queueing, not racing a short hold), 75% or better
//     grows it by half — bounded by BudgetCap.
//
// The rule is monotone in holdNs on (0, ParkThresholdNs] for a fixed
// window, which the unit tests pin down.
func TuneBudget(cur int, holdNs int64, tries, wins, procs int) int {
	if procs <= 1 {
		return 0
	}
	if holdNs > ParkThresholdNs {
		return 0
	}
	target := cur
	if holdNs > 0 {
		target = int(holdNs / SpinUnitNs)
		if target < MinBudget {
			target = MinBudget
		}
	}
	if tries >= tuneMinEvidence {
		if wins*4 < tries {
			target /= 2
		} else if wins*4 >= tries*3 {
			target += target/2 + 1
		}
	}
	return clampBudget(target)
}
