// Package lockmgr implements a DB2-style multigranularity lock manager: the
// substrate whose memory consumption the paper's algorithm tunes.
//
// Locks are identified by Name (table or row), requested in the modes of
// mode.go, and stored as lock structures allocated from a memblock.Chain —
// the 128 KB block list of section 2.2. Waiters queue FIFO and are granted
// by posting (section 2.3, Figure 3): when locks are released, the manager
// wakes queued requests strictly in arrival order, so a compatible request
// that arrived behind an incompatible one does not jump the queue.
//
// The manager implements the two lock-escalation triggers the paper tunes
// around:
//
//   - per-application quota (MAXLOCKS / lockPercentPerApplication): a new
//     lock that would push the application above its percentage of the lock
//     memory escalates the application's row locks on its most-locked table
//     into a single table lock;
//   - lock memory exhaustion: an allocation the block chain cannot satisfy
//     first attempts synchronous growth through the GrowSync hook (database
//     overflow memory), then escalates, and only then fails.
//
// Escalation converts the application's existing table intent lock (IS/IX)
// to the supremum of its row-lock modes (S, SIX or X), which may itself have
// to wait for incompatible holders — exactly the concurrency collapse of
// Figures 7 and 8.
//
// # Concurrency: the striped lock table
//
// The lock table is striped across a power-of-two array of shards. A Name
// hashes to exactly one shard, which owns that name's lock header, its FIFO
// grant queues, its slice of the waiting set, and a lease pool of lock
// structures batched out of the shared block chain. The per-lock FIFO
// posting discipline is untouched by sharding: a lock's entire queue lives
// in one shard, under one latch.
//
// Latching protocol, innermost last:
//
//  1. shard latches, always in ascending index order. Fast-path operations
//     (Acquire, Release, conversions) take exactly one; the few surviving
//     cross-shard operations (the admission pipeline of last resort,
//     invariant checks) take all of them via runGlobal. Multi-shard readers
//     that need a simultaneous view of a handful of shards (deadlock-cycle
//     re-validation) latch only those shards, still in ascending order, so
//     they cannot deadlock against runGlobal or each other.
//  2. Owner.mu — leaf lock guarding one owner's held index and per-table
//     entries and the granted/converting/mode fields of its requests.
//     Writers hold (home-shard latch + Owner.mu); readers hold either
//     Owner.mu (the cross-shard coverage check) or the relevant shard
//     latches. Owner.mu is never held while acquiring a shard latch.
//  3. Leaves of the leaves: chain.mu (inside pool refills and global
//     allocation), contMu (continuation queue), ownersMu (app registry),
//     App.mu (the app's owner registry), and the Pending mutex. None of
//     these is ever held while taking a latch above it.
//
// Admission runs on a fast path that touches only the home shard: quota
// check against a cached lockPercentPerApplication (refreshed at most once
// per quotaRefreshStride lock-structure requests, so the provider's mutex
// stays off the per-acquire path), then an allocation from the shard's
// lease pool. If either step cannot be satisfied locally the fast path
// backs out — having mutated nothing — and the request restarts in global
// mode, which holds every shard latch and runs the original single-latch
// admission logic verbatim: quota growth (with a fresh quota read), pool
// repatriation (flushing all shard leases back to the chain before
// declaring memory exhausted), synchronous growth, then escalation.
//
// # The concurrent control plane
//
// Control-plane work — deadlock detection, statistics, introspection,
// escalation continuations — deliberately stays off the all-shard latch in
// steady state, so observing and policing the lock table does not
// periodically freeze the fast path it polices:
//
//   - DetectDeadlocks exports wait-for edges one shard latch at a time,
//     finds cycles latch-free, and re-validates each candidate cycle under
//     only the latches of the shards hosting that cycle's waiting requests
//     (see deadlock.go for the no-false-victims argument).
//   - Snapshot-style reads (Stats, ShardStatsSnapshot, LatchWaits, the
//     memory accessors) come from atomic counters and per-shard
//     sequence-stamped summaries; they take no latches at all.
//   - Escalation continuations (free the escalated rows, retry the parked
//     request) are enqueued anywhere and drained with no latches held; each
//     continuation re-latches the shards it touches and re-validates its
//     targets under those latches, so a release, grant, or timeout racing
//     the drain is observed rather than clobbered (see escalate.go).
//
// # Deferred references
//
// Owners, blocking-Acquire request boxes and unpublished lock headers are
// recycled, so every reference to one that outlives its latch is listed
// here. A box or header recycled by FinishOwner goes to the owner's cache
// (ownerCache) and from there to whichever shard the owner's next request
// lands in, so a recycled box or header may serve a different shard than
// the one a stale reference saw it in; every revalidation below proves
// identity against the state of the shard it latches, never the object's
// own fields first, so a cross-shard reuse fails it like a same-shard one:
//
//   - Continuations (freeEscalatedRows, retryParked, abandonParked) pin
//     their owner through its refs teardown count. A continuation's
//     request is in no held index, so no commit recycles its box
//     meanwhile. freeEscalatedRows re-finds each row in the owner's held
//     index by name before touching it.
//   - The deadlock detector's phase-1 snapshot (waitGraph): under
//     the home latch it proves by identity that a request is still in that
//     shard's waiting set, then checks owner and owner id (liveEdge,
//     denyVictimReq). A cached box is in no waiting set.
//   - The release walk's batch: the abort path re-finds each entry in the
//     owner's held index by name (releaseShardPhase1); the frozen path's
//     requests cannot be released by anyone else, and each is recycled
//     only once, by the visit of its own home shard.
//   - A request's header pointer is read only while the request is queued
//     or granted, when the header is in its home shard's table; headers
//     leave a table only empty, and only unpublished headers are recycled
//     (fast ops and optimistic tokens reach published headers alone).
//   - The tail of Pending.complete, and of deferred grant wakeups: the
//     send on the owner's wake channel is the completer's last touch.
//
// # Indexes
//
// One table type, flathash.Table, indexes both sides of a lock, probed with
// the hashName value acquireAsync computes once and the request carries
// from then on. A shard's table (name → header) changes under the shard
// latch and is never cleared: headers leave one by one. An owner's held
// table (name → granted request) changes under Owner.mu, starts on a segment
// inside the Owner, and is cleared wholesale when the commit walk detaches
// the held set. Per-table state on the owner is a short inline array; what
// needs the rows of one table (escalation, CheckInvariants) filters held.
// docs/ALGORITHM.md ("Indexes") has the sizes and the third user.
//
// runGlobal survives for exactly two jobs: the admission pipeline of last
// resort (quota growth, escalation, and synchronous growth need a
// consistent view of every lease pool and the chain) and CheckInvariants
// (whose cross-shard accounting only balances when the table is quiescent).
// Every runGlobal records its all-shard hold time in a max gauge
// (GlobalHoldMax — the fast-path stall ceiling) and bumps a run counter
// (GlobalRuns) that tests use to prove steady-state detection and
// observation never touch the global path.
package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/flathash"
	"repro/internal/latch"
	"repro/internal/memblock"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Errors returned to lock requesters.
var (
	// ErrTimeout means the request waited longer than the lock timeout.
	ErrTimeout = errors.New("lockmgr: lock wait timeout")
	// ErrDeadlock means the request was chosen as a deadlock victim.
	ErrDeadlock = errors.New("lockmgr: deadlock victim")
	// ErrLockMemory means lock memory was exhausted and neither
	// synchronous growth nor escalation could free enough structures.
	ErrLockMemory = errors.New("lockmgr: out of lock memory")
	// ErrQuotaExceeded means the application exceeded
	// lockPercentPerApplication and escalation could not bring it back
	// under the quota.
	ErrQuotaExceeded = errors.New("lockmgr: application lock quota exceeded")
	// ErrCanceled means the request was canceled by its owner.
	ErrCanceled = errors.New("lockmgr: request canceled")
)

// Status is the state of a Pending lock request.
type Status uint8

const (
	// StatusWaiting — queued behind incompatible holders.
	StatusWaiting Status = iota
	// StatusGranted — the lock is held.
	StatusGranted
	// StatusDenied — the request failed; see the error.
	StatusDenied
)

func (s Status) String() string {
	switch s {
	case StatusWaiting:
		return "waiting"
	case StatusGranted:
		return "granted"
	case StatusDenied:
		return "denied"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Pending is the handle for an asynchronous lock request. Done is closed
// when the request leaves the waiting state. The channel is created lazily
// on the first Done call, so callers that poll Status (the common
// immediate-grant case) never pay for a channel allocation; Status and
// complete are mutex-free on that path. Blocking Acquire never calls Done.
type Pending struct {
	// status holds a Status value; it transitions from StatusWaiting to a
	// terminal state exactly once. err is written before the terminal
	// store, so a reader that observes a terminal status also observes
	// err (atomics establish happens-before).
	status  atomic.Int32
	hasDone atomic.Bool // true once done has been created
	err     error

	// wake is the owner's wake channel (nil for AcquireAsync). Once the
	// request waits, armed is set and complete sends exactly one signal.
	wake chan struct{}

	dmu    sync.Mutex // guards done and closed
	done   chan struct{}
	closed bool
	armed  bool // see wake
}

// Done returns a channel closed when the request is granted or denied.
func (p *Pending) Done() <-chan struct{} {
	p.dmu.Lock()
	defer p.dmu.Unlock()
	if p.done == nil {
		p.done = make(chan struct{})
		p.hasDone.Store(true)
		if Status(p.status.Load()) != StatusWaiting && !p.closed {
			close(p.done)
			p.closed = true
		}
	}
	return p.done
}

// Status returns the current state and, for StatusDenied, the reason.
func (p *Pending) Status() (Status, error) {
	st := Status(p.status.Load())
	if st == StatusWaiting {
		return StatusWaiting, nil
	}
	return st, p.err
}

// complete moves p to a terminal state and wakes whoever waits on it.
func (p *Pending) complete(st Status, err error) {
	if p.settle(st, err) {
		p.signal()
	}
}

// settle stores p's terminal state, reporting false if p already had one.
// Calls for one Pending are serialized by its request's home shard latch
// (or happen before the request is ever published), so the waiting-state
// check cannot race with another completer. A release visit settles the
// grants it makes under the latch and leaves signal to the walk's wake
// pass, so Status reads granted before the waiter is woken.
func (p *Pending) settle(st Status, err error) bool {
	if Status(p.status.Load()) != StatusWaiting {
		return false
	}
	p.err = err
	p.status.Store(int32(st))
	return true
}

// signal wakes the waiter of a settled p, exactly once per settle. The
// Done interplay is covered by seq-cst atomics plus dmu (whichever of
// signal/Done runs second observes the other's store and performs the
// close, with closed deduplicating). An armed Pending's wake send is the
// last touch: the woken Acquire may recycle box and owner. Until then the
// box cannot be recycled — an armed Acquire is parked on the send, and an
// unarmed (AcquireAsync) box is never recycled.
func (p *Pending) signal() {
	if p.armed {
		p.wake <- struct{}{} // never blocks: one signal per armed wait, buffer 1
		return
	}
	if p.hasDone.Load() {
		p.dmu.Lock()
		if p.done != nil && !p.closed {
			close(p.done)
			p.closed = true
		}
		p.dmu.Unlock()
	}
}

// reset returns a Pending to its zero (waiting) state for box recycling.
// The caller must own the Pending exclusively: ReleaseAll only resets boxes
// whose blocking Acquire returned before the commit (happens-before via the
// owner's single-goroutine contract, and for a wait via the wake signal
// that was the completer's last touch). Assigning the struct wholesale
// would copy dmu, so fields are cleared individually.
func (p *Pending) reset() {
	// The fields stay atomics for the Pending's concurrent phases: skip the
	// stores whose value is already right (an untouched box resets free).
	if p.status.Load() != int32(StatusWaiting) {
		p.status.Store(int32(StatusWaiting))
	}
	p.err = nil
	p.wake, p.armed = nil, false
	if p.hasDone.Load() {
		p.hasDone.Store(false)
		p.done = nil
		p.closed = false
	}
}

// QuotaProvider supplies the live lockPercentPerApplication value. The
// manager consults it on every allocation of new lock structures; the
// provider decides whether the refresh period has elapsed (core.QuotaTracker
// implements this policy). A nil provider means "no quota" (100%).
//
// Providers must be safe for concurrent use and idempotent for repeated
// calls with the same structRequests value: the fast admission path and the
// global fallback may both consult the quota for one request.
type QuotaProvider interface {
	// QuotaPercent returns the percentage of total lock memory the given
	// application may hold, given the cumulative number of lock-structure
	// requests and the structures currently in use. Most providers ignore
	// appID; the engine's escalation-policy extension biases individual
	// applications that prefer escalation over memory growth.
	QuotaPercent(appID int, structRequests int64, usedStructs int) float64
}

// EscalationPreferrer is an optional extension of QuotaProvider: providers
// implementing it can mark individual applications as preferring lock
// escalation over lock-memory growth (the paper's section 6.1 application
// policies). For such applications the manager escalates at the quota
// rather than growing the lock memory to accommodate them.
type EscalationPreferrer interface {
	PrefersEscalation(appID int) bool
}

func prefersEscalation(q QuotaProvider, appID int) bool {
	p, ok := q.(EscalationPreferrer)
	return ok && p.PrefersEscalation(appID)
}

// EventSink receives notifications of noteworthy lock-manager events for
// diagnostics (the engine forwards them to its trace ring). Methods are
// invoked with one or more shard latches held: implementations must be fast
// and must not call back into the Manager.
type EventSink interface {
	OnEscalation(appID int, table uint32, to Mode)
	OnDeadlockVictim(appID int, ownerID uint64)
	OnTimeout(appID int)
	OnSyncGrowth(pages int)
	OnDenial(appID int, reason error)
}

// Config configures a Manager.
type Config struct {
	// InitialPages is the starting LOCKLIST size in 4 KB pages.
	InitialPages int
	// Clock drives wait deadlines; nil means clock.Real.
	Clock clock.Clock
	// LockTimeout denies waits older than this at each SweepTimeouts
	// call. Zero disables timeouts.
	LockTimeout time.Duration
	// GrowSync, if non-nil, is called (with the shard latches held) when
	// an allocation fails; it should grant up to needPages of database
	// overflow memory and return the pages granted (0 = none).
	GrowSync func(needPages int) int
	// Quota supplies lockPercentPerApplication; nil disables the quota.
	Quota QuotaProvider
	// Events, if non-nil, receives diagnostic event notifications.
	Events EventSink
	// Shards is the number of lock-table shards. Zero selects a default
	// derived from GOMAXPROCS; other values are rounded up to a power of
	// two and clamped to [1, 1024].
	Shards int
	// LeaseChunk is the batch size, in lock structures, of per-shard
	// leases from the block chain. Zero selects
	// memblock.DefaultLeaseChunk.
	LeaseChunk int
	// ObsSampleStride controls the wall-clock sampling of admission
	// latency and lock hold time: one in ObsSampleStride acquisitions is
	// timed (rounded up to a power of two). Zero selects the default
	// (64); negative disables wall-clock sampling entirely. Lock-wait
	// durations are always recorded — they use the manager's Clock, not
	// the wall clock, and cost one atomic add at grant/deny.
	ObsSampleStride int
	// ProfileDisabled switches the contention profiler (hot-lock sketch,
	// flight recorder, latch profile — see profiler.go) off entirely.
	// The default (false) keeps it on: its hot-path cost is one or two
	// uncontended atomic adds per contention event, benchmarked under 3%
	// (see bench-obs-profiler).
	ProfileDisabled bool
	// LatchSpin overrides the shard-latch spin policy. 0 (the default)
	// enables the adaptive per-shard controller: each latch's spin
	// budget is retuned from its sampled hold times and spin outcomes,
	// collapsing to 0 on a single P or when spinners outnumber P's.
	// A positive value pins every shard latch to that fixed spin budget
	// (clamped to latch.BudgetCap) — the experimental control for A/B
	// runs, which also bypasses the adaptive guards so the budget is
	// spent exactly as configured. A negative value pins the budget to 0
	// (park immediately, the stock sync.Mutex-like behaviour).
	LatchSpin int
	// Throttle configures the admission throttle's queue order
	// (throttle.go). 0 (the default) enables the adaptive controller:
	// per-shard ceilings engage only when RetuneThrottle — driven on the
	// STMM cadence — observes a queue-depth high-water past the
	// saturation knee, so quiet tables never pay anything. A positive
	// value pins every shard's ceiling to that fixed waiter count from
	// the start (the experimental control for A/B runs). A negative value
	// disables throttling entirely: no ceiling ever engages and every
	// waiter queues in plain FIFO order.
	Throttle int
}

// App is a connected application, the unit of quota accounting. It also
// keeps the registry of its live owners, so registering and deregistering a
// transaction takes a lock no other application's sessions share.
type App struct {
	id      int
	structs atomic.Int64 // lock structures held

	// mu guards owners, an intrusive doubly-linked list (head;
	// regPrev/regNext in Owner) of the app's live owners: NewOwner links,
	// the release walk unlinks, and CheckInvariants walks it.
	mu     sync.Mutex
	owners *Owner
}

// ID returns the application's identifier.
func (a *App) ID() int { return a.id }

// maxShardWords is the shard bitmap size in uint64 words: one bit per
// shard at the 1024-shard configuration ceiling. releaseBatch keeps a
// full-width bitmap inline (it is pooled, so the 128 bytes are paid once);
// Owner keeps only the first word inline and spills the rest lazily, since
// per-transaction memory is the commit path's main allocation.
const maxShardWords = 1024 / 64

// Owner is a lock requester — one transaction. All of an owner's locks are
// released together by ReleaseAll at commit or abort (strict two-phase
// locking). An owner's lock requests must be issued from a single goroutine
// (the transaction), but distinct owners operate fully in parallel.
type Owner struct {
	id  uint64
	app *App

	// mu guards held, tables, released, touched, and the owner-visible
	// request fields (granted/converting/convert/mode) of this owner's
	// requests. It is a leaf lock: never held while acquiring a shard
	// latch.
	mu       sync.Mutex
	held     flathash.Table[*request] // granted requests, by hashName(name)
	heldSeg  [heldInlineSlots]flathash.Slot[*request]
	released bool // set by ReleaseAll; further requests are rejected

	// tables holds one entry per table the owner has locked, in first-touch
	// order: the table lock itself and the row-lock totals escalation ranks
	// victims by. A transaction touches a handful of tables, so a linear
	// scan of the inline array (tables starts as tables0[:0] and spills to
	// the heap only past it) beats any index.
	tables  []ownerTable
	tables0 [ownerTablesInline]ownerTable

	// touched is the owner's touched-shard set: bit i is set (under mu, at
	// admission time) before any of this owner's requests can exist in
	// shard i, and bits are never cleared — owners are discarded at
	// ReleaseAll. The commit fast path visits only touched shards instead
	// of sweeping the whole shard array, so release cost is O(locks held),
	// not O(shards). The set is conservative: a bit may be set for a shard
	// the owner never actually locked (a backed-out fast path, a covered
	// grant), which costs at most one latch visit at commit.
	//
	// Shards 0–63 live in the inline word; tables configured with more
	// shards get the spill slice at NewOwner time (sized once, never
	// grown), keeping the common-case Owner small.
	touched0  uint64
	touchedHi []uint64 // nil unless the table has > 64 shards

	// inWait counts this owner's requests currently in a wait queue
	// (waiters, converters, parked requests). Incremented when a request
	// first enters a queue (beginWait / escalation park), decremented by
	// endWait only once the request is either installed in held (grant) or
	// terminally denied — so ReleaseAll reading 0 under mu proves the held
	// snapshot is complete and no cancel sweep is needed.
	inWait atomic.Int32

	// obsTick is the owner-local admission-sampling counter: acquireAsync
	// samples one in obsSampler.Stride() of this owner's acquisitions. A
	// plain field, touched only by the owner's requesting goroutine (the
	// documented single-goroutine contract) — striping the sampler by
	// owner keeps the global sampler's shared cacheline off the per-grant
	// path entirely.
	obsTick uint64

	// wake (buffer 1, kept across pooling) is what a blocking Acquire parks
	// on; an owner waits on at most one blocking request at a time.
	wake chan struct{}

	// refs is the owner's teardown refcount: one bias from NewOwner,
	// dropped by the release walk as its last touch of the owner, plus one
	// per queued continuation naming the owner. Whoever drops it to zero
	// resets and pools the owner if recycleOnZero (FinishOwner's promise,
	// set by the walk) is set.
	refs          atomic.Int32
	recycleOnZero bool

	// Commit-walk scratch, reused across this owner's transactions so the
	// steady-state release walk touches no sync.Pool at all: the collect
	// snapshot and the deferred posting/wake drain. Touched only by the
	// walk goroutine.
	walkBatch releaseBatch
	drain     releaseDrain

	// Statement-batch scratch (batch.go), reused across this owner's
	// AcquireRows calls so a batch allocates nothing in steady state.
	// Touched only by the owner's goroutine.
	rows rowBatch

	// cache holds the request boxes and lock headers FinishOwner's walk
	// recycled, kept across owner pooling for the owner's next
	// transactions (see ownerCache).
	cache ownerCache

	// Registry list links, guarded by app.mu.
	regPrev, regNext *Owner
}

// Owner-cache capacities: how many recycled request boxes and lock
// headers an owner keeps. A mean TPC-C transaction installs about 25
// requests, so its whole set cycles through its owner; what a larger one
// frees past the cap overflows to the manager's box pool and the package's
// header pool. Those are per-P, not per-shard: the walk fills the cache
// from the shards it visits first, so per-shard overflow lists would fill
// in its last shards and drain in whichever shards the next large
// transaction happens to lock.
const (
	ownerBoxCap    = 64
	ownerHeaderCap = 64
)

// headerPool takes the lock headers an owner cache overflows with, for
// any manager's next header creation that finds the owner cache and the
// shard freelist empty. Entries are evicted, emptied, unpublished headers.
var headerPool sync.Pool

// ownerCache is an owner's private stock of recycled request boxes and
// unpublished lock headers. FinishOwner's release walk fills it and the
// owner's own admissions (acquireAsync, the fast path, a batch visit,
// header creation) draw from it first, so a steady commit workload reuses
// the same memory on the same core instead of passing it between cores
// through the shard freelists. Everything in it is zeroed (boxes) or empty
// and out of every shard table (headers). Only the owner's goroutine
// touches it, and always under a shard latch or o.mu, so CheckInvariants
// (every latch plus o.mu) reads it race-free.
type ownerCache struct {
	boxes []*requestAndPending
	hdrs  []*lockHeader
}

// popBox takes a recycled box, or nil.
func (c *ownerCache) popBox() *requestAndPending {
	n := len(c.boxes)
	if n == 0 {
		return nil
	}
	b := c.boxes[n-1]
	c.boxes[n-1] = nil
	c.boxes = c.boxes[:n-1]
	return b
}

// pushBox zeroes b and keeps it, reporting false (keeping nothing) when
// the cache is full. The caller guarantees no external references to b or
// its Pending remain (pushBox on the shard has the same contract).
func (c *ownerCache) pushBox(b *requestAndPending) bool {
	if len(c.boxes) >= ownerBoxCap {
		return false
	}
	b.req = request{}
	b.pend.reset()
	c.boxes = append(c.boxes, b)
	return true
}

// popHeader takes a recycled header, or nil (always nil on a nil cache).
func (c *ownerCache) popHeader() *lockHeader {
	if c == nil || len(c.hdrs) == 0 {
		return nil
	}
	n := len(c.hdrs)
	h := c.hdrs[n-1]
	c.hdrs[n-1] = nil
	c.hdrs = c.hdrs[:n-1]
	return h
}

// pushHeader keeps an evicted header, reporting false when the cache is
// full.
func (c *ownerCache) pushHeader(h *lockHeader) bool {
	if len(c.hdrs) >= ownerHeaderCap {
		return false
	}
	c.hdrs = append(c.hdrs, h)
	return true
}

// markTouched records that the owner may have a request homed in shard si.
// Caller holds o.mu.
func (o *Owner) markTouched(si int) {
	if si < 64 {
		o.touched0 |= 1 << uint(si)
		return
	}
	o.touchedHi[(si>>6)-1] |= 1 << (uint(si) & 63)
}

// isTouched reports whether shard si's touched bit is set. Used by
// CheckInvariants (all latches held) to verify the bitmap is conservative:
// every shard hosting one of the owner's requests must be marked.
func (o *Owner) isTouched(si int) bool {
	if si < 64 {
		return o.touched0&(1<<uint(si)) != 0
	}
	return o.touchedHi[(si>>6)-1]&(1<<(uint(si)&63)) != 0
}

// tableFor returns the owner's entry for table tid, or nil. The pointer is
// good until the next tableOrCreate. Caller holds o.mu.
func (o *Owner) tableFor(tid uint32) *ownerTable {
	for i := range o.tables {
		if o.tables[i].tid == tid {
			return &o.tables[i]
		}
	}
	return nil
}

// tableOrCreate returns the entry for table tid, appending one if the owner
// has not touched the table yet. Caller holds o.mu.
func (o *Owner) tableOrCreate(tid uint32) *ownerTable {
	if ot := o.tableFor(tid); ot != nil {
		return ot
	}
	o.tables = append(o.tables, ownerTable{tid: tid})
	return &o.tables[len(o.tables)-1]
}

// heldGet returns the owner's granted request for name, whose hashName is
// hash. Caller holds o.mu.
func (o *Owner) heldGet(hash uint64, name Name) (*request, bool) {
	return o.held.Find(hash, func(r *request) bool { return r.name == name })
}

// clearIndexes empties held and tables. The held array is kept for the
// owner's next transaction unless one large transaction (a scan) grew it
// past heldKeepSlots: every later commit would pay to clear it. Caller
// holds o.mu or owns the owner exclusively.
func (o *Owner) clearIndexes() {
	if o.held.Slots() > heldKeepSlots {
		o.held.Reset(o.heldSeg[:])
	} else {
		o.held.Clear()
	}
	o.tables0 = [ownerTablesInline]ownerTable{} // drop the tableReq pointers
	o.tables = o.tables0[:0]
}

// touchedShards appends the owner's touched shard indexes, ascending.
// Caller holds o.mu (or owns the released owner).
func (o *Owner) touchedShards(buf []int) []int {
	word := o.touched0
	for word != 0 {
		b := bits.TrailingZeros64(word)
		buf = append(buf, b)
		word &^= 1 << uint(b)
	}
	for w, hi := range o.touchedHi {
		base := (w + 1) * 64
		for hi != 0 {
			b := bits.TrailingZeros64(hi)
			buf = append(buf, base+b)
			hi &^= 1 << uint(b)
		}
	}
	return buf
}

// heldInlineSlots is the size of the held index's inline first segment: an
// owner holding up to three quarters of it (12 locks) allocates nothing for
// the index, pooled or not. heldKeepSlots bounds the held array and walk
// scratch a pooled owner keeps between transactions; ownerTablesInline is
// the number of tables an owner tracks before its per-table array moves to
// the heap.
const (
	heldInlineSlots   = 16
	heldKeepSlots     = 256
	ownerTablesInline = 8 // TPC-C's new-order touches eight tables
)

// ID returns the owner (transaction) identifier.
func (o *Owner) ID() uint64 { return o.id }

// App returns the owning application.
func (o *Owner) App() *App { return o.app }

// ownerTable is one owner's footprint on one table: its table lock, for
// coverage checks, and how many row locks and row-lock structures it holds
// there, for escalation victim selection. The rows themselves are in held.
// Entries are kept (empty) after their last lock is released.
type ownerTable struct {
	tid        uint32
	nRows      int32
	rowStructs int
	tableReq   *request
}

// request is one (owner, name) lock request: granted or waiting.
type request struct {
	owner  *Owner
	header *lockHeader
	name   Name
	hash   uint64 // hashName(name): shard routing and every index probe reuse it

	weight int
	handle memblock.Handle

	mode    Mode // granted mode, or requested mode while waiting
	convert Mode // conversion target while a granted request waits to convert

	granted    bool
	converting bool
	parked     bool // created but not yet started (escalation in progress)
	inWaitList bool // linked into the home shard's waiting set (wprev/wnext)

	// waitPass stamps the SweepTimeouts pass (numbered from 1) at which
	// the request joined its header's waiter queue; the throttle's
	// fairness valve promotes the oldest waiter past the ceiling and
	// stamps it 0 (throttle.go).
	waitPass uint64

	pending  *Pending
	deadline time.Time
	onGrant  contFn // self-latching continuation, drained with no latches held
	onDeny   contFn // likewise, called with the denial's error

	// Shard waiting-set links, under the home shard latch.
	wprev, wnext *request

	// Observability stamps. waitStart is set (manager clock) when the
	// request enters a wait queue and cleared when the wait ends at
	// grant/deny — its difference feeds the lock-wait histogram.
	// grantedAt is a wall-clock stamp taken only for sampled requests
	// (obsSampled); it feeds the hold-time histogram at release.
	waitStart  time.Time
	grantedAt  time.Time
	obsSampled bool

	// fastLeased marks a grant admitted by the latch-free fast path: its
	// structures came from the home shard's fast credit (fastpath.go)
	// rather than a pool handle, so frees recredit fastFree instead of
	// freeing a handle. Guarded like granted (writers hold the home shard
	// latch or the header's lk bit, plus Owner.mu).
	fastLeased bool

	// Recycling state. box points back at the request's co-allocation so
	// the release walk can recycle it (into the owner's cache or the home
	// shard's). recyclable is set
	// only for boxes born in the blocking Acquire path, whose Pending
	// provably has no external references once the transaction commits
	// (Acquire returned before the owner's goroutine could call
	// ReleaseAll).
	recyclable bool
	box        *requestAndPending
}

// requestAndPending co-allocates a request with its Pending so the
// AcquireAsync fast path costs a single heap object. The Pending outlives
// the request's table membership (the caller holds it), which keeps the
// whole box alive; requests are small, so this trades no meaningful memory
// for one less malloc per acquire.
type requestAndPending struct {
	req  request
	pend Pending
}

// effectiveMode is the mode the request currently holds (for granted
// requests) or requests.
func (r *request) effectiveMode() Mode {
	if r.converting {
		return r.convert
	}
	return r.mode
}

// lockHeader is the lock table entry for one Name. The granted group is a
// single inline slot (g0) plus a lazily allocated overflow map: most locks
// have exactly one holder, and the inline slot spares that case a map
// assign+delete (and the iteration seeding of range-over-map) per
// acquire/release cycle.
type lockHeader struct {
	name       Name
	g0         *request            // single-holder fast slot
	gmap       map[*Owner]*request // overflow holders; nil until needed
	groupMode  Mode
	converters []*request // FIFO, priority over waiters
	waiters    []*request // FIFO up to the throttle ceiling, newest-first past it

	// word is the packed latch-free grant word (see fastpath.go); it is
	// meaningful only once published is set (latch-guarded) and the
	// header is installed in its shard's publication table (fastSlots),
	// where fastLookup finds it. Published headers are never recycled onto
	// the header freelist and never evicted from the table — an emptied
	// one stays resident with an admitting word (deferred reclamation),
	// which is what keeps a hot key latch-free across transactions. At
	// most fastPublishMax (256) headers per shard are ever published.
	word      atomic.Uint64
	published bool

	// epoch is the 64-bit extension of the word's 11-bit settle seq: it is
	// bumped by every latched settle and by every fast-path admission of a
	// reader-invalidating mode (IX), and the word's seq field always equals
	// its low 11 bits (CheckInvariants enforces the identity). Optimistic
	// zero-CAS readers stamp their tokens with it and validate it unchanged
	// at release, so a seq wraparound (>2048 transitions inside one read
	// window) can never ABA a reader into a false validation — the 64-bit
	// epoch still differs even when the packed word is bit-identical. See
	// optimistic.go.
	epoch atomic.Uint64
}

// addGranted records r as a holder. Caller guarantees r's owner is not
// already in the granted group (re-requests go through conversion).
func (h *lockHeader) addGranted(r *request) {
	if h.g0 == nil {
		h.g0 = r
		return
	}
	if h.gmap == nil {
		h.gmap = make(map[*Owner]*request, 4)
	}
	h.gmap[r.owner] = r
}

// removeGranted drops o's granted request, if any.
func (h *lockHeader) removeGranted(o *Owner) {
	if h.g0 != nil && h.g0.owner == o {
		h.g0 = nil
		return
	}
	delete(h.gmap, o)
}

// getGranted returns o's granted request, or nil.
func (h *lockHeader) getGranted(o *Owner) *request {
	if h.g0 != nil && h.g0.owner == o {
		return h.g0
	}
	return h.gmap[o]
}

// grantedLen returns the number of holders.
func (h *lockHeader) grantedLen() int {
	n := len(h.gmap)
	if h.g0 != nil {
		n++
	}
	return n
}

// eachGranted calls f for every holder until f returns false.
func (h *lockHeader) eachGranted(f func(*request) bool) {
	if h.g0 != nil && !f(h.g0) {
		return
	}
	for _, g := range h.gmap {
		if !f(g) {
			return
		}
	}
}

func (h *lockHeader) recomputeGroupMode() {
	if len(h.gmap) == 0 {
		// Fast path: zero or one holder.
		if h.g0 != nil {
			h.groupMode = h.g0.mode
		} else {
			h.groupMode = ModeNone
		}
		return
	}
	mode := ModeNone
	if h.g0 != nil {
		mode = h.g0.mode
	}
	for _, g := range h.gmap {
		mode = Supremum(mode, g.mode)
	}
	h.groupMode = mode
}

// removeAt removes q[i] by copying the tail down, so a hot queue keeps its
// array, and clears the vacated slot.
func removeAt(q []*request, i int) []*request {
	copy(q[i:], q[i+1:])
	q[len(q)-1] = nil
	return q[:len(q)-1]
}

// removeReq removes r from q, if present, like removeAt.
func removeReq(q []*request, r *request) []*request {
	for i, x := range q {
		if x == r {
			return removeAt(q, i)
		}
	}
	return q
}

func (h *lockHeader) empty() bool {
	return h.g0 == nil && len(h.gmap) == 0 && len(h.converters) == 0 &&
		len(h.waiters) == 0
}

// Stats is a snapshot of the manager's event counters.
type Stats struct {
	Grants               int64
	Waits                int64
	Timeouts             int64
	Deadlocks            int64
	Escalations          int64
	ExclusiveEscalations int64
	MemoryDenials        int64
	QuotaDenials         int64
	SyncGrowths          int64
	SyncGrowthPages      int64
}

// statCounters is the live, lock-free form of Stats. Grants, counted on
// every admission, are per application instead (Manager.grants).
type statCounters struct {
	waits                atomic.Int64
	timeouts             atomic.Int64
	deadlocks            atomic.Int64
	escalations          atomic.Int64
	exclusiveEscalations atomic.Int64
	memoryDenials        atomic.Int64
	quotaDenials         atomic.Int64
	syncGrowths          atomic.Int64
	syncGrowthPages      atomic.Int64
}

// headerFreelistCap bounds each shard's recycled lock-header stack.
const headerFreelistCap = 64

// boxFreelistCap bounds each shard's recycled request-box stack.
const boxFreelistCap = 64

// shard is one stripe of the lock table.
type shard struct {
	// mu is the shard latch: an adaptive spin-then-park latch
	// (internal/latch) whose per-shard spin budget is retuned from the
	// sampled hold times unlockShard feeds it. Acquire through lockShard
	// (it runs the profiler bookkeeping); raw s.mu.Unlock() remains
	// correct everywhere a paired unlockShard is not wanted (runGlobal's
	// descending sweep, deadlock validation).
	mu    latch.Latch
	idx   int                         // position in Manager.shards; set once at New
	table flathash.Table[*lockHeader] // by hashName(name)

	// The waiting set: every queued waiter, converter and parked request
	// homed here, oldest first; nWaiting is its length.
	waitHead, waitTail *request

	// Latch-profile sampling state, guarded by mu: latchTick advances on
	// every latched acquisition (lockShard); when it hits the sampling
	// stride the acquisition stamps holdT0 and the matching unlockShard
	// records the hold time. Raw s.mu.Unlock() sites (runGlobal's
	// descending sweep) simply leave a stale stamp, which the next
	// lockShard clears before anything reads it.
	latchTick uint64
	holdT0    time.Time
	pool      *memblock.Pool // lease cache; guarded by mu
	hfree     []*lockHeader  // recycled headers (with empty granted maps)

	// rfree is the shard's cache of recycled request+Pending boxes,
	// guarded by mu like hfree; boxes are pushed (zeroed) by a release
	// walk whose owner's cache is full or not kept (ReleaseAll), and popped
	// by the acquire path when the owner's cache is empty. rfreeN mirrors
	// len(rfree) so the acquire path can pre-allocate outside the latch
	// when the cache is empty instead of allocating inside the critical
	// section.
	rfree  []*requestAndPending
	rfreeN atomic.Int32

	// quotaNext is the pool request count at which this shard's next
	// fast-path quota check refreshes the manager's cached quota percent
	// (overQuotaFast); zero forces a refresh. Written under mu, read
	// latch-free by quotaFastCached.
	quotaNext atomic.Int64

	// Latch-free admission state (fastpath.go). fastSlots is the
	// publication table: insert-only and open-addressed (home slot = top
	// 9 hash bits, linear probing), read through fastLookup and written
	// only by the latched settle; fastFree the struct credit fast grants
	// CAS against; fastOps the gate in-flight counter runGlobal drains;
	// fastPublishedN the number of published headers, which publication
	// keeps at or below fastPublishMax and which doubles as a latch-free
	// hint that the shard has any at all (a zero short-circuits the
	// Release probe and credit refills). fastLease and fastLeaseTotal —
	// guarded by mu — hold the standing pool lease backing the credit:
	// fastLeaseTotal - fastFree is exactly the weight of in-flight
	// fast-leased grants homed here.
	fastSlots      [fastSlotsPerShard]atomic.Pointer[lockHeader]
	fastFree       atomic.Int64
	fastOps        atomic.Int64
	fastPublishedN atomic.Int32
	fastLease      memblock.Handle
	fastLeaseTotal int

	// seq stamps the shard's published summary: it is bumped (under mu)
	// whenever lock-table membership or wait-queue membership changes, so
	// latch-free observers can tell whether two reads straddled a
	// mutation. nLocks and nWaiting mirror the table and waiting-list sizes
	// for those same observers.
	seq      atomic.Uint64
	nLocks   atomic.Int64
	nWaiting atomic.Int64

	// Admission-throttle state (throttle.go). throtCeil is the shard's
	// live concurrency ceiling: 0 means disengaged (enqueueWaiter pays
	// exactly one relaxed atomic load and appends), > 0 keeps any one
	// header's first that-many waiters in arrival order and queues the
	// rest newest-first behind them. throtDepthHW is the queue-depth
	// high-water mark since the last retune window (updated by
	// enqueueWaiter with a CAS-max, swapped to 0 by RetuneThrottle). The
	// remaining fields are the controller's between-window state,
	// touched only by RetuneThrottle's single caller (the STMM cadence):
	// grants seen at the last window edge, the previous window's
	// throughput delta, and how many consecutive quiet windows have
	// passed (disengage hysteresis).
	throtCeil    atomic.Int32
	throtDepthHW atomic.Int32
	throtGrants  int64
	throtDelta   int64
	throtP99     int64
	throtDir     int
	throtQuiet   int
}

// addWaiting registers a queued request in the shard's waiting set and
// republishes the latch-free summary. Caller holds the shard latch.
func (s *shard) addWaiting(r *request) {
	r.wprev, r.wnext, r.inWaitList = s.waitTail, nil, true
	if s.waitTail != nil {
		s.waitTail.wnext = r
	} else {
		s.waitHead = r
	}
	s.waitTail = r
	s.nWaiting.Add(1)
	s.seq.Add(1)
}

// delWaiting removes a request from the waiting set (no-op if absent) and
// republishes the latch-free summary. Caller holds the shard latch.
func (s *shard) delWaiting(r *request) {
	if !r.inWaitList {
		return
	}
	if r.wprev != nil {
		r.wprev.wnext = r.wnext
	} else {
		s.waitHead = r.wnext
	}
	if r.wnext != nil {
		r.wnext.wprev = r.wprev
	} else {
		s.waitTail = r.wprev
	}
	r.wprev, r.wnext, r.inWaitList = nil, nil, false
	s.nWaiting.Add(-1)
	s.seq.Add(1)
}

// holdsWaiter reports, by identity alone, whether r is in the waiting set:
// a pointer kept from an earlier latch section may name a recycled box.
// Caller holds the shard latch.
func (s *shard) holdsWaiter(r *request) bool {
	for w := s.waitHead; w != nil; w = w.wnext {
		if w == r {
			return true
		}
	}
	return false
}

// popBox takes a recycled request box from the shard cache, or nil. Caller
// holds the shard latch. The box was zeroed when it was pushed.
func (s *shard) popBox() *requestAndPending {
	n := len(s.rfree)
	if n == 0 {
		return nil
	}
	b := s.rfree[n-1]
	s.rfree[n-1] = nil
	s.rfree = s.rfree[:n-1]
	s.rfreeN.Store(int32(len(s.rfree)))
	return b
}

// newBox takes a zeroed box from the box pool, or allocates one.
func (m *Manager) newBox() *requestAndPending {
	if b, _ := m.fastBoxPool.Get().(*requestAndPending); b != nil {
		return b
	}
	return &requestAndPending{}
}

// pushBox zeroes a request box and returns it to the shard cache (bounded;
// overflow is left to the garbage collector). Caller holds the shard latch
// and guarantees no external references to the box or its Pending remain.
func (s *shard) pushBox(b *requestAndPending) {
	if len(s.rfree) >= boxFreelistCap {
		return
	}
	b.req = request{}
	b.pend.reset()
	s.rfree = append(s.rfree, b)
	s.rfreeN.Store(int32(len(s.rfree)))
}

// Manager is the lock manager. All public methods are safe for concurrent
// use by distinct owners; a single owner's requests must come from one
// goroutine.
type Manager struct {
	chain *memblock.Chain
	clk   clock.Clock
	cfg   Config

	shards    []shard
	shardMask uint64

	// ownerPool recycles Owner structs handed back through FinishOwner.
	// Per-manager (not package-global) so a pooled owner's touchedHi spill
	// is always sized for this manager's shard count.
	ownerPool sync.Pool

	ownersMu sync.Mutex // registry of apps; each App registers its own owners
	apps     map[int]*App
	nextApp  int
	numApps  atomic.Int64
	// nextOwner numbers owners. Registration itself is on the owner's App
	// (App.mu), so NewOwner and the release walk share no lock across
	// applications. Every NewOwner writes nextOwner, so it has a cache
	// line of its own, away from contN, which every release reads.
	_         [64]byte
	nextOwner atomic.Uint64
	_         [56]byte

	// Deferred continuations (escalation steps and parked-request
	// retries). Each latches the shards it touches itself, so the
	// queue is enqueued anywhere and drained by flushConts with no latches
	// held. conts[contHead:] are queued; an emptied queue rewinds to [:0].
	contMu   sync.Mutex
	conts    []cont
	contHead int
	contN    atomic.Int64

	// Control-plane observability. globalRuns counts runGlobal entries —
	// all-shard latch acquisitions — and globalHold records the maximum
	// wall-clock time any single one held every latch: together they are
	// the evidence that steady-state detection and observation stay off
	// the global path, and the ceiling on the stall they cause when they
	// do not.
	globalRuns atomic.Int64
	globalHold metrics.MaxGauge

	// Cached lockPercentPerApplication for the fast admission path. The
	// cache holds Float64bits of the last quota percent read (quotaPct);
	// each shard refreshes it once per quotaRefreshStride requests its own
	// pool serves (shard.quotaNext), so the manager as a whole refreshes
	// about once per quotaRefreshStride requests — the cadence of the
	// paper's QuotaTracker refresh period — without a shared request clock
	// on the per-acquire path. Capacity changes force a refresh by zeroing
	// every shard's quotaNext. Staleness only affects the fast path: the
	// global admission pipeline always reads the provider fresh.
	quotaPct atomic.Uint64

	// fastGate is the Dekker-style gate pairing the latch-free fast path
	// with runGlobal: fast ops bump their shard's fastOps counter before
	// reading the gate and back out if it is raised; runGlobal raises it,
	// takes every latch, then waits for the counters to drain — restoring
	// the "all latches held ⇒ world stopped" contract escalation and
	// CheckInvariants rely on. fastHits/fastFallbacks count grants
	// admitted without the latch vs. acquisitions that took the latched
	// path (the two partition all acquisitions). These, optHits,
	// optFailures and grants are striped by the requester's application
	// (metrics.ShardCounters.Writer), so a session counts only in cells
	// it alone writes, and an application's counts outlive it.
	fastGate      atomic.Int64
	fastHits      *metrics.ShardCounters
	fastFallbacks *metrics.ShardCounters

	// optHits counts zero-CAS optimistic read tokens issued; optFailures
	// counts tokens that failed validation at release/commit (see
	// optimistic.go). Together with fastHits/fastFallbacks these partition
	// the read traffic: optHits + fastHits + fastFallbacks covers every
	// admission attempt, and optFailures / optHits is the invalidation
	// rate the workbench reports.
	optHits     *metrics.ShardCounters
	optFailures *metrics.ShardCounters

	// fastBoxPool recycles request+Pending boxes for admissions that find
	// the owner's cache empty: the latch-free grant path (which cannot pop
	// the shard's latched rfree cache) and allocations made before taking
	// a latch. Boxes enter zeroed (same contract as pushBox: recyclable, no
	// external references) from a release walk whose owner cache is full,
	// or whose shard cache is full when the owner's is not kept.
	fastBoxPool sync.Pool

	// latchWaits counts contended shard-latch acquisitions; latchAcqs
	// counts every acquisition, contended or not — the direct evidence
	// that the commit fast path visits O(shards touched) rather than
	// 3×shards per transaction.
	latchWaits *metrics.ShardCounters
	latchAcqs  *metrics.ShardCounters

	// grants counts granted requests (Stats.Grants is the sum).
	grants *metrics.ShardCounters

	// Release-walk evidence. relBatches counts release batches applied per
	// shard (one per owner-visit); wakesCoalesced counts FIFO grant wakeups
	// whose signal was deferred out of the latched release section and
	// fired in the post-walk pass.
	relBatches     *metrics.ShardCounters
	wakesCoalesced *metrics.ShardCounters

	// Admission-throttle evidence (throttle.go). throtCulled counts
	// waiters queued behind the ceiling (inserted newest-first). throtDL
	// receives one decision record per ceiling adjustment (kind
	// "throttle-tune"); sweepPass numbers SweepTimeouts passes for the
	// fairness valve.
	throtCulled *metrics.ShardCounters
	throtDL     atomic.Pointer[obs.DecisionLog]
	sweepPass   atomic.Uint64

	// Latency histograms (lock-free; see internal/obs). waitHist records
	// every wait's duration on the manager's clock — deterministic under
	// the simulated clock — striped by home-shard index; releaseHist
	// records ReleaseAll durations the same way (striped by owner id),
	// for the owners whose id is a multiple of relSampler's stride, so the
	// commit fast path does not pay two clock reads per transaction and
	// shares no sampling counter (owner ids are assigned in order, so sim
	// runs stay byte-reproducible). holdHist
	// and admitHist are wall-clock and recorded only for requests
	// admitted by obsSampler, keeping the hot path at one atomic add per
	// event.
	waitHist    *obs.Histogram
	holdHist    *obs.Histogram
	admitHist   *obs.Histogram
	releaseHist *obs.Histogram
	obsSampler  obs.Sampler
	relSampler  obs.Sampler

	// Contention profiler (profiler.go): the hot-lock blame sketch and
	// per-shard flight recorder run on the manager's clock and are on
	// unless Config.ProfileDisabled; the latch hold/wait profile is
	// wall-clock and additionally obeys ObsSampleStride < 0. All
	// nil-safe: a disabled profiler costs one predictable branch per
	// hook.
	hot             *obs.HotSketch[Name]
	latchProf       *obs.LatchProf
	flight          *flightRecorder
	latchSampleMask uint64

	stats statCounters

	wakeLeaks atomic.Int64 // owners pooled with a wake signal pending
}

// defaultShards picks the shard count for Config.Shards == 0: enough
// stripes that GOMAXPROCS goroutines rarely collide, clamped to [8, 512].
func defaultShards() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	if n > 512 {
		n = 512
	}
	return nextPow2(n)
}

func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// New creates a lock manager with the given configuration.
func New(cfg Config) *Manager {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	ns := cfg.Shards
	if ns <= 0 {
		ns = defaultShards()
	}
	if ns > 1024 {
		ns = 1024
	}
	ns = nextPow2(ns)
	m := &Manager{
		chain:          memblock.New(cfg.InitialPages),
		clk:            cfg.Clock,
		cfg:            cfg,
		shards:         make([]shard, ns),
		shardMask:      uint64(ns - 1),
		apps:           make(map[int]*App),
		latchWaits:     metrics.NewShardCounters("lock table latch waits", ns),
		latchAcqs:      metrics.NewShardCounters("lock table latch acquisitions", ns),
		fastHits:       metrics.NewWriterCounters("fast-path grants"),
		fastFallbacks:  metrics.NewWriterCounters("fast-path fallbacks"),
		grants:         metrics.NewWriterCounters("lock requests granted"),
		optHits:        metrics.NewWriterCounters("optimistic read tokens"),
		optFailures:    metrics.NewWriterCounters("optimistic validation failures"),
		relBatches:     metrics.NewShardCounters("release batches applied", ns),
		wakesCoalesced: metrics.NewShardCounters("wakeups coalesced", ns),
		throtCulled:    metrics.NewShardCounters("throttle culled waiters", ns),
	}
	stripes := ns
	if stripes > 64 {
		stripes = 64 // histograms mask the shard index into range
	}
	m.waitHist = obs.NewHistogram("lock_wait", "ns", stripes)
	m.holdHist = obs.NewHistogram("lock_hold", "ns", stripes)
	m.admitHist = obs.NewHistogram("lock_admission", "ns", stripes)
	m.releaseHist = obs.NewHistogram("lock_release", "ns", stripes)
	stride := cfg.ObsSampleStride
	if stride == 0 {
		stride = 64
	}
	if stride > 0 {
		m.obsSampler = obs.NewSampler(stride)
		// Releases are roughly 1/L as frequent as acquisitions (one per
		// transaction), so the release histogram samples more densely.
		rel := stride / 4
		if rel < 1 {
			rel = 1
		}
		m.relSampler = obs.NewSampler(rel)
	}
	for i := range m.shards {
		s := &m.shards[i]
		s.idx = i
		s.mu.Init()
		switch {
		case cfg.LatchSpin > 0:
			s.mu.SetFixedBudget(cfg.LatchSpin)
		case cfg.LatchSpin < 0:
			s.mu.SetFixedBudget(0)
		}
		s.pool = m.chain.NewPool(cfg.LeaseChunk)
		if cfg.Throttle > 0 {
			s.throtCeil.Store(int32(min(cfg.Throttle, throttleCeilMax)))
		}
	}
	m.sweepPass.Store(1) // waitPass 0 is the valve's promoted mark
	m.initProfiler(cfg, ns, stride)
	return m
}

// hashName mixes a Name into a well-distributed 64-bit value
// (splitmix64-style finalizer).
func hashName(n Name) uint64 {
	x := n.Row*0x9E3779B97F4A7C15 ^ uint64(n.Table)*0xBF58476D1CE4E5B9 ^ uint64(n.Gran)<<56
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// shardOf returns the index of the shard owning name.
func (m *Manager) shardOf(name Name) int {
	return int(hashName(name) & m.shardMask)
}

// shardFor returns the shard owning name without latching it.
func (m *Manager) shardFor(name Name) *shard {
	return &m.shards[m.shardOf(name)]
}

// lockShard latches shard i, counting every acquisition (latchAcqs) and
// contended acquisitions (latchWaits) separately. The unconditional count
// is one atomic add on the shard's own cache line (metrics.ShardCounters
// pads each element to one); it is what lets tests and benchmarks prove how
// many latches an operation really took.
func (m *Manager) lockShard(i int) *shard {
	s := &m.shards[i]
	m.latchAcqs.Shard(i).Inc()
	if lp := m.latchProf; lp != nil {
		// LockProfiled times only the contended path: the goroutine is
		// about to spin or park anyway, so the two clock reads are not
		// on any fast path.
		if waitNs, contended := s.mu.LockProfiled(); contended {
			m.latchWaits.Shard(i).Inc()
			lp.RecordWait(i, waitNs)
		}
	} else if s.mu.Lock() {
		m.latchWaits.Shard(i).Inc()
	}
	m.stampLatchAcquire(s)
	return s
}

// stampLatchAcquire advances the sampled hold-time stamp under a
// just-taken shard latch: one-in-stride acquisitions stamp holdT0 for
// unlockShard to read; every other acquisition clears a stale stamp left
// by a raw unlock before anything could misread it.
func (m *Manager) stampLatchAcquire(s *shard) {
	if m.latchProf != nil {
		// The tick lives in the shard and advances under its latch — no
		// shared cache line.
		s.latchTick++
		if s.latchTick&m.latchSampleMask == 0 {
			s.holdT0 = time.Now()
		} else if !s.holdT0.IsZero() {
			s.holdT0 = time.Time{}
		}
	}
}

// unlockShard releases a latch taken by lockShard, recording the sampled
// hold time when this acquisition was the one-in-stride stamped one — into
// the latch profile and, as the same sample, into the latch's own hold
// EWMA, which is what its adaptive spin budget retunes from. The paired
// form is diagnostics only: raw s.mu.Unlock() remains correct everywhere
// (the sample is simply dropped).
func (m *Manager) unlockShard(s *shard) {
	if lp := m.latchProf; lp != nil && !s.holdT0.IsZero() {
		ns := time.Since(s.holdT0).Nanoseconds()
		lp.RecordHold(s.idx, ns)
		s.mu.NoteHold(ns)
		s.holdT0 = time.Time{}
	}
	s.mu.Unlock()
}

// runGlobal executes f with every shard latch held (taken in ascending
// index order). It is the stop-the-world primitive the concurrent control
// plane works to avoid: every entry bumps GlobalRuns and its latches-held
// wall time feeds the GlobalHoldMax stall gauge, so callers are observable.
// Continuations are NOT drained here — they self-latch and must run with no
// latches held (flushConts).
func (m *Manager) runGlobal(f func()) {
	m.globalRuns.Add(1)
	// Raise the fast-path gate before latching, then drain in-flight fast
	// ops: a fast op bumps its shard's fastOps before reading the gate
	// (both seq-cst), so either it sees the raised gate and backs out, or
	// the drain below sees its count and waits. Ops seen here complete
	// without blocking on any latch (they take only their owner's mu and a
	// brief lk spin), so the drain terminates; ops arriving later observe
	// the gate and mutate nothing. After the drain, all latches held once
	// again means the whole table — grant words included — stands still.
	m.fastGate.Add(1)
	for i := range m.shards {
		m.lockShard(i)
	}
	for i := range m.shards {
		for m.shards[i].fastOps.Load() != 0 {
			runtime.Gosched()
		}
	}
	t0 := time.Now()
	f()
	m.globalHold.Observe(int64(time.Since(t0)))
	for i := len(m.shards) - 1; i >= 0; i-- {
		m.shards[i].mu.Unlock()
	}
	m.fastGate.Add(-1)
}

// GlobalRuns returns how many times the all-shard latch has been taken
// (runGlobal entries) since the manager was created. Steady-state
// control-plane operations — DetectDeadlocks, SweepTimeouts, Stats,
// ShardStatsSnapshot, DumpLocks — leave it unchanged; tests assert on that
// directly instead of relying on timing. Lock-free.
func (m *Manager) GlobalRuns() int64 { return m.globalRuns.Load() }

// GlobalHoldMax returns the maximum wall-clock duration any single
// all-shard critical section has held every latch — the worst fast-path
// stall the control plane has caused. Lock-free; Observe-only high
// watermark (it never decays).
func (m *Manager) GlobalHoldMax() time.Duration {
	return time.Duration(m.globalHold.Value())
}

// contFn is a deferred continuation; req and err are its entry's operands.
type contFn func(m *Manager, req *request, err error)

// cont is one queued continuation. pin, when set, is the owner whose
// teardown ref (Owner.pin) the entry holds until fn has run.
type cont struct {
	fn  contFn
	req *request
	err error
	pin *Owner
}

// pin takes one teardown ref on o. The caller holds a latch under which o
// has a request queued, so o's release walk has not dropped its bias yet.
func (o *Owner) pin() *Owner {
	o.refs.Add(1)
	return o
}

// enqueueCont defers a continuation to the next drain.
func (m *Manager) enqueueCont(c cont) {
	m.contMu.Lock()
	m.conts = append(m.conts, c)
	m.contMu.Unlock()
	m.contN.Add(1)
}

// drainConts runs queued continuations FIFO until none remain. The caller
// must hold NO shard latches: continuations latch the shards they touch
// themselves (and may call runGlobal). Continuations may enqueue further
// continuations; the loop picks those up too. Concurrent drainers are safe
// — each continuation is popped, and therefore run, exactly once.
func (m *Manager) drainConts() {
	for m.contN.Load() > 0 {
		m.contMu.Lock()
		if m.contHead == len(m.conts) {
			m.contMu.Unlock()
			return
		}
		c := m.conts[m.contHead]
		m.conts[m.contHead] = cont{}
		if m.contHead++; m.contHead == len(m.conts) {
			m.conts, m.contHead = m.conts[:0], 0
		}
		m.contMu.Unlock()
		m.contN.Add(-1)
		c.fn(m, c.req, c.err)
		if c.pin != nil {
			m.dropRef(c.pin)
		}
	}
}

// flushConts drains pending continuations, if any, with no latches held.
// Operations call it after releasing their shard latch(es); the atomic
// counter makes the common no-continuations case a single load. This used
// to enter global mode (runGlobal with an empty body) purely to get the
// continuations run under all latches — now that continuations self-latch,
// the drain costs only the shards each continuation actually touches.
func (m *Manager) flushConts() {
	if m.contN.Load() > 0 {
		m.drainConts()
	}
}

// RegisterApp adds a connected application.
func (m *Manager) RegisterApp() *App {
	m.ownersMu.Lock()
	defer m.ownersMu.Unlock()
	m.nextApp++
	a := &App{id: m.nextApp}
	m.apps[a.id] = a
	m.numApps.Add(1)
	return a
}

// UnregisterApp removes an application. The caller must have released all
// of its owners' locks first.
func (m *Manager) UnregisterApp(a *App) error {
	m.ownersMu.Lock()
	defer m.ownersMu.Unlock()
	if n := a.structs.Load(); n != 0 {
		return fmt.Errorf("lockmgr: app %d still holds %d lock structures", a.id, n)
	}
	if _, ok := m.apps[a.id]; ok {
		delete(m.apps, a.id)
		m.numApps.Add(-1)
	}
	return nil
}

// NumApps returns the number of connected applications — the
// num_applications input of minLockMemory. It is lock-free.
func (m *Manager) NumApps() int {
	return int(m.numApps.Load())
}

// NewOwner creates a lock owner (transaction) for an application and
// registers it on the application.
func (m *Manager) NewOwner(a *App) *Owner {
	o, _ := m.ownerPool.Get().(*Owner)
	if o == nil {
		o = &Owner{wake: make(chan struct{}, 1)}
		o.held.Reset(o.heldSeg[:])
		o.tables = o.tables0[:0]
		if ns := len(m.shards); ns > 64 {
			o.touchedHi = make([]uint64, (ns+63)/64-1)
		}
	}
	o.id, o.app = m.nextOwner.Add(1), a
	o.refs.Store(1) // the release walk's bias
	a.mu.Lock()
	if a.owners != nil {
		a.owners.regPrev = o
	}
	o.regNext = a.owners
	a.owners = o
	a.mu.Unlock()
	return o
}

// AcquireAsync requests a lock without blocking. weight is the number of
// lock structures the request consumes (1 for ordinary locks; bulk scans may
// lock contiguous row chunks that account as multiple structures). The
// returned Pending may already be complete.
func (m *Manager) AcquireAsync(o *Owner, name Name, mode Mode, weight int) *Pending {
	// Async callers keep the Pending for as long as they like, so the box
	// can never be recycled at commit.
	return m.acquireAsync(o, name, mode, weight, false)
}

// acquireAsync is the shared admission front end. recyclable marks boxes
// whose Pending cannot outlive the transaction (the blocking Acquire path);
// ReleaseAll returns those to the home shard's box cache.
func (m *Manager) acquireAsync(o *Owner, name Name, mode Mode, weight int, recyclable bool) *Pending {
	if !mode.Valid() || weight < 1 {
		p := new(Pending)
		p.complete(StatusDenied, fmt.Errorf("lockmgr: invalid request mode=%v weight=%d", mode, weight))
		return p
	}
	if name.Gran == GranTable && weight != 1 {
		p := new(Pending)
		p.complete(StatusDenied, errors.New("lockmgr: table locks have weight 1"))
		return p
	}
	// Admission-latency sampling: one in obsSampler.Stride() of each
	// owner's acquisitions pays for two time.Now calls; everything else
	// pays a plain owner-local increment (no shared sampler cacheline on
	// the per-grant path).
	var admit0 time.Time
	o.obsTick++
	sampled := m.obsSampler.Admit(o.obsTick)
	if sampled {
		admit0 = time.Now()
	}
	hash := hashName(name)
	si := int(hash & m.shardMask)
	// Latch-free admission first: fast-eligible modes (IS/S/IX) try the
	// owner-local re-acquire cache and then a CAS on the published grant
	// word. A nil return means the attempt backed out having mutated
	// nothing; the request proceeds on the latched path below, which is
	// byte-for-byte the pre-fast-path pipeline plus a credit refill.
	if fastEligible(mode) {
		if p, _ := m.tryFastAcquire(o, name, mode, weight, hash, si, recyclable, sampled); p != nil {
			if p == grantedSingleton {
				m.fastHits.Writer(o.app.id).Inc()
			}
			if sampled {
				m.admitHist.RecordStripe(si, time.Since(admit0).Nanoseconds())
			}
			return p
		}
	}
	m.fastFallbacks.Writer(o.app.id).Inc()
	// The request and its Pending are one allocation — and on a steady
	// commit workload not even that: FinishOwner recycles the boxes of
	// committed transactions into the owner's cache, and ReleaseAll into
	// the home shard's. Both are popped under the latch; when neither has
	// a box, take one from the box pool (or allocate) before latching so
	// the malloc stays out of the critical section.
	var box *requestAndPending
	if len(o.cache.boxes) == 0 && m.shards[si].rfreeN.Load() == 0 {
		box = m.newBox()
	}
	s := m.lockShard(si)
	if box == nil {
		if box = o.cache.popBox(); box == nil {
			if box = s.popBox(); box == nil {
				box = &requestAndPending{} // raced empty; rare
			}
		}
	}
	req := &box.req
	req.owner = o
	req.name = name
	req.hash = hash
	req.mode = mode
	req.weight = weight
	req.pending = &box.pend
	req.box = box
	req.recyclable = recyclable
	req.obsSampled = sampled
	p := &box.pend
	if recyclable {
		p.wake = o.wake
	}
	ok := m.startRequest(s, si, req, &o.cache, false)
	if ok && s.fastPublishedN.Load() > 0 {
		// The shard serves fast-path traffic; top its credit up while the
		// latch is held. (Fast-path credit misses fall back to exactly
		// this path, so a dry shard self-heals here.)
		m.maybeRefillFastCredit(s)
	}
	m.unlockShard(s)
	if !ok {
		// The fast path backed out (quota or lease shortfall) without
		// mutating anything; re-run the full admission pipeline with
		// every latch held. runGlobal survivor: quota growth, pool
		// repatriation, synchronous growth, and escalation all need a
		// consistent simultaneous view of every lease pool and the chain —
		// no per-shard protocol can decide "memory is truly exhausted".
		m.runGlobal(func() {
			if !m.startRequest(s, si, req, &o.cache, true) {
				panic("lockmgr: global admission deferred")
			}
		})
		m.flushConts() // escalation continuations run after the latches drop
		if req.obsSampled {
			m.admitHist.RecordStripe(si, time.Since(admit0).Nanoseconds())
		}
		return p
	}
	m.flushConts()
	if req.obsSampled {
		m.admitHist.RecordStripe(si, time.Since(admit0).Nanoseconds())
	}
	return p
}

// Acquire requests a lock and blocks until grant, denial, or ctx
// cancellation. On cancellation the request is withdrawn. A wait parks on
// the owner's wake channel, so it allocates nothing.
func (m *Manager) Acquire(ctx context.Context, o *Owner, name Name, mode Mode, weight int) error {
	_, err := m.acquire(ctx, o, name, mode, weight)
	return err
}

// acquire is Acquire that also reports whether the request waited.
func (m *Manager) acquire(ctx context.Context, o *Owner, name Name, mode Mode, weight int) (waited bool, err error) {
	return m.await(ctx, o, name, m.acquireAsync(o, name, mode, weight, true))
}

// await blocks until p, the Pending of o's request for name admitted on
// the blocking path, completes or ctx ends; on cancellation the request is
// withdrawn. It reports whether the request waited, and its error.
func (m *Manager) await(ctx context.Context, o *Owner, name Name, p *Pending) (waited bool, err error) {
	if p.armed {
		select {
		case <-o.wake:
		case <-ctx.Done():
			// The cancel may race a grant; either way one completion signals.
			m.cancel(o, name)
			<-o.wake
		}
	}
	_, err = p.Status()
	return p.armed, err
}

// startRequest runs the admission pipeline for a new or parked request:
// coverage, conversion, quota, allocation, grant-or-enqueue. s must be
// name's home shard and si its index. In fast mode (global == false) the
// caller holds only that latch; a false return means the request could not
// be admitted locally and nothing was mutated — the caller restarts it in
// global mode, where the caller holds every latch and startRequest always
// returns true. c is the owner's cache when the caller runs on the owner's
// goroutine, nil otherwise (a continuation): a new header comes from it
// first.
func (m *Manager) startRequest(s *shard, si int, req *request, c *ownerCache, global bool) bool {
	o, name := req.owner, req.name
	req.parked = false

	o.mu.Lock()
	if o.released {
		// Use-after-release: the transaction already committed or
		// aborted. Granting would leak a lock with no one to free it.
		// A parked request retried after release ends its wait here
		// (endWait settles the owner's inWait accounting; it is a no-op
		// for never-queued requests).
		o.mu.Unlock()
		m.endWait(req)
		req.pending.complete(StatusDenied,
			fmt.Errorf("lockmgr: owner %d already released", o.id))
		return true
	}
	// Touched-shard invariant: the bit is set before the request can be
	// granted, queued, or parked in this shard, so every request of a live
	// owner is homed in a touched shard and ReleaseAll need visit nothing
	// else. Marked even when the fast path backs out or the grant is
	// covered — conservative bits cost one latch at commit, never
	// correctness.
	o.markTouched(si)

	cur, covered := o.heldCover(name, req.hash, req.mode)
	if covered {
		o.mu.Unlock()
		m.grant(req) // nothing to acquire
		return true
	}

	// Conversion: the owner already holds this lock. cur is homed in this
	// very shard, so its queue state is stable under the latch we hold.
	if cur != nil {
		o.mu.Unlock()
		target := Supremum(cur.mode, req.mode)
		if cur.converting {
			// One conversion at a time per lock keeps the protocol
			// simple; a second upgrade while one is in flight is a
			// transaction-layer bug.
			req.pending.complete(StatusDenied,
				fmt.Errorf("lockmgr: %v already converting", name))
			return true
		}
		m.startConversion(cur, target, req.pending, req.onGrant, req.onDeny)
		return true
	}

	if global {
		// The full admission pipeline may escalate, which re-enters this
		// owner's state (releaseGranted takes o.mu); drop o.mu first.
		o.mu.Unlock()
		switch m.admitStructsGlobal(req) {
		case admitDone:
			return true // pipeline completed the pending (denied/parked)
		default:
		}
		h := s.headerFor(req.hash, name, c)
		m.sealFast(h)
		if len(h.converters) == 0 && len(h.waiters) == 0 && Compatible(req.mode, h.groupMode) {
			m.installGranted(h, req)
			m.settleFast(s, h)
			m.grant(req)
			return true
		}
		m.enqueueWaiter(s, si, h, req)
		return true
	}

	// Fast path: quota check and allocation touch only atomics and the
	// latched shard's lease pool, so o.mu stays held straight through the
	// grant — one critical section instead of two. On any obstacle, back
	// out with nothing mutated and let the caller go global.
	hdl, ok := m.allocLocal(s, o.app, req.weight)
	if !ok {
		o.mu.Unlock()
		return false
	}
	req.handle = hdl
	h := s.headerFor(req.hash, name, c)
	if m.grantLocal(s, h, req) {
		o.mu.Unlock()
		m.grant(req)
		return true
	}
	o.mu.Unlock()
	m.enqueueWaiter(s, si, h, req)
	return true
}

// heldCover answers a request for name in mode from the owner's held
// locks alone: covered when nothing needs acquiring (the owner holds name
// at least as strongly, or holds a table lock subsuming the row — notably
// right after it escalated), and cur, the owner's granted request for
// name, whenever it holds name at all; cur != nil with covered false is a
// conversion. A covering table lock may live in another shard; its
// owner-visible fields are stable under o.mu, which the caller holds.
func (o *Owner) heldCover(name Name, hash uint64, mode Mode) (cur *request, covered bool) {
	if name.Gran == GranRow {
		if ot := o.tableFor(name.Table); ot != nil && ot.tableReq != nil && ot.tableReq.granted &&
			!ot.tableReq.converting && covers(ot.tableReq.mode, mode) {
			return nil, true
		}
	}
	if cur, ok := o.heldGet(hash, name); ok && cur.granted {
		return cur, Supremum(cur.mode, mode) == cur.mode
	}
	return nil, false
}

// allocLocal is single-latch admission's quota check and allocation:
// weight structures from s's lease pool, charged to app. It reports false,
// having mutated nothing, when the global pipeline must decide instead:
// the app is over its cached quota (growth or escalation needs every
// latch), or the shard lease could not be refilled (free structures may be
// stranded in other shards' pools, or memory is genuinely exhausted).
// Caller holds s's latch.
func (m *Manager) allocLocal(s *shard, app *App, weight int) (memblock.Handle, bool) {
	if m.overQuotaFast(s, app, weight) {
		return memblock.Handle{}, false
	}
	hdl, ok := s.pool.Alloc(weight)
	if ok {
		app.structs.Add(int64(weight))
	}
	return hdl, ok
}

// grantLocal seals h and, when nothing queues on it and req is compatible
// with its granted group, installs req as a holder and settles h. On false
// h stays sealed: the caller queues req on it or backs out. Sealing under
// o.mu is deadlock-free: fast-path operations always take o.mu *before*
// spinning for the word lock, and a word-lock holder never blocks, so the
// spin terminates (see fastpath.go, "Lock ordering"). Caller holds s's
// latch and req.owner.mu.
func (m *Manager) grantLocal(s *shard, h *lockHeader, req *request) bool {
	m.sealFast(h)
	if len(h.converters) != 0 || len(h.waiters) != 0 || !Compatible(req.mode, h.groupMode) {
		return false
	}
	m.installGrantedLocked(h, req)
	m.settleFast(s, h)
	return true
}

// enqueueWaiter queues req on h's waiter list and registers it in the
// shard's waiting set. Past an engaged throttle ceiling c the waiter is
// inserted at index c rather than appended, so the queue serves its first
// c waiters in arrival order and the rest newest-first (throttle.go).
// Caller holds the shard latch (and every other latch in global mode) but
// not o.mu.
func (m *Manager) enqueueWaiter(s *shard, si int, h *lockHeader, req *request) {
	m.beginWait(req)
	req.waitPass = m.sweepPass.Load()
	if c := int(s.throtCeil.Load()); c > 0 && len(h.waiters) >= c {
		h.waiters = append(h.waiters, nil)
		copy(h.waiters[c+1:], h.waiters[c:])
		h.waiters[c] = req
		m.throtCulled.Shard(si).Inc()
	} else {
		h.waiters = append(h.waiters, req)
	}
	req.header = h
	s.addWaiting(req)
	// Contention-profiler hooks: charge the enqueue and record the queue
	// depth high-water, then log the wait in the shard's flight ring.
	depth := len(h.converters) + len(h.waiters)
	// The throttle controller's engage signal: track the deepest active
	// queue this shard saw since the last retune window (throttle.go).
	throtDepthMax(s, int32(depth))
	m.hot.Observe(si, h.name, hotEventBlameNs, obs.HotQueueMax, int64(depth))
	if m.flight != nil {
		m.flightRecord(si, m.clk.Now(), flightRec{kind: flightWait, app: req.owner.app.id,
			name: h.name, mode: req.mode, owner: req.owner.id, val: int64(depth)})
	}
	m.settleFast(s, h)
}

// startConversion upgrades a granted request to target mode, waiting in the
// converter queue if incompatible holders exist. extra pending/handlers are
// attached to the conversion outcome. Caller holds cur's home shard latch.
func (m *Manager) startConversion(cur *request, target Mode, p *Pending, onGrant, onDeny contFn) {
	h := cur.header
	si := m.shardOf(cur.name)
	s := &m.shards[si]
	// A conversion mutates the granted group (mode change) or the converter
	// queue; either way the grant word must be fenced first so no fast CAS
	// admits against a stale group mode mid-conversion.
	m.sealFast(h)
	o := cur.owner
	o.mu.Lock()
	cur.converting = true
	cur.convert = target
	o.mu.Unlock()
	cur.pending = p
	cur.onGrant = onGrant
	cur.onDeny = onDeny
	if m.canConvert(cur, target) {
		m.finishConversion(cur, nil)
		m.settleFast(s, h)
		return
	}
	m.beginWait(cur)
	h.converters = append(h.converters, cur)
	s.addWaiting(cur)
	// Same profiler hooks as enqueueWaiter, for the converter queue.
	depth := len(h.converters) + len(h.waiters)
	m.hot.Observe(si, h.name, hotEventBlameNs, obs.HotQueueMax, int64(depth))
	if m.flight != nil {
		m.flightRecord(si, m.clk.Now(), flightRec{kind: flightConvert, app: cur.owner.app.id,
			name: h.name, mode: target, owner: cur.owner.id, val: int64(depth)})
	}
	m.settleFast(s, h)
}

// canConvert reports whether cur can convert to target given the other
// granted holders. Caller holds cur's home shard latch.
func (m *Manager) canConvert(cur *request, target Mode) bool {
	ok := true
	cur.header.eachGranted(func(g *request) bool {
		if g != cur && !Compatible(target, g.mode) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

func (m *Manager) finishConversion(cur *request, d *releaseDrain) {
	o := cur.owner
	o.mu.Lock()
	cur.mode = cur.convert
	cur.converting = false
	cur.convert = ModeNone
	o.mu.Unlock()
	cur.header.recomputeGroupMode()
	m.grantDeferred(cur, d)
}

// admitResult is the outcome of the admission/allocation step.
type admitResult uint8

const (
	// admitOK — structures allocated; proceed to the lock table.
	admitOK admitResult = iota
	// admitDone — the pending was completed (denied) or the request was
	// parked behind an escalation; nothing further to do.
	admitDone
)

// admitStructsGlobal is the full admission pipeline — quota growth,
// escalation, pool repatriation, synchronous growth — run with every shard
// latch held. It never returns admitRetryGlobal.
func (m *Manager) admitStructsGlobal(req *request) admitResult {
	app := req.owner.app

	if over, quota := m.overQuota(app, req.weight); over {
		// MAXLOCKS trigger. The algorithm's goal is "to avoid lock
		// escalation at all times by adjusting the lock memory", so
		// before escalating, grow the lock memory until the quota —
		// a percentage of total capacity — accommodates the holder.
		// Applications that declared a preference for escalation skip
		// the growth and escalate directly.
		if m.cfg.GrowSync != nil && quota > 0 && !prefersEscalation(m.cfg.Quota, app.id) {
			needCap := int(float64(app.structs.Load()+int64(req.weight))*100/quota) + 1
			needBlocks := (needCap - m.chain.Capacity() + memblock.StructsPerBlock - 1) / memblock.StructsPerBlock
			if needBlocks > 0 {
				if granted := m.cfg.GrowSync(needBlocks * memblock.BlockPages); granted > 0 {
					m.chain.Grow(granted)
					m.noteSyncGrowth(granted)
				}
			}
			over, quota = m.overQuota(app, req.weight)
		}
		if over {
			// Growth is capped out (LMOmax or maxLockMemory):
			// escalate this application's largest table, then retry
			// the request.
			if m.escalate(req.owner, req) {
				return admitDone // parked behind the escalation
			}
			// Nothing to escalate: the request alone exceeds the quota.
			m.stats.quotaDenials.Add(1)
			if m.cfg.Events != nil {
				m.cfg.Events.OnDenial(app.id, ErrQuotaExceeded)
			}
			req.pending.complete(StatusDenied, fmt.Errorf("%w: %d structs held + %d requested > %.1f%% of %d",
				ErrQuotaExceeded, app.structs.Load(), req.weight, quota, m.chain.Capacity()))
			return admitDone
		}
	}

	// Repatriate per-shard leases before the allocation of last resort, so
	// structures idling in pools never masquerade as memory pressure.
	if m.chain.Unreserved() < req.weight {
		m.flushPools()
	}
	if h, err := m.chain.Alloc(req.weight); err == nil {
		req.handle = h
		app.structs.Add(int64(req.weight))
		return admitOK
	}

	// Memory exhausted: grow synchronously from overflow memory. Requests
	// are whole 128 KB blocks, at least one, matching the allocation unit.
	if m.cfg.GrowSync != nil {
		needStructs := req.weight - m.chain.FreeStructs()
		needBlocks := (needStructs + memblock.StructsPerBlock - 1) / memblock.StructsPerBlock
		needPages := needBlocks * memblock.BlockPages
		if granted := m.cfg.GrowSync(needPages); granted > 0 {
			m.chain.Grow(granted)
			m.noteSyncGrowth(granted)
			if h, err := m.chain.Alloc(req.weight); err == nil {
				req.handle = h
				app.structs.Add(int64(req.weight))
				return admitOK
			}
		}
	}

	// Still constrained: escalate to free structures.
	if m.escalate(req.owner, req) {
		return admitDone // parked; retried after the escalation completes
	}

	m.stats.memoryDenials.Add(1)
	if m.cfg.Events != nil {
		m.cfg.Events.OnDenial(app.id, ErrLockMemory)
	}
	req.pending.complete(StatusDenied, ErrLockMemory)
	return admitDone
}

func (m *Manager) noteSyncGrowth(pages int) {
	m.stats.syncGrowths.Add(1)
	m.stats.syncGrowthPages.Add(int64(pages))
	m.invalidateQuotaCache()
	if m.cfg.Events != nil {
		m.cfg.Events.OnSyncGrowth(pages)
	}
}

// flushPools returns every shard's lease to the chain. Idle fast credit is
// drained back into the pool first so it is repatriated too — fast credit
// must never masquerade as memory pressure. Caller holds all shard latches
// (runGlobal, so the fast-op gate is drained).
func (m *Manager) flushPools() {
	for i := range m.shards {
		s := &m.shards[i]
		m.drainFastCredit(s)
		s.pool.Flush()
	}
}

// overQuota reports whether adding weight structures would put the app above
// lockPercentPerApplication, and returns the quota used. It reads the
// provider fresh — and therefore pays the provider's synchronization — so it
// is reserved for the global admission pipeline and for applications with
// per-app quota bias; the fast path uses overQuotaFast.
func (m *Manager) overQuota(app *App, weight int) (bool, float64) {
	if m.cfg.Quota == nil {
		return false, 100
	}
	quota := m.cfg.Quota.QuotaPercent(app.id, m.chain.Requests(), m.chain.Used())
	limit := quota / 100 * float64(m.chain.Capacity())
	return float64(app.structs.Load()+int64(weight)) > limit, quota
}

// quotaRefreshStride is how many lock-structure requests a shard's pool may
// serve between that shard's refreshes of the cached quota percent. The
// paper's own QuotaTracker already tolerates a refresh period of 128
// requests, so a 64-request cache stride adds no staleness class the tuning
// loop does not already absorb; it removes the provider's mutex from the
// per-acquire path.
const quotaRefreshStride = 64

// overQuotaFast is the admission fast path's quota check: it consults a
// cached quota percent, refreshing from the provider only when s's pool
// request count has advanced past the shard's stride watermark (or after a
// capacity change zeroed it). The refresh reads the chain's total request
// count and usage for the provider, so only one in quotaRefreshStride of a
// shard's admissions sums the pools' counters. The limit itself is always
// computed against the live capacity, so resizes take effect immediately
// even between refreshes. Applications with a per-app escalation bias
// bypass the cache entirely — the cached percent is the unbiased value and
// would overstate their quota. A stale answer is never load-bearing: "over"
// merely diverts the request to the global pipeline, which re-reads the
// provider fresh, and "under" admits at most a stride's worth of requests
// against a quota the provider would already have let drift that long.
func (m *Manager) overQuotaFast(s *shard, app *App, weight int) bool {
	q := m.cfg.Quota
	if q == nil {
		return false
	}
	if prefersEscalation(q, app.id) {
		over, _ := m.overQuota(app, weight)
		return over
	}
	if reqs := s.pool.Requests(); reqs >= s.quotaNext.Load() {
		pct := q.QuotaPercent(app.id, m.chain.Requests(), m.chain.Used())
		m.quotaPct.Store(math.Float64bits(pct))
		s.quotaNext.Store(reqs + quotaRefreshStride)
	}
	quota := math.Float64frombits(m.quotaPct.Load())
	limit := quota / 100 * float64(m.chain.Capacity())
	return float64(app.structs.Load()+int64(weight)) > limit
}

// invalidateQuotaCache forces the next fast-path quota check to re-read the
// provider. Called whenever lock-memory capacity changes, since the
// provider's percent may be a function of capacity.
func (m *Manager) invalidateQuotaCache() {
	for i := range m.shards {
		m.shards[i].quotaNext.Store(0)
	}
}

// header returns the lock table entry for name, whose hashName is hash, or
// nil. Caller holds the shard latch.
func (s *shard) header(hash uint64, name Name) *lockHeader {
	h, _ := s.table.Find(hash, func(h *lockHeader) bool { return h.name == name })
	return h
}

// headerFor returns (creating if necessary) the lock table entry for name,
// recycling headers from the owner's cache c (nil for none) or the shard's
// freelist. Caller holds the shard latch.
func (s *shard) headerFor(hash uint64, name Name, c *ownerCache) *lockHeader {
	h, added := s.headerForDeferred(hash, name, c)
	if added {
		s.syncTableMirror()
	}
	return h
}

// headerForDeferred is headerFor without the latch-free mirror update,
// reporting whether it added the header: a batch visit adds several
// headers and syncs the mirror once, as the release visit does for its
// evictions. Caller holds the shard latch and must sync the mirror before
// releasing it.
func (s *shard) headerForDeferred(hash uint64, name Name, c *ownerCache) (*lockHeader, bool) {
	if h := s.header(hash, name); h != nil {
		return h, false
	}
	h := c.popHeader()
	if h == nil {
		if n := len(s.hfree); n > 0 {
			h = s.hfree[n-1]
			s.hfree[n-1] = nil
			s.hfree = s.hfree[:n-1]
		} else if h, _ = headerPool.Get().(*lockHeader); h == nil {
			h = &lockHeader{}
		}
	}
	h.name = name
	s.table.Insert(hash, h)
	return h, true
}

// installGranted records req as a granted holder of h. Caller holds the
// home shard latch.
func (m *Manager) installGranted(h *lockHeader, req *request) {
	o := req.owner
	o.mu.Lock()
	m.installGrantedLocked(h, req)
	o.mu.Unlock()
}

// installGrantedLocked is installGranted for callers already holding the
// owner's mutex (the fast acquire path). Caller holds the home shard latch
// and req.owner.mu.
func (m *Manager) installGrantedLocked(h *lockHeader, req *request) {
	req.header = h
	h.addGranted(req)
	h.groupMode = Supremum(h.groupMode, req.mode)
	o := req.owner
	req.granted = true
	o.held.Insert(req.hash, req)
	o.tableOrCreate(req.name.Table).add(req)
}

// add counts a newly granted request into the owner's per-table entry.
func (ot *ownerTable) add(req *request) {
	if req.name.Gran == GranTable {
		ot.tableReq = req
	} else {
		ot.nRows++
		ot.rowStructs += req.weight
	}
}

// grant completes req's pending as granted and queues its continuation (if
// any) for the next global drain. Covered and no-op grants hold no
// structures and are not registered in the lock table; they pass through
// here all the same.
func (m *Manager) grant(req *request) {
	m.grantDeferred(req, nil)
}

// grantDeferred is grant with the wake-side work optionally coalesced: with
// a non-nil drain the Pending's signal (a wake send or channel close — a
// runtime wakeup) and the onGrant continuation are appended to the drain's
// wake list instead of firing under the latch; the release walk fires them
// in one pass after every latch has been dropped (fireWakes). Everything
// the lock-table invariants and Status depend on — the grant install, the
// wait-histogram sample, the inWait decrement, the Pending's terminal
// status — still happens here, under the latch, so a stopped world never
// observes a granted request still counted as waiting, and an owner whose
// ReleaseAll returns never sees its own granted request read as waiting.
func (m *Manager) grantDeferred(req *request, d *releaseDrain) {
	m.grants.Writer(req.owner.app.id).Inc()
	if m.flight != nil && !req.waitStart.IsZero() {
		now := m.clk.Now()
		m.flightRecord(m.shardOf(req.name), now, flightRec{kind: flightGrant, app: req.owner.app.id,
			name: req.name, mode: req.effectiveMode(), owner: req.owner.id, val: int64(now.Sub(req.waitStart))})
	}
	m.endWait(req)
	if req.obsSampled {
		req.grantedAt = time.Now()
	}
	p := req.pending
	var c cont
	if req.onGrant != nil {
		c = cont{fn: req.onGrant, pin: req.owner.pin()} // before p frees the owner
	}
	req.pending = nil
	req.onGrant, req.onDeny = nil, nil
	if d != nil {
		if p != nil && !p.settle(StatusGranted, nil) {
			p = nil // already terminal: nothing to signal
		}
		if p != nil || c.fn != nil {
			d.wakes = append(d.wakes, wakeEntry{p: p, c: c})
		}
		return
	}
	if p != nil {
		p.complete(StatusGranted, nil)
	}
	if c.fn != nil {
		m.enqueueCont(c)
	}
}

// deny completes a waiting request with err, reverting conversions and
// freeing structures of never-granted requests. Caller holds the home shard
// latch.
func (m *Manager) deny(req *request, err error) {
	s := m.shardFor(req.name)
	s.delWaiting(req)
	m.endWait(req)
	if req.granted && !req.converting {
		// Defensive: the request was granted between being selected as
		// a victim and this call; there is nothing left to deny.
		return
	}
	h := req.header
	if h != nil {
		m.sealFast(h)
	}
	if req.converting {
		// Failed conversion: drop back to the original granted mode.
		h.converters = removeReq(h.converters, req)
		o := req.owner
		o.mu.Lock()
		req.converting = false
		req.convert = ModeNone
		o.mu.Unlock()
		// The dead converter may have been the head of the priority
		// queue, blocking requests that are now grantable.
		m.post(s, h, nil)
	} else if h != nil {
		h.waiters = removeReq(h.waiters, req)
		m.freeRequestStructs(s, req)
		// Likewise: an incompatible head waiter's removal can unblock
		// the requests queued behind it.
		m.post(s, h, nil)
		s.cacheOrEvict(h)
	} else {
		// Parked request: never entered a queue, but may hold structures
		// if it was parked after allocation (it is not today; keep the
		// accounting safe regardless).
		m.freeRequestStructs(s, req)
	}
	if h != nil {
		m.settleFast(s, h)
	}
	p := req.pending
	var c cont
	if req.onDeny != nil {
		c = cont{fn: req.onDeny, err: err, pin: req.owner.pin()}
	}
	req.pending = nil
	req.onGrant, req.onDeny = nil, nil
	if p != nil {
		p.complete(StatusDenied, err)
	}
	if c.fn != nil {
		m.enqueueCont(c)
	}
}

// freeRequestStructs returns req's structures to its home shard's lease
// pool. s must be req's home shard; the caller holds its latch.
func (m *Manager) freeRequestStructs(s *shard, req *request) {
	if req.fastLeased {
		// Fast-path grant: the structures were consumed from the shard's
		// fast credit, not its latched pool. Recredit them (the next fast
		// grant reuses the lease) and reverse the chain consumption.
		req.fastLeased = false
		s.fastFree.Add(int64(req.weight))
		s.pool.ReturnReserved(req.weight)
		req.owner.app.structs.Add(-int64(req.weight))
		return
	}
	if req.handle.Structs() > 0 {
		s.pool.Free(req.handle)
		req.owner.app.structs.Add(-int64(req.weight))
		req.handle = memblock.Handle{}
	}
}

// cacheOrEvict removes an empty header from the shard's table and recycles
// it on the bounded freelist (its emptied granted map is reused by the next
// header the shard creates). Caller holds the shard latch.
func (s *shard) cacheOrEvict(h *lockHeader) {
	if s.cacheOrEvictDeferred(h, nil) {
		s.syncTableMirror()
	}
}

// cacheOrEvictDeferred is cacheOrEvict without the latch-free mirror
// update: the batch release path evicts several headers per shard visit
// and calls syncTableMirror once at the end. An evicted header goes to the
// owner cache c when c is non-nil (FinishOwner's walk) and has room, to
// headerPool when it is full, and to the shard freelist when c is nil.
// Returns whether the header was removed. Caller holds the shard latch and
// must sync the mirror before releasing it.
func (s *shard) cacheOrEvictDeferred(h *lockHeader, c *ownerCache) bool {
	if h == nil || h.published || !h.empty() {
		// Published headers are never evicted or recycled: a fast op may
		// hold a slot-loaded pointer to one at any time, and keeping the
		// empty header resident (with an admitting all-zero grant word) is
		// exactly what keeps a hot key's grants latch-free across
		// transactions. Reclamation is deferred to Resize/slot pressure.
		return false
	}
	s.table.Delete(hashName(h.name), h)
	// Canonicalize before recycling (or dropping): settleFast on an evicted
	// header must see ModeNone and publish nothing.
	h.groupMode = ModeNone
	h.converters = nil
	h.waiters = nil
	switch {
	case c == nil:
		if len(s.hfree) < headerFreelistCap {
			s.hfree = append(s.hfree, h)
		}
	case !c.pushHeader(h):
		headerPool.Put(h)
	}
	return true
}

// syncTableMirror refreshes the latch-free mirror of the shard's table
// size and bumps the fuzzy-read sequence. Caller holds the shard latch;
// CheckInvariants verifies the mirror is exact whenever no latch section
// is in flight.
func (s *shard) syncTableMirror() {
	s.nLocks.Store(int64(s.table.Len()))
	s.seq.Add(1)
}

// post wakes queued requests on h after a release or conversion, in queue
// order: converters first, then waiters, stopping at the first
// incompatible request. s is h's shard; the caller holds its latch. A
// non-nil drain defers each grant's Pending completion to the post-walk
// wake pass (grantDeferred); the grant itself — queue removal, install,
// accounting — is still applied here, so grant order is decided under the
// latch and the deferred completions merely deliver it.
func (m *Manager) post(s *shard, h *lockHeader, d *releaseDrain) {
	if len(h.converters) == 0 && len(h.waiters) == 0 {
		return
	}
	for len(h.converters) > 0 {
		c := h.converters[0]
		if !m.canConvert(c, c.convert) {
			return // converters have priority; nothing else may jump
		}
		h.converters = removeAt(h.converters, 0)
		s.delWaiting(c)
		m.finishConversion(c, d)
	}
	for len(h.waiters) > 0 {
		w := h.waiters[0]
		if !Compatible(w.mode, h.groupMode) {
			return
		}
		h.waiters = removeAt(h.waiters, 0)
		s.delWaiting(w)
		m.installGranted(h, w)
		m.grantDeferred(w, d)
	}
}

// releaseGranted removes a granted request from the lock table, frees its
// structures, and posts the queue. Caller holds the home shard latch.
func (m *Manager) releaseGranted(req *request) {
	s := m.shardFor(req.name)
	o := req.owner
	o.mu.Lock()
	m.releaseOwnerStateLocked(req)
	o.mu.Unlock()
	m.finishRelease(s, req)
}

// releaseOwnerStateLocked unlinks req from its owner's indexes. Caller
// holds the home shard latch and req.owner.mu.
func (m *Manager) releaseOwnerStateLocked(req *request) {
	o := req.owner
	o.held.Delete(req.hash, req)
	if ot := o.tableFor(req.name.Table); ot != nil {
		if req.name.Gran == GranTable {
			ot.tableReq = nil
		} else {
			ot.nRows--
			ot.rowStructs -= req.weight
		}
	}
	req.granted = false
}

// finishRelease completes a release after the owner state is unlinked:
// lock-table removal, structure free, FIFO posting. s must be req's home
// shard; the caller holds its latch (and NOT req.owner.mu — posting may
// take other owners' mutexes).
func (m *Manager) finishRelease(s *shard, req *request) {
	if !req.grantedAt.IsZero() {
		held := time.Since(req.grantedAt).Nanoseconds()
		m.holdHist.RecordStripe(m.shardOf(req.name), held)
		req.grantedAt = time.Time{}
		if m.flight != nil {
			// Sampled (same 1/stride population as the hold histogram),
			// so the flight ring sees a representative release stream
			// without one record per commit.
			m.flightRecord(m.shardOf(req.name), m.clk.Now(), flightRec{kind: flightRelease, app: req.owner.app.id,
				name: req.name, mode: req.mode, owner: req.owner.id, val: held})
		}
	}
	h := req.header
	m.sealFast(h)
	h.removeGranted(req.owner)
	m.freeRequestStructs(s, req)
	h.recomputeGroupMode()
	m.post(s, h, nil)
	s.cacheOrEvict(h)
	m.settleFast(s, h)
}

// Release drops one granted lock, or cancels a waiting request for name.
// Strict 2PL callers use ReleaseAll instead; Release supports weaker
// isolation (e.g. cursor-stability read locks released at fetch).
func (m *Manager) Release(o *Owner, name Name) error {
	hash := hashName(name)
	si := int(hash & m.shardMask)
	// Symmetric fast path: a fast-granted IS/S/IX hold on a published
	// header releases by CAS decrement, deferring header reclamation to the
	// latched path (the emptied header stays resident and admitting).
	if m.shards[si].fastPublishedN.Load() > 0 && m.tryFastRelease(o, name, hash, si) {
		return nil
	}
	s := m.lockShard(si)
	o.mu.Lock()
	req, ok := o.heldGet(hash, name)
	if !ok {
		o.mu.Unlock()
		m.unlockShard(s)
		return fmt.Errorf("lockmgr: owner %d does not hold %v", o.id, name)
	}
	if req.converting {
		// Rare path: withdraw the in-flight conversion first. deny and
		// releaseGranted take o.mu themselves.
		o.mu.Unlock()
		m.deny(req, ErrCanceled)
		m.releaseGranted(req)
		m.unlockShard(s)
		m.flushConts()
		return nil
	}
	m.releaseOwnerStateLocked(req)
	o.mu.Unlock()
	m.finishRelease(s, req)
	m.unlockShard(s)
	m.flushConts()
	return nil
}

// cancel withdraws a waiting request for name — a queued new request, a
// parked request, or an in-flight conversion (which reverts to its granted
// mode). When the home shard's published waiter count is zero there is
// nothing to withdraw and the latch is never taken: the canceling goroutine
// enqueued the request itself (program order), so if it were still waiting
// the nWaiting store would be visible; a zero means the request already
// left the queue (granted or denied) and the final state is readable from
// its Pending.
func (m *Manager) cancel(o *Owner, name Name) {
	si := m.shardOf(name)
	if m.shards[si].nWaiting.Load() == 0 {
		return
	}
	s := m.lockShard(si)
	for req := s.waitHead; req != nil; req = req.wnext {
		if req.owner == o && req.name == name {
			m.deny(req, ErrCanceled)
			break
		}
	}
	m.unlockShard(s)
	m.flushConts()
}

// ReleaseAll releases every lock held or requested by the owner and removes
// the owner. Called at transaction commit or abort; calling it again is a
// no-op. This is the commit fast path: it visits only the owner's touched
// shards — O(locks held), not O(shards) — latching each exactly once, in
// ascending index order, and within each visit cancels the owner's waiting
// requests, then releases its row locks, then its table locks, posting each
// lock's FIFO queue as it goes.
//
// Ordering argument. Row-before-table release is preserved per shard; the
// global two-pass order the full sweep used to provide is unobservable once
// o.released is set: the owner issues no new requests (so its own coverage
// checks never run again), other owners' coverage checks read only their
// own tables entries, and escalation victim selection runs only for owners
// requesting locks. Invariant checks are order-independent — they hold at
// every latch release. TestReleaseOrderRowsBeforeTables pins the per-shard
// ordering choice.
//
// Concurrency. released is set under o.mu before the held set is read, so
// any concurrent admission either lands in the snapshot or is denied. If
// the owner has no requests in flight (inWait == 0 — see beginWait/endWait
// for the ordering proof), the snapshot is complete and only shards with
// held locks are visited, with no waiting-set scan at all. Otherwise every
// touched shard is visited and the held set is re-read under each shard's
// latch, so a wait granted between snapshot and visit is still found — in
// the shard's waiting set (denied) or in the re-read held set (released).
// Escalation continuations racing the walk are handled by per-request
// revalidation: a request is released only if it is still the owner's live
// entry for its name.
//
// Contract. When ReleaseAll returns, every lock the owner held is out of
// the lock table and its structures are back in the shard pools, so
// UsedStructs no longer counts them; a request already waiting when it was
// called that the release unblocks is already granted. Every shard visit
// applies the owner's batch under that shard's latch, and the deferred
// grant wakeups fire before the call returns. Only the Owner struct itself
// may outlive the call: FinishOwner recycles it once the queued
// continuations naming it have run.
func (m *Manager) ReleaseAll(o *Owner) {
	m.releaseAll(o, false)
}

// FinishOwner is ReleaseAll plus Owner recycling for callers that can
// guarantee exclusive ownership of o: no concurrent or later use of the
// pointer, by ReleaseAll or anything else. (The transaction layer
// qualifies — its state machine calls finish exactly once.) Every owner is
// recycled, waited or not: the pool takes it once the last queued
// continuation naming it has run. ReleaseAll itself keeps the stronger
// guarantee that duplicate concurrent calls are harmless.
func (m *Manager) FinishOwner(o *Owner) {
	m.releaseAll(o, true)
}

// releaseAll does the work; it reports whether this call performed the
// release (false when a racing ReleaseAll got there first). recycle is
// FinishOwner's exclusive-pointer promise: when set the owner is pooled
// once its teardown refcount (refs) drains, and the walk recycles the
// owner's committed request boxes and emptied headers into its cache.
func (m *Manager) releaseAll(o *Owner, recycle bool) bool {
	// Release-latency sampling: the owners whose id is a multiple of the
	// stride pay for the two clock reads bracketing the walk. Owner ids
	// are assigned in order, so under the simulated clock the recorded
	// series stays byte-reproducible.
	var t0 time.Time
	sampled := m.relSampler.Admit(o.id)
	if sampled {
		t0 = m.clk.Now()
	}

	o.mu.Lock()
	if o.released {
		o.mu.Unlock()
		return false // double release: commit and abort already raced, no-op
	}
	o.released = true
	o.recycleOnZero = recycle // read by the dropper that reaches zero, after the walk's bias drop
	quiesced := o.inWait.Load() == 0

	// Snapshot (name, request, shard) triples, bucketed by shard with rows
	// before tables. Names are copied out of the held index — revalidation
	// and shard routing never dereference a request pointer that a
	// concurrent continuation might have released (and recycling might
	// have rewritten). The batch and the drain are owner-embedded scratch,
	// so the steady-state commit walk allocates nothing and touches no
	// sync.Pool.
	batch := &o.walkBatch
	batch.reset()
	shards := o.touchedShards(batch.buf[:0])
	if quiesced {
		// Snapshot AND detach in one pass: the whole commit pays one o.mu
		// section, and the shard visits below never take o.mu again.
		batch.collectDetach(m, o)
	}
	o.mu.Unlock()

	var cache *ownerCache
	if recycle {
		cache = &o.cache
	}
	drain := &o.drain
	for _, si := range shards {
		if quiesced && !batch.hasShard(si) {
			continue // nothing held there and no waits in flight
		}
		s := m.lockShard(si)
		if !quiesced {
			// Abort path: withdraw this shard's waiting requests first
			// (queued waiters, parked requests, in-flight conversions —
			// a denied conversion reverts to its granted mode and is
			// then released below). Skipped entirely when the shard has
			// no waiters at all.
			// A denial unlinks and may grant others: rescan from the head.
			for req := s.waitHead; req != nil; {
				if req.owner == o {
					m.deny(req, ErrCanceled)
					req = s.waitHead
					continue
				}
				req = req.wnext
			}
			// Re-read the held set for this shard: a wait granted after
			// the release flag was set landed here under this latch.
			batch.reset()
			o.mu.Lock()
			batch.collectShard(m, o, si)
			o.mu.Unlock()
		}
		m.releaseShardPhase1(s, si, o, batch, quiesced, cache, drain)
		m.relBatches.Shard(si).Inc()
		m.finishShardVisit(s, si, cache, drain)
		m.unlockShard(s)
	}
	batch.buf = shards[:0]
	batch.reset()

	// The single deferred wake pass: every FIFO grant the walk produced is
	// signalled here, with no latches held — wake-side work never
	// re-latches a shard the walk already dropped. The owner-embedded
	// drain is safe to use up to this point: the walk's refs bias
	// (dropped below, last) keeps the owner from being recycled under it.
	m.fireWakes(drain)

	if sampled {
		m.releaseHist.RecordStripe(int(o.id), int64(m.clk.Now().Sub(t0)))
	}

	// Deregister: unlink from the app's owner list. Exactly one ReleaseAll
	// reaches this point per owner (the released flag gates the walk), so
	// the links are spliced once.
	a := o.app
	a.mu.Lock()
	if o.regPrev != nil {
		o.regPrev.regNext = o.regNext
	} else {
		a.owners = o.regNext
	}
	if o.regNext != nil {
		o.regNext.regPrev = o.regPrev
	}
	o.regPrev, o.regNext = nil, nil
	a.mu.Unlock()
	m.flushConts()

	// Drop the owner's refs bias — the walk's very last touch of the owner
	// — performing the teardown unless a continuation still holds a ref.
	m.dropRef(o)
	return true
}

// dropRef releases one hold on the owner's teardown count; the drop to
// zero performs the deferred FinishOwner recycling when it was promised.
// The atomic decrement orders the teardown after every other use of the
// owner.
func (m *Manager) dropRef(o *Owner) {
	if o.refs.Add(-1) == 0 && o.recycleOnZero {
		if len(o.wake) != 0 {
			m.wakeLeaks.Add(1)
			<-o.wake
		}
		o.resetForReuse()
		m.ownerPool.Put(o)
	}
}

// resetForReuse returns the owner to its zero state (keeping the sized
// touchedHi spill, a modest held array, modest walk scratch and its cache
// of recycled boxes and headers) so NewOwner can hand it to a fresh
// transaction.
func (o *Owner) resetForReuse() {
	o.app = nil
	o.clearIndexes()
	o.released = false
	o.touched0 = 0
	for i := range o.touchedHi {
		o.touchedHi[i] = 0
	}
	o.inWait.Store(0)
	o.obsTick = 0
	o.refs.Store(0)
	o.recycleOnZero = false
	// A scan's walk scratch is not pooled: it would stay live, and be
	// scanned by every collection, for as long as the owner circulates.
	if b := &o.walkBatch; cap(b.rows) > heldKeepSlots || cap(b.live) > heldKeepSlots || cap(b.order) > heldKeepSlots {
		b.rows, b.tables, b.order, b.live = nil, nil, nil, nil
	}
	if cap(o.drain.hdrs) > heldKeepSlots {
		o.drain.hdrs = nil
	}
	if b := &o.rows; cap(b.ents) > heldKeepSlots || len(b.spare) > heldKeepSlots {
		*b = rowBatch{}
	}
}

// releaseEntry is one held lock queued for release: the name is a copy, so
// routing and revalidation are safe even if the request itself is released
// (and its box recycled) by a racing escalation continuation. The home
// shard is computed once at collect time.
type releaseEntry struct {
	name Name
	req  *request
	si   int
}

// releaseBatch snapshots an owner's held locks for the touched-shard
// release walk: two flat slices (rows, then tables — the pinned per-shard
// release order) plus a bitmap of the shards they live in, and the same
// entries bucketed by shard (order, with shard si's bucket at
// order[start[si]:start[si+1]], rows first), so each shard visit reads its
// own entries and the commit costs O(locks), not O(visits × locks). The
// batch is owner scratch and its slices keep their capacity across
// commits, so the steady-state walk allocates nothing.
type releaseBatch struct {
	rows   []releaseEntry
	tables []releaseEntry
	shards [maxShardWords]uint64
	order  []releaseEntry
	start  []int32
	buf    []int // scratch for touchedShards
	live   []*request
}

// reset empties the batch, keeping its slices' capacity but not their
// contents: a batch outlives its walk (it is owner scratch), and a stale
// entry would keep its request — and through a never-recycled request its
// owner, and that owner's scratch in turn — from being collected.
func (b *releaseBatch) reset() {
	clear(b.rows)
	clear(b.tables)
	clear(b.order)
	b.rows = b.rows[:0]
	b.tables = b.tables[:0]
	b.order = b.order[:0]
	b.shards = [maxShardWords]uint64{}
}

func (b *releaseBatch) add(si int, name Name, r *request) {
	if name.Gran == GranRow {
		b.rows = append(b.rows, releaseEntry{name, r, si})
	} else {
		b.tables = append(b.tables, releaseEntry{name, r, si})
	}
	b.shards[si>>6] |= 1 << (uint(si) & 63)
}

func (b *releaseBatch) hasShard(si int) bool {
	return b.shards[si>>6]&(1<<(uint(si)&63)) != 0
}

// bucket sorts the collected entries into order by shard — a counting
// sort over ns shards, rows before tables within each — and sets start.
// An empty batch (a read-only transaction) only empties start.
func (b *releaseBatch) bucket(ns int) {
	if len(b.rows)+len(b.tables) == 0 {
		b.start = b.start[:0]
		return
	}
	if cap(b.start) < ns+1 {
		b.start = make([]int32, ns+1)
	}
	start := b.start[:ns+1]
	clear(start)
	for _, e := range b.rows {
		start[e.si+1]++
	}
	for _, e := range b.tables {
		start[e.si+1]++
	}
	for i := 1; i <= ns; i++ {
		start[i] += start[i-1]
	}
	n := len(b.rows) + len(b.tables)
	if cap(b.order) < n {
		b.order = make([]releaseEntry, n)
	}
	b.order = b.order[:n]
	// Fill each bucket from its start, shifting start[si] up as it goes;
	// afterwards start[si] is where bucket si ends, so shift back by one.
	for _, lst := range [2][]releaseEntry{b.rows, b.tables} {
		for _, e := range lst {
			b.order[start[e.si]] = e
			start[e.si]++
		}
	}
	copy(start[1:], start[:ns])
	start[0] = 0
	b.start = start
}

// shardEntries returns shard si's bucket of a bucketed batch: its rows,
// then its tables.
func (b *releaseBatch) shardEntries(si int) []releaseEntry {
	if len(b.start) == 0 {
		return nil
	}
	return b.order[b.start[si]:b.start[si+1]]
}

// collect buckets every held lock. Caller holds o.mu.
func (b *releaseBatch) collect(m *Manager, o *Owner) {
	o.held.Each(func(r *request) bool {
		b.add(int(r.hash&m.shardMask), r.name, r)
		return true
	})
	b.bucket(len(m.shards))
}

// collectDetach buckets every held lock and then wipes the owner's held
// and per-table indexes wholesale. Caller holds o.mu and has proved the
// owner quiesced (released set, inWait == 0), so the snapshot is exact and
// nothing can repopulate the indexes. Detaching here — one clear in the
// o.mu section the commit already holds, rather than one o.mu section and
// one index delete per lock under each shard latch — is what makes the
// batch frozen: the shard visits touch the lock table, the requests, and
// the app's atomic quota, never o.mu. The requests stay granted in the
// table until their shard's visit applies the batch; only the owner-side
// view is gone.
func (b *releaseBatch) collectDetach(m *Manager, o *Owner) {
	b.collect(m, o)
	o.clearIndexes()
}

// collectShard buckets the held locks homed in shard si. Caller holds
// o.mu (and the shard latch, so the filtered view stays accurate).
func (b *releaseBatch) collectShard(m *Manager, o *Owner, si int) {
	o.held.Each(func(r *request) bool {
		if int(r.hash&m.shardMask) == si {
			b.add(si, r.name, r)
		}
		return true
	})
	b.bucket(len(m.shards))
}

// releaseShardPhase1 releases one shard's share of the batch: revalidate
// and unlink every entry of the shard's bucket in a single o.mu critical
// section (rows first, then tables — the pinned order), then unlink each
// release from the lock table, free its structures, and recycle the boxes
// of committed blocking acquires — into the owner cache c when the caller
// is FinishOwner's walk (c non-nil), else into the shard's cache. Headers
// that still need a FIFO posting pass, the pooled frees awaiting one
// SettleFree, and the fast credit awaiting one recredit accumulate into
// the drain: the caller finishes the visit — settle once, post once — with
// finishShardVisit. Caller holds the shard latch.
//
// frozen says the caller proved the owner's held set can no longer change
// concurrently (the quiesced commit path: released was set under o.mu with
// inWait == 0, so any in-flight admission is denied before touching held,
// and no waits or escalation continuations exist to complete). Frozen
// batches were also detached from the owner's indexes at collect time
// (collectDetach), so the frozen walk touches only the requests, the lock
// table, and the app's atomic quota — never o.mu or the held index. The
// abort path (waits in flight) passes frozen=false and pays o.mu plus
// pointer revalidation.
func (m *Manager) releaseShardPhase1(s *shard, si int, o *Owner, b *releaseBatch, frozen bool, c *ownerCache, d *releaseDrain) {
	live := b.live[:0]
	if !frozen {
		o.mu.Lock()
	}
	for _, e := range b.shardEntries(si) {
		if !frozen {
			// Revalidate under latch + o.mu: an escalation
			// continuation may have released this entry since the
			// snapshot. Pointer identity against the live held index
			// decides; only a match proves e.req is still this
			// owner's request (and therefore not recycled), making
			// its fields safe to touch.
			if cur, ok := o.heldGet(hashName(e.name), e.name); !ok || cur != e.req || !e.req.granted {
				continue
			}
			m.releaseOwnerStateLocked(e.req)
		} else {
			// Frozen batches were detached from the owner's indexes
			// at collect time (collectDetach); only the table-facing
			// grant flag remains to clear, under this latch, together
			// with the removeGranted below.
			e.req.granted = false
		}
		live = append(live, e.req)
	}
	if !frozen {
		o.mu.Unlock()
	}
	// Unlink every released request from the lock table and return its
	// structures to the shard pool, accumulating the chain and app
	// accounting instead of paying an atomic per lock. A published
	// queue-free header is settled immediately after its unlink —
	// post would be a no-op and cacheOrEvictDeferred keeps it resident
	// regardless — so the hot headers of a fast-path workload are fenced
	// for one holder removal, not the whole batch. (The word reopens before
	// the accounting below lands; a racing fast grant that sees the stale
	// credit or quota merely falls back.) Everything else — headers with
	// queues (fenced anyway) and unpublished headers (not fast-reachable) —
	// defers to the visit's posting pass.
	poolFreed, weightFreed, fastFreed := 0, 0, 0
	for _, r := range live {
		if !r.grantedAt.IsZero() {
			m.holdHist.RecordStripe(m.shardOf(r.name), time.Since(r.grantedAt).Nanoseconds())
			r.grantedAt = time.Time{}
		}
		h := r.header
		w, open := m.sealFastWord(h)
		h.removeGranted(r.owner)
		if r.fastLeased {
			// Fast-path grant released at commit: recredit the shard's
			// fast-free balance instead of the latched pool.
			r.fastLeased = false
			fastFreed += r.weight
			weightFreed += r.weight
		} else if r.handle.Structs() > 0 {
			poolFreed += s.pool.FreeBatched(r.handle)
			weightFreed += r.weight
			r.handle = memblock.Handle{}
		}
		if open {
			// The seal caught a live word, so its counts are exactly the
			// pre-release granted group (and r — a granted holder of such a
			// header — is a non-converting IS/S/IX grant represented in
			// them): settle the removal with O(1) word arithmetic instead
			// of an O(holders) chain recompute. Releasing a compatible
			// holder is never an invalidating transition, so the epoch
			// (and with it the word seq — wordSub preserves the seq
			// bits) bumps only when the settled word still carries IX
			// weight and thus is not S-token-admissible; an S/IS-only
			// settle leaves outstanding optimistic tokens standing.
			nw := wordSub(w&^wordFence, r.mode)
			if (nw>>wordNIXShift)&wordCntMask != 0 {
				e := h.epoch.Add(1)
				nw = nw&^(wordSeqMask<<wordSeqShift) | (e&wordSeqMask)<<wordSeqShift
			}
			h.groupMode = Mode((nw >> wordGMShift) & wordGMMask)
			h.word.Store(nw)
			continue
		}
		h.recomputeGroupMode()
		if h.published && len(h.converters) == 0 && len(h.waiters) == 0 {
			m.settleFast(s, h)
		} else {
			// One batch per visit and one request per name per owner, so
			// each header is appended at most once.
			d.hdrs = append(d.hdrs, h)
		}
	}
	d.poolFreed += poolFreed
	d.fastFreed += fastFreed
	// App quota settles here; chain and pool totals settle once per visit
	// in finishShardVisit.
	if weightFreed > 0 {
		o.app.structs.Add(-int64(weightFreed))
	}
	// Box recycling: live requests are fully unlinked (granted, so on no
	// queue the posting pass could reach) — recycle them before posting:
	// into the owner's cache when it is kept (c non-nil), else the shard's.
	for _, r := range live {
		if !r.recyclable || c != nil && c.pushBox(r.box) {
			continue
		}
		if c == nil && len(s.rfree) < boxFreelistCap {
			s.pushBox(r.box)
		} else if len(live) <= boxFreelistCap {
			// The cache is full: feed the box pool instead of the garbage
			// collector. Same ownership contract as pushBox; boxes enter
			// the pool zeroed. A scan's worth of boxes goes to the
			// collector instead: nothing draws that many, and a program
			// that allocates as little as the commit path now does
			// collects too rarely to empty the pool itself.
			b := r.box
			b.req = request{}
			b.pend.reset()
			m.fastBoxPool.Put(b)
		}
	}
	clear(live)
	b.live = live[:0]
}

// finishShardVisit completes a latched release visit after the batch has
// gone through releaseShardPhase1: settle the pooled frees and fast credit
// once, run the FIFO posting pass over the deferred headers (grant
// completions coalesce into the drain's wake list; emptied headers are
// evicted into the owner cache c when non-nil), and sync the table mirror
// once. Caller holds the shard latch and drops it right after; the wakes
// fire later, with no latches held (fireWakes).
func (m *Manager) finishShardVisit(s *shard, si int, c *ownerCache, d *releaseDrain) {
	// Settle accounting before posting: a grant fired by post reads the
	// app quota and chain usage, and must see the whole release.
	s.pool.SettleFree(d.poolFreed)
	if d.fastFreed > 0 {
		s.fastFree.Add(int64(d.fastFreed))
		s.pool.ReturnReserved(d.fastFreed)
	}
	evicted := false
	wakes0 := len(d.wakes)
	for _, h := range d.hdrs {
		m.post(s, h, d)
		evicted = s.cacheOrEvictDeferred(h, c) || evicted
		m.settleFast(s, h)
	}
	if evicted {
		s.syncTableMirror()
	}
	if n := len(d.wakes) - wakes0; n > 0 {
		m.wakesCoalesced.Shard(si).Add(int64(n))
	}
	d.hdrs = d.hdrs[:0]
	d.poolFreed, d.fastFreed = 0, 0
}

// wakeEntry is one deferred FIFO grant wakeup: the settled Pending to
// signal and/or the onGrant continuation to enqueue. The grant itself
// (install, accounting, inWait, the Pending's status) was applied under
// the latch; only the notification is deferred.
type wakeEntry struct {
	p *Pending
	c cont // the onGrant continuation, its owner already pinned
}

// releaseDrain accumulates the release walk's deferred work: the
// per-visit posting list and settle totals (reset by finishShardVisit),
// and the walk-wide wake list (fired by fireWakes once every latch is
// dropped). Owner scratch; the steady-state commit walk allocates nothing.
type releaseDrain struct {
	hdrs      []*lockHeader // deferred posting pass
	poolFreed int           // pooled frees awaiting one SettleFree
	fastFreed int           // fast credit awaiting one recredit
	wakes     []wakeEntry   // deferred grant completions, FIFO per header
}

// fireWakes delivers the walk's deferred grant wakeups — Pending signals
// and onGrant continuations — in the order post() granted them. Caller
// holds no latches.
func (m *Manager) fireWakes(d *releaseDrain) {
	for i := range d.wakes {
		e := &d.wakes[i]
		if e.p != nil {
			e.p.signal() // settled under the latch by grantDeferred
		}
		if e.c.fn != nil {
			m.enqueueCont(e.c)
		}
		d.wakes[i] = wakeEntry{}
	}
	d.wakes = d.wakes[:0]
}

// ReleaseBatches returns the total number of release batches applied
// across all shards (one per owner-visit). Lock-free.
func (m *Manager) ReleaseBatches() int64 { return m.relBatches.Total() }

// ReleaseBatchCounters exposes the per-shard release-batch counters for
// metrics wiring.
func (m *Manager) ReleaseBatchCounters() *metrics.ShardCounters { return m.relBatches }

// WakeupsCoalesced returns how many FIFO grant wakeups were deferred out
// of a latched release section and fired in a post-walk pass. Lock-free.
func (m *Manager) WakeupsCoalesced() int64 { return m.wakesCoalesced.Total() }

// WakeupsCoalescedCounters exposes the per-shard coalesced-wakeup counters
// for metrics wiring.
func (m *Manager) WakeupsCoalescedCounters() *metrics.ShardCounters { return m.wakesCoalesced }

// deadline computes the wait deadline for a new waiter.
func (m *Manager) deadline() time.Time {
	if m.cfg.LockTimeout <= 0 {
		return time.Time{}
	}
	return m.clk.Now().Add(m.cfg.LockTimeout)
}

// beginWait stamps a request entering a wait queue: the timeout deadline,
// the wait-start instant (manager clock, so simulated runs record
// deterministic wait durations), and the waits counter, after markWaiting.
// The caller holds the home shard latch and appends the request to the
// waiter/converter queue itself.
func (m *Manager) beginWait(req *request) {
	now := m.clk.Now()
	m.markWaiting(req, now)
	if m.cfg.LockTimeout > 0 {
		req.deadline = now.Add(m.cfg.LockTimeout)
	} else {
		req.deadline = time.Time{}
	}
	m.stats.waits.Add(1)
}

// markWaiting is what every wait shares, queued or parked: the armed
// Pending, and one inWait count even across re-waits (waitStart
// dedupes). A first wait runs inside the requester's own admission, so
// Acquire reads armed without a race. Caller holds the home shard latch.
func (m *Manager) markWaiting(req *request, now time.Time) {
	if p := req.pending; p != nil && p.wake != nil && !p.armed {
		p.armed = true
	}
	if req.waitStart.IsZero() {
		req.owner.inWait.Add(1)
	}
	req.waitStart = now
}

// endWait records a completed wait (grant or deny) into the lock-wait
// histogram, striped by the request's home shard, and drops the owner's
// inWait count. One branch on the no-wait fast path, one atomic add when a
// wait actually ended. For grants it runs after installGranted, so an
// owner observing inWait == 0 under its mutex sees every granted request
// already in its held index.
func (m *Manager) endWait(req *request) {
	if req.waitStart.IsZero() {
		return
	}
	d := m.clk.Now().Sub(req.waitStart)
	req.waitStart = time.Time{}
	si := m.shardOf(req.name)
	m.waitHist.RecordStripe(si, int64(d))
	// Blame the lock for the whole wait (manager clock — deterministic
	// under the simulated clock). Nil-safe no-op when the profiler is off.
	m.hot.Observe(si, req.name, int64(d), obs.HotWaitNs, int64(d))
	req.owner.inWait.Add(-1)
}

// SweepTimeouts denies waiting requests whose deadline has passed and
// returns how many were denied. The simulation calls this each tick; a
// real-time deployment calls it from a ticker goroutine. Each shard is
// swept independently.
func (m *Manager) SweepTimeouts() int {
	// The sweep doubles as the throttle's fairness valve (throttle.go),
	// so every pass numbers itself, timeouts or not.
	pass := m.sweepPass.Add(1)
	timeouts := m.cfg.LockTimeout > 0
	now := m.clk.Now()
	denied := 0
	for i := range m.shards {
		// Idle-shard skip: the nWaiting mirror is published on every
		// wait-queue membership change, so a zero means the shard had no
		// waiters at some instant between the previous sweep and this one
		// — exactly the fuzziness a periodic sweep already tolerates. The
		// latch is never taken; an idle lock table sweeps with zero latch
		// acquisitions. With timeouts off, a shard whose ceiling is
		// disengaged has no valve work either.
		c := int(m.shards[i].throtCeil.Load())
		if m.shards[i].nWaiting.Load() == 0 || (!timeouts && c == 0) {
			continue
		}
		s := m.lockShard(i)
		var victims []*request
		for req := s.waitHead; req != nil; req = req.wnext {
			if timeouts && !req.deadline.IsZero() && now.After(req.deadline) {
				victims = append(victims, req)
			}
			// Each queue has one head, and the valve only moves waiters
			// past index c ≥ 1, so the head visits its header once a pass.
			if c > 0 && !req.parked && !req.converting && req.header.waiters[0] == req {
				promoteStale(req.header, c, pass)
			}
		}
		for _, req := range victims {
			// An earlier denial's queue post may have granted this one.
			if req.pending == nil {
				continue
			}
			if st, _ := req.pending.Status(); st != StatusWaiting {
				continue
			}
			m.stats.timeouts.Add(1)
			if m.cfg.Events != nil {
				m.cfg.Events.OnTimeout(req.owner.app.id)
			}
			m.deny(req, ErrTimeout)
			denied++
		}
		m.unlockShard(s)
	}
	m.flushConts()
	return denied
}

// Resize grows or shrinks the lock memory toward targetPages. Growth is
// exact (whole blocks); shrinking is best-effort, limited to entirely free
// blocks, per the section 2.2 protocol — shard leases are flushed first so
// idle pool reservations never pin blocks against the tuner. It returns the
// new size in pages.
func (m *Manager) Resize(targetPages int) int {
	cur := m.chain.Pages()
	switch {
	case targetPages > cur:
		m.chain.Grow(targetPages - cur)
	case targetPages < cur:
		// Flush each shard's lease under its latch, then shrink. Idle fast
		// credit is drained first (the Swap is safe against concurrent fast
		// ops — a racing CAS observes zero and falls back to the latched
		// path). A pool may re-lease between its flush and the shrink;
		// ShrinkBest is best-effort either way.
		for i := range m.shards {
			s := m.lockShard(i)
			m.drainFastCredit(s)
			s.pool.Flush()
			m.unlockShard(s)
		}
		m.chain.ShrinkBest(cur - targetPages)
	}
	m.invalidateQuotaCache()
	return m.chain.Pages()
}

// GrowPages grows the lock memory by exactly the given pages (rounded up to
// blocks); used when synchronous growth is managed externally.
func (m *Manager) GrowPages(pages int) int {
	n := m.chain.Grow(pages)
	m.invalidateQuotaCache()
	return n
}

// Pages returns the current lock memory size in pages. Lock-free.
func (m *Manager) Pages() int { return m.chain.Pages() }

// UsedStructs returns the lock structures in use. Lock-free; structures
// leased to shard pools but not serving a request count as free.
func (m *Manager) UsedStructs() int { return m.chain.Used() }

// CapacityStructs returns the lock structures the allocation can hold.
// Lock-free.
func (m *Manager) CapacityStructs() int { return m.chain.Capacity() }

// FreeStructs returns the lock structures not serving a request, including
// those leased to shard pools. UsedStructs + FreeStructs ==
// CapacityStructs holds at all times. Lock-free.
func (m *Manager) FreeStructs() int { return m.chain.FreeStructs() }

// FreeFraction returns the fraction of lock structures that are free.
// Lock-free.
func (m *Manager) FreeFraction() float64 { return m.chain.FreeFraction() }

// StructRequests returns the cumulative lock-structure request count.
// Lock-free.
func (m *Manager) StructRequests() int64 { return m.chain.Requests() }

// UsedPages returns lock-structure usage in whole pages. Lock-free.
func (m *Manager) UsedPages() int { return m.chain.UsedPages() }

// AppStructs returns the lock structures currently held by an application.
// Lock-free.
func (m *Manager) AppStructs(a *App) int {
	return int(a.structs.Load())
}

// Stats returns a snapshot of the event counters. Lock-free: the snapshot
// is not a single atomic cut across counters, which monitoring tolerates.
func (m *Manager) Stats() Stats {
	return Stats{
		Grants:               m.grants.Total(),
		Waits:                m.stats.waits.Load(),
		Timeouts:             m.stats.timeouts.Load(),
		Deadlocks:            m.stats.deadlocks.Load(),
		Escalations:          m.stats.escalations.Load(),
		ExclusiveEscalations: m.stats.exclusiveEscalations.Load(),
		MemoryDenials:        m.stats.memoryDenials.Load(),
		QuotaDenials:         m.stats.quotaDenials.Load(),
		SyncGrowths:          m.stats.syncGrowths.Load(),
		SyncGrowthPages:      m.stats.syncGrowthPages.Load(),
	}
}

// HeldMode returns the mode the owner currently holds on name, or ModeNone.
func (m *Manager) HeldMode(o *Owner, name Name) Mode {
	hash := hashName(name)
	s := m.lockShard(int(hash & m.shardMask))
	defer m.unlockShard(s)
	o.mu.Lock()
	req, ok := o.heldGet(hash, name)
	o.mu.Unlock()
	if ok && req.granted {
		return req.mode
	}
	return ModeNone
}

// NumShards returns the number of lock-table shards.
func (m *Manager) NumShards() int { return len(m.shards) }

// ShardOf returns the index of the shard that homes name. Workload
// generators and benchmarks use it to build shard-targeted access patterns
// (e.g. a commit storm confined to a few hot shards); it takes no latches.
func (m *Manager) ShardOf(name Name) int { return m.shardOf(name) }

// LatchWaits returns the total number of contended shard-latch
// acquisitions — the direct measure of lock-table latch contention the
// striping is meant to eliminate. Lock-free.
func (m *Manager) LatchWaits() int64 { return m.latchWaits.Total() }

// LatchWaitCounters exposes the per-shard latch-wait counters for metrics
// wiring.
func (m *Manager) LatchWaitCounters() *metrics.ShardCounters { return m.latchWaits }

// LatchAcquisitions returns the total number of shard-latch acquisitions,
// contended or not. Together with a commit counter it proves the release
// path's latch cost: the full-sweep ReleaseAll paid 3×shards latches per
// commit; the touched-shard walk pays one per shard actually holding the
// owner's locks. Lock-free.
func (m *Manager) LatchAcquisitions() int64 { return m.latchAcqs.Total() }

// LatchAcqCounters exposes the per-shard latch-acquisition counters for
// metrics wiring.
func (m *Manager) LatchAcqCounters() *metrics.ShardCounters { return m.latchAcqs }

// WaitHist returns the lock-wait latency histogram. Durations are measured
// on the manager's clock — deterministic whole-tick values under the
// simulated clock, wall time in real deployments — and every completed
// wait is recorded (no sampling). Lock-free.
func (m *Manager) WaitHist() *obs.Histogram { return m.waitHist }

// HoldHist returns the lock hold-time histogram (wall clock, sampled at
// Config.ObsSampleStride). Lock-free.
func (m *Manager) HoldHist() *obs.Histogram { return m.holdHist }

// AdmissionHist returns the AcquireAsync end-to-end latency histogram
// (wall clock, sampled at Config.ObsSampleStride): latch acquisition,
// admission pipeline, and continuation flush. Lock-free.
func (m *Manager) AdmissionHist() *obs.Histogram { return m.admitHist }

// ReleaseHist returns the ReleaseAll (commit release) latency histogram.
// Durations are measured on the manager's clock — deterministic whole-tick
// values under the simulated clock, wall time in real deployments — and
// every first ReleaseAll per owner is recorded (no sampling; double
// releases are no-ops and not recorded). Lock-free.
func (m *Manager) ReleaseHist() *obs.Histogram { return m.releaseHist }

// ShardStats is a point-in-time view of one lock-table shard.
type ShardStats struct {
	// LatchWaits is the number of contended latch acquisitions.
	LatchWaits int64
	// LeaseRefills is the number of lease batches taken from the chain.
	LeaseRefills int64
	// LeaseReturns is the number of lease batches given back.
	LeaseReturns int64
	// PooledStructs is the shard's current idle lease balance.
	PooledStructs int
	// Locks is the number of lock headers in the shard.
	Locks int
	// Waiting is the number of requests waiting in the shard.
	Waiting int
	// Seq is the shard's summary sequence number at sampling time: it
	// advances on every lock-table or wait-queue membership change, so two
	// snapshots with equal Seq saw the shard in the same membership state.
	Seq uint64
}

// ShardStatsSnapshot captures each shard's summary counters. It is entirely
// latch-free: every field is an atomic counter or an atomically published
// mirror (nLocks/nWaiting/pooled), stamped with the shard's sequence number.
// A row whose Seq matches a later read's Seq saw no membership change in
// between; the data path is never stalled to take the picture.
func (m *Manager) ShardStatsSnapshot() []ShardStats {
	out := make([]ShardStats, len(m.shards))
	for i := range m.shards {
		s := &m.shards[i]
		out[i] = ShardStats{
			LatchWaits:    m.latchWaits.Shard(i).Value(),
			LeaseRefills:  s.pool.Refills(),
			LeaseReturns:  s.pool.Returns(),
			PooledStructs: s.pool.Pooled(),
			Locks:         int(s.nLocks.Load()),
			Waiting:       int(s.nWaiting.Load()),
			Seq:           s.seq.Load(),
		}
	}
	return out
}

// LeaseRefills returns the cumulative number of lease batches shards have
// taken from the chain; with LeaseReturns it measures how often the chain
// mutex appears on the data path.
func (m *Manager) LeaseRefills() int64 {
	var n int64
	for i := range m.shards {
		n += m.shards[i].pool.Refills()
	}
	return n
}

// LeaseReturns returns the cumulative number of lease batches given back to
// the chain.
func (m *Manager) LeaseReturns() int64 {
	var n int64
	for i := range m.shards {
		n += m.shards[i].pool.Returns()
	}
	return n
}
