// Package engine binds the substrates — shared memory set, buffer pool,
// sort heap, lock manager, transaction manager, STMM controller — into a
// Database facade with connections, mirroring how the pieces compose inside
// DB2 9.
//
// Three lock-memory policies are selectable, matching the paper's section
// 2.3 comparison:
//
//   - PolicyAdaptive — the paper's contribution: STMM self-tuning lock
//     memory with synchronous overflow growth and the adaptive
//     lockPercentPerApplication curve;
//   - PolicyStatic — a fixed LOCKLIST and fixed MAXLOCKS (default 10%), the
//     pre-DB2 9 configuration used for the Figure 7/8 catastrophe;
//   - PolicySQLServer — the SQL Server 2005 model: grow-only lock memory up
//     to 60% of database memory, escalation at 40% used or 5000 locks per
//     application, no shrink.
//
// (The Oracle on-page model has no lock memory to tune and lives in
// internal/baseline as its own structure.)
package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/bufferpool"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lockmgr"
	"repro/internal/memblock"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/sortheap"
	"repro/internal/stmm"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/txn"
)

// Policy selects the lock-memory management policy.
type Policy int

const (
	// PolicyAdaptive is DB2 9 self-tuning lock memory (the paper).
	PolicyAdaptive Policy = iota
	// PolicyStatic is a fixed LOCKLIST + fixed MAXLOCKS.
	PolicyStatic
	// PolicySQLServer is the SQL Server 2005 model of section 2.3.
	PolicySQLServer
)

func (p Policy) String() string {
	switch p {
	case PolicyAdaptive:
		return "adaptive"
	case PolicyStatic:
		return "static"
	case PolicySQLServer:
		return "sqlserver"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// EscalationBiasPercent is the quota applied to applications that opted in
// to "prefer escalation" (the section 6.1 future-work policy): their lock
// usage escalates early instead of growing lock memory.
const EscalationBiasPercent = 2.0

// Config configures a Database. Zero values get sensible defaults.
type Config struct {
	// DatabasePages is databaseMemory in 4 KB pages (default 131072 =
	// 512 MB; the paper's experiments use 1,340,000 ≈ 5.11 GB).
	DatabasePages int
	// OverflowGoalFrac is the overflow area goal as a fraction of
	// database memory (default 0.10, as in the Figure 6 example).
	OverflowGoalFrac float64
	// InitialLockPages is the starting LOCKLIST (rounded up to whole
	// 128 KB blocks; default = the algorithm's 2 MB minimum).
	InitialLockPages int
	// BufferPoolFrac and SortHeapFrac set the initial PMC sizes as
	// fractions of database memory (defaults 0.60 and 0.10).
	BufferPoolFrac, SortHeapFrac float64
	// Params are the Table 1 parameters (zero → DefaultParams).
	Params core.Params
	// Policy selects the lock-memory policy (default PolicyAdaptive).
	Policy Policy
	// StaticQuotaPct is MAXLOCKS under PolicyStatic (default 10, the
	// previous DB2 default the paper cites).
	StaticQuotaPct float64
	// Clock drives timeouts and is shared with the simulation (nil →
	// wall clock).
	Clock clock.Clock
	// LockTimeout bounds lock waits (0 = disabled).
	LockTimeout time.Duration
	// TuningInterval is the STMM interval (default 30 s; informational —
	// the driver calls TuneOnce).
	TuningInterval time.Duration
	// Catalog is the table catalog (nil → storage.CombinedTPCCTPCH).
	Catalog *storage.Catalog
	// CompilerLearning enables the section 6.1 learning extension in the
	// plan-choice stub.
	CompilerLearning bool
	// LockShards overrides the lock-table shard count (0 = the lock
	// manager's GOMAXPROCS-derived default). Tests that need
	// machine-independent output pin it.
	LockShards int
	// ObsSampleStride is the wall-clock sampling stride for admission and
	// hold-time histograms (0 = default 64, negative = disabled); see
	// lockmgr.Config.ObsSampleStride.
	ObsSampleStride int
	// ProfileDisabled switches the lock manager's contention profiler
	// (hot-lock sketch, flight recorder, latch profile) off; see
	// lockmgr.Config.ProfileDisabled.
	ProfileDisabled bool
	// Throttle configures the admission throttle's queue order; see
	// lockmgr.Config.Throttle (0 = adaptive ceilings retuned on the STMM
	// cadence, >0 = fixed ceiling, <0 = disabled: plain FIFO queues).
	Throttle int
}

func (c *Config) fillDefaults() {
	if c.DatabasePages == 0 {
		c.DatabasePages = 131072
	}
	if c.OverflowGoalFrac == 0 {
		c.OverflowGoalFrac = 0.10
	}
	if c.BufferPoolFrac == 0 {
		c.BufferPoolFrac = 0.60
	}
	if c.SortHeapFrac == 0 {
		c.SortHeapFrac = 0.10
	}
	if c.Params == (core.Params{}) {
		c.Params = core.DefaultParams()
	}
	if c.InitialLockPages == 0 {
		c.InitialLockPages = c.Params.MinLockPages(0)
	}
	c.InitialLockPages = roundUpBlocks(c.InitialLockPages)
	if c.StaticQuotaPct == 0 {
		c.StaticQuotaPct = 10
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.TuningInterval == 0 {
		c.TuningInterval = 30 * time.Second
	}
	if c.Catalog == nil {
		c.Catalog = storage.CombinedTPCCTPCH()
	}
}

func roundUpBlocks(pages int) int {
	if pages <= 0 {
		return 0
	}
	return (pages + memblock.BlockPages - 1) / memblock.BlockPages * memblock.BlockPages
}

// Database is the assembled engine.
type Database struct {
	cfg Config

	set      *memory.Set
	lockHeap *memory.Heap
	bpHeap   *memory.Heap
	sortHeap *memory.Heap

	pool  *bufferpool.Pool
	sorts *sortheap.Heap
	locks *lockmgr.Manager
	txns  *txn.Manager

	ctl    *stmm.Controller          // PolicyAdaptive only
	sqlsrv *baseline.SQLServerPolicy // PolicySQLServer only
	quota  *biasedQuota
	comp   *Compiler
	events *trace.Ring

	decis    *obs.DecisionLog // tuning decisions (adaptive policy)
	tuneHist *obs.Histogram   // TuneOnce wall-clock duration
	ticks    atomic.Int64     // Tick() count, drives hot-lock decay epochs
}

// Open builds a Database from cfg.
func Open(cfg Config) (*Database, error) {
	cfg.fillDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}

	set := memory.NewSet(cfg.DatabasePages, int(cfg.OverflowGoalFrac*float64(cfg.DatabasePages)))
	bpPages := int(cfg.BufferPoolFrac * float64(cfg.DatabasePages))
	sortPages := int(cfg.SortHeapFrac * float64(cfg.DatabasePages))

	bpHeap, err := set.Register("bufferpool", bpPages, 1024, 0)
	if err != nil {
		return nil, err
	}
	sortHeap, err := set.Register("sortheap", sortPages, 256, 0)
	if err != nil {
		return nil, err
	}
	lockHeap, err := set.Register("locklist", cfg.InitialLockPages, 0, 0)
	if err != nil {
		return nil, err
	}

	db := &Database{
		cfg:      cfg,
		set:      set,
		lockHeap: lockHeap,
		bpHeap:   bpHeap,
		sortHeap: sortHeap,
		pool:     bufferpool.New(bpPages),
		sorts:    sortheap.New(sortPages),
		events:   trace.NewRing(512),
		decis:    obs.NewDecisionLog(512),
		tuneHist: obs.NewHistogram("tuning_pass", "ns", 1),
	}

	lockCfg := lockmgr.Config{
		InitialPages:    cfg.InitialLockPages,
		Clock:           cfg.Clock,
		LockTimeout:     cfg.LockTimeout,
		Events:          (*eventForwarder)(db),
		Shards:          cfg.LockShards,
		ObsSampleStride: cfg.ObsSampleStride,
		ProfileDisabled: cfg.ProfileDisabled,
		Throttle:        cfg.Throttle,
	}

	switch cfg.Policy {
	case PolicyAdaptive:
		db.ctl = stmm.New(stmm.Config{
			Set:      set,
			LockHeap: lockHeap,
			Params:   cfg.Params,
			Interval: cfg.TuningInterval,
		})
		db.ctl.SetDecisionLog(db.decis, cfg.Clock)
		db.quota = &biasedQuota{inner: db.ctl}
		lockCfg.GrowSync = db.ctl.SyncGrow
		lockCfg.Quota = db.quota
	case PolicyStatic:
		db.quota = &biasedQuota{inner: fixedQuota(cfg.StaticQuotaPct)}
		lockCfg.Quota = db.quota
		// No GrowSync: the LOCKLIST is fixed.
	case PolicySQLServer:
		db.sqlsrv = baseline.NewSQLServerPolicy(cfg.DatabasePages)
		db.quota = &biasedQuota{inner: db.sqlsrv}
		lockCfg.Quota = db.quota
		lockCfg.GrowSync = db.sqlServerGrow
	default:
		return nil, fmt.Errorf("engine: unknown policy %v", cfg.Policy)
	}

	db.locks = lockmgr.New(lockCfg)
	db.locks.SetThrottleDecisionLog(db.decis)
	db.txns = txn.NewManager(db.locks)

	if db.ctl != nil {
		db.ctl.BindLock(db.locks)
		db.ctl.BindEscalations(func() int64 { return db.locks.Stats().Escalations })
		db.ctl.BindThrottle(db.locks)
		db.ctl.RegisterPMC(bpHeap, db.pool)
		db.ctl.RegisterPMC(sortHeap, db.sorts)
		db.comp = NewCompiler(db.ctl.CompilerLockPages(), cfg.CompilerLearning)
	} else {
		// Non-adaptive policies expose the same 10% view for plan
		// stability comparisons.
		db.comp = NewCompiler(cfg.Params.CompilerLockPages(cfg.DatabasePages), cfg.CompilerLearning)
	}
	if db.sqlsrv != nil {
		db.sqlsrv.Bind(db.locks)
	}
	live.Store(db)
	return db, nil
}

// sqlServerGrow funds SQL Server's grow-only lock memory from overflow,
// then from the buffer pool, honouring the 60% ceiling.
func (db *Database) sqlServerGrow(needPages int) int {
	allowed := db.sqlsrv.GrowSync(needPages)
	if allowed <= 0 {
		return 0
	}
	got := db.set.GrowUpTo(db.lockHeap, allowed)
	if got < allowed {
		moved := db.set.Transfer(db.bpHeap, db.lockHeap, allowed-got)
		if moved > 0 {
			db.pool.ApplySize(db.bpHeap.Pages())
			got += moved
		}
	}
	if rem := got % memblock.BlockPages; rem != 0 {
		got -= db.set.Shrink(db.lockHeap, rem)
	}
	return got
}

// fixedQuota is the static MAXLOCKS provider.
type fixedQuota float64

func (q fixedQuota) QuotaPercent(int, int64, int) float64 { return float64(q) }

// biasedQuota layers the section 6.1 escalation-preference policy over the
// base provider: opted-in applications get a tiny quota so their heavy lock
// use escalates early instead of inflating lock memory.
type biasedQuota struct {
	inner  lockmgr.QuotaProvider
	prefer syncSet
}

// PrefersEscalation implements lockmgr.EscalationPreferrer so the lock
// manager escalates opted-in applications instead of growing lock memory to
// cover them.
func (b *biasedQuota) PrefersEscalation(appID int) bool { return b.prefer.has(appID) }

func (b *biasedQuota) QuotaPercent(appID int, requests int64, used int) float64 {
	v := 100.0
	if b.inner != nil {
		v = b.inner.QuotaPercent(appID, requests, used)
	}
	if b.prefer.has(appID) && v > EscalationBiasPercent {
		v = EscalationBiasPercent
	}
	return v
}

// Conn is a database connection (one application).
type Conn struct {
	db     *Database
	app    *lockmgr.App
	prefer bool
}

// ConnOption customizes Connect.
type ConnOption func(*Conn)

// WithPreferEscalation opts this connection into the escalation-preferred
// policy: its transactions escalate at EscalationBiasPercent of lock memory
// rather than driving lock-memory growth.
func WithPreferEscalation() ConnOption {
	return func(c *Conn) { c.prefer = true }
}

// Connect registers a new application connection.
func (db *Database) Connect(opts ...ConnOption) *Conn {
	c := &Conn{db: db}
	for _, o := range opts {
		o(c)
	}
	c.app = db.locks.RegisterApp()
	if c.prefer {
		db.quota.prefer.add(c.app.ID())
	}
	return c
}

// Close disconnects the application. All of its transactions must have
// finished.
func (c *Conn) Close() error {
	c.db.quota.prefer.remove(c.app.ID())
	return c.db.locks.UnregisterApp(c.app)
}

// App returns the underlying lock-manager application.
func (c *Conn) App() *lockmgr.App { return c.app }

// Begin starts a transaction on this connection.
func (c *Conn) Begin() *txn.Txn { return c.db.txns.Begin(c.app) }

// Locks returns the lock manager.
func (db *Database) Locks() *lockmgr.Manager { return db.locks }

// Txns returns the transaction manager.
func (db *Database) Txns() *txn.Manager { return db.txns }

// Pool returns the buffer pool.
func (db *Database) Pool() *bufferpool.Pool { return db.pool }

// Sorts returns the sort heap.
func (db *Database) Sorts() *sortheap.Heap { return db.sorts }

// Set returns the shared memory set.
func (db *Database) Set() *memory.Set { return db.set }

// Catalog returns the table catalog.
func (db *Database) Catalog() *storage.Catalog { return db.cfg.Catalog }

// Controller returns the STMM controller, or nil for non-adaptive policies.
func (db *Database) Controller() *stmm.Controller { return db.ctl }

// Compiler returns the plan-choice stub.
func (db *Database) Compiler() *Compiler { return db.comp }

// Policy returns the configured lock-memory policy.
func (db *Database) Policy() Policy { return db.cfg.Policy }

// TouchRow simulates reading the data page of (table, row) through the
// buffer pool and reports whether it was a cache hit.
func (db *Database) TouchRow(t *storage.Table, row uint64) bool { return db.touch(0, t, row) }

// touch is TouchRow by the session whose application id is w, which the
// pool counts a hit under.
func (db *Database) touch(w int, t *storage.Table, row uint64) bool {
	return db.pool.AccessBy(w, t.PageOf(row))
}

// TuneOnce runs one STMM pass. The second result is false for policies
// without asynchronous tuning (static, SQL Server).
func (db *Database) TuneOnce() (stmm.Report, bool) {
	if db.ctl == nil {
		return stmm.Report{}, false
	}
	t0 := time.Now()
	rep := db.ctl.TuneOnce()
	db.tuneHist.Record(time.Since(t0).Nanoseconds())
	db.events.Add(trace.Event{
		Time: db.cfg.Clock.Now(),
		Kind: trace.KindTuningPass,
		Detail: fmt.Sprintf("%s %d→%d pages (quota %.1f%%): %s",
			rep.Decision.Action, rep.LockPagesBefore, rep.LockPagesAfter,
			rep.QuotaPercent, rep.Decision.Reason),
	})
	return rep, true
}

// Events returns the diagnostic event ring.
func (db *Database) Events() *trace.Ring { return db.events }

// Decisions returns the tuning-decision log. It is always non-nil;
// non-adaptive policies simply never add to it.
func (db *Database) Decisions() *obs.DecisionLog { return db.decis }

// TuneHist returns the TuneOnce wall-clock duration histogram.
func (db *Database) TuneHist() *obs.Histogram { return db.tuneHist }

// eventForwarder adapts the Database to lockmgr.EventSink. The sink methods
// run under the lock manager latch, so they only append to the ring.
type eventForwarder Database

func (f *eventForwarder) add(kind trace.Kind, appID int, detail string) {
	f.events.Add(trace.Event{Time: f.cfg.Clock.Now(), Kind: kind, AppID: appID, Detail: detail})
}

func (f *eventForwarder) OnEscalation(appID int, table uint32, to lockmgr.Mode) {
	f.add(trace.KindEscalation, appID, fmt.Sprintf("table %d escalated to %s", table, to))
}

func (f *eventForwarder) OnDeadlockVictim(appID int, ownerID uint64) {
	f.add(trace.KindDeadlock, appID, fmt.Sprintf("txn %d chosen as victim", ownerID))
}

func (f *eventForwarder) OnTimeout(appID int) {
	f.add(trace.KindTimeout, appID, "lock wait timed out")
}

func (f *eventForwarder) OnSyncGrowth(pages int) {
	f.add(trace.KindSyncGrowth, 0, fmt.Sprintf("+%d pages from overflow memory", pages))
}

func (f *eventForwarder) OnDenial(appID int, reason error) {
	kind := trace.KindMemoryDenial
	if reason == lockmgr.ErrQuotaExceeded {
		kind = trace.KindQuotaDenial
	}
	f.add(kind, appID, reason.Error())
}

// hotDecayEvery is the hot-lock decay epoch in ticks: every 64 ticks the
// contention profiler halves its blame scores, aging past storms out of
// the /debug/hotlocks ranking.
const hotDecayEvery = 64

// Tick performs the per-tick maintenance a real engine would run on
// background threads: lock wait timeouts, deadlock detection, and the
// contention profiler's decay epoch.
func (db *Database) Tick() {
	db.locks.SweepTimeouts()
	db.locks.DetectDeadlocks()
	if db.ticks.Add(1)%hotDecayEvery == 0 {
		db.locks.DecayHotLocks()
	}
}

// Snapshot is a point-in-time view of the engine for metrics capture.
type Snapshot struct {
	LockPages       int
	UsedStructs     int
	CapacityStructs int
	FreeFraction    float64
	LockStats       lockmgr.Stats
	LockLatchWaits  int64
	// LockGlobalRuns counts all-shard latch acquisitions by the lock
	// manager's control plane; LockGlobalHoldMax is the longest any single
	// one froze the fast path (wall clock). Together they bound the stall
	// the control plane has ever caused — in steady state neither should
	// advance between snapshots.
	LockGlobalRuns    int64
	LockGlobalHoldMax time.Duration
	// LockFastPathHits counts grants admitted without the shard latch
	// (grant-word CAS + owner-local re-acquire cache); LockFastPathFallbacks
	// counts acquisitions that took the latched admission path. Together
	// they partition all acquisitions; the hit ratio is the latch-free
	// admission rate.
	LockFastPathHits      int64
	LockFastPathFallbacks int64
	// LockOptimisticHits counts zero-CAS optimistic read tokens issued;
	// LockOptimisticFailures counts tokens refuted at validation (a
	// writer, fence, or settle-seq wrap landed inside the read window).
	// Optimistic hits ride above the fast-path partition: hits +
	// fast-path hits + fallbacks covers every admission attempt.
	LockOptimisticHits     int64
	LockOptimisticFailures int64
	// LockReleaseBatches counts release batches applied by the commit walk
	// (one per owner-visit to a shard). LockWakeupsCoalesced counts FIFO
	// grant wakeups deferred out of a latched release section and fired in
	// a post-walk pass.
	LockReleaseBatches   int64
	LockWakeupsCoalesced int64
	// LockThrottleCulled counts waiters the admission throttle queued
	// behind a ceiling, newest-first. LockThrottleCeiling is the highest
	// engaged per-shard ceiling (0 = fully disengaged).
	LockThrottleCulled  int64
	LockThrottleCeiling int
	QuotaPercent        float64
	Overflow            int
	OverflowGoal        int
	BufferPoolPages     int
	SortHeapPages       int
	Commits, Aborts     int64
	ActiveTxns          int
	NumApps             int
	LMOC                int
}

// Snapshot captures the current engine state.
func (db *Database) Snapshot() Snapshot {
	mem := db.set.Snapshot()
	commits, aborts, active := db.txns.Stats()
	s := Snapshot{
		LockPages:              db.locks.Pages(),
		UsedStructs:            db.locks.UsedStructs(),
		CapacityStructs:        db.locks.CapacityStructs(),
		FreeFraction:           db.locks.FreeFraction(),
		LockStats:              db.locks.Stats(),
		LockLatchWaits:         db.locks.LatchWaits(),
		LockGlobalRuns:         db.locks.GlobalRuns(),
		LockGlobalHoldMax:      db.locks.GlobalHoldMax(),
		LockFastPathHits:       db.locks.FastPathHits(),
		LockFastPathFallbacks:  db.locks.FastPathFallbacks(),
		LockOptimisticHits:     db.locks.OptimisticHits(),
		LockOptimisticFailures: db.locks.OptimisticFailures(),
		LockReleaseBatches:     db.locks.ReleaseBatches(),
		LockWakeupsCoalesced:   db.locks.WakeupsCoalesced(),
		LockThrottleCulled:     db.locks.ThrottleCulled(),
		LockThrottleCeiling:    db.locks.ThrottleCeilingMax(),
		Overflow:               mem.Overflow,
		OverflowGoal:           mem.OverflowGoal,
		BufferPoolPages:        mem.HeapPages["bufferpool"],
		SortHeapPages:          mem.HeapPages["sortheap"],
		Commits:                commits,
		Aborts:                 aborts,
		ActiveTxns:             active,
		NumApps:                db.locks.NumApps(),
	}
	if db.ctl != nil {
		s.QuotaPercent = db.ctl.CurrentQuota()
		s.LMOC = db.ctl.LMOC()
	} else {
		s.QuotaPercent = db.quota.QuotaPercent(0, db.locks.StructRequests(), db.locks.UsedStructs())
		s.LMOC = db.locks.Pages()
	}
	return s
}

// SelfCheck verifies cross-component consistency: the lock table's internal
// invariants, page conservation across the memory set, and agreement
// between the lock heap and the block chain. Long-running simulations call
// it at tuning intervals; it returns the first violation found.
func (db *Database) SelfCheck() error {
	if err := db.locks.CheckInvariants(); err != nil {
		return err
	}
	if err := db.set.CheckConservation(); err != nil {
		return err
	}
	if hp, cp := db.lockHeap.Pages(), db.locks.Pages(); hp != cp {
		return fmt.Errorf("engine: lock heap %d pages != chain %d pages", hp, cp)
	}
	return nil
}
