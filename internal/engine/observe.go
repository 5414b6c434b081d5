// observe.go is the engine's exposition wiring: it flattens a Database
// into the Prometheus text format and adapts the debug endpoints'
// callbacks onto the live engine objects (lock-table dump, event ring,
// tuning-decision log). The obs package knows formats and transports;
// this file knows what an engine is.

package engine

import (
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/trace"
)

// live is the most recently opened Database, for process-wide exposition
// (the CLIs open exactly one engine; the HTTP mux fetches it per request
// so a restart inside the process is picked up automatically).
var live atomic.Pointer[Database]

// Live returns the most recently opened Database (nil before any Open).
func Live() *Database { return live.Load() }

// queryEvents applies a /debug/events query (kind filter, then recency
// limit) to the ring's retained window.
func queryEvents(r *trace.Ring, q obs.EventQuery) []trace.Event {
	evs := trace.Filter(r.Events(), q.Kind)
	if q.Last > 0 && len(evs) > q.Last {
		evs = evs[len(evs)-q.Last:]
	}
	return evs
}

// Handlers adapts this Database to the obs HTTP surface.
func (db *Database) Handlers() obs.Handlers {
	return obs.Handlers{
		Metrics:  db.WriteMetrics,
		Locks:    func() any { return db.locks.DumpLocks() },
		Events:   func(q obs.EventQuery) any { return queryEvents(db.events, q) },
		Tuner:    func(q obs.TunerQuery) any { return db.decis.Query(q.Kind, q.N) },
		Hotlocks: func(n int) any { return db.locks.HotLocks(n) },
		Waiters:  func() any { return db.locks.DumpWaiters() },
		Flight:   func(q obs.FlightQuery) any { return db.locks.FlightEvents(q.Shard, q.Last) },
	}
}

// LiveHandlers returns handlers that resolve the live Database on every
// request: the mux can be built before the engine is opened, and survives
// the engine being reopened. With no live database, /metrics emits only a
// liveness gauge and the debug endpoints return empty results.
func LiveHandlers() obs.Handlers {
	return obs.Handlers{
		Metrics: func(m *obs.MetricWriter) {
			db := Live()
			if db == nil {
				m.Gauge("lockmem_up", "1 when a database is open", 0)
				return
			}
			db.WriteMetrics(m)
		},
		Locks: func() any {
			if db := Live(); db != nil {
				return db.locks.DumpLocks()
			}
			return nil
		},
		Events: func(q obs.EventQuery) any {
			if db := Live(); db != nil {
				return queryEvents(db.events, q)
			}
			return nil
		},
		Tuner: func(q obs.TunerQuery) any {
			if db := Live(); db != nil {
				return db.decis.Query(q.Kind, q.N)
			}
			return nil
		},
		Hotlocks: func(n int) any {
			if db := Live(); db != nil {
				return db.locks.HotLocks(n)
			}
			return nil
		},
		Waiters: func() any {
			if db := Live(); db != nil {
				return db.locks.DumpWaiters()
			}
			return nil
		},
		Flight: func(q obs.FlightQuery) any {
			if db := Live(); db != nil {
				return db.locks.FlightEvents(q.Shard, q.Last)
			}
			return nil
		},
	}
}

// kindTotalsToStrings re-keys trace per-kind totals for exposition.
func kindTotalsToStrings(in map[trace.Kind]int64) map[string]int64 {
	out := make(map[string]int64, len(in))
	for k, v := range in {
		out[k.String()] = v
	}
	return out
}

// WriteMetrics renders the full engine state in the Prometheus text
// exposition format. Everything it reads is latch-free (atomic counters,
// striped histograms, sequence-stamped mirrors), so scraping never stalls
// the lock-manager fast path.
func (db *Database) WriteMetrics(m *obs.MetricWriter) {
	m.Gauge("lockmem_up", "1 when a database is open", 1)

	snap := db.Snapshot()
	st := snap.LockStats

	// Lock-manager activity counters.
	m.Counter("lockmem_grants_total", "lock requests granted", st.Grants)
	m.Counter("lockmem_waits_total", "lock requests that waited", st.Waits)
	m.Counter("lockmem_timeouts_total", "lock waits denied by timeout", st.Timeouts)
	m.Counter("lockmem_deadlocks_total", "deadlock victims denied", st.Deadlocks)
	m.Counter("lockmem_escalations_total", "lock escalations", st.Escalations)
	m.Counter("lockmem_exclusive_escalations_total", "escalations to X table locks", st.ExclusiveEscalations)
	m.Counter("lockmem_memory_denials_total", "requests denied for lock memory", st.MemoryDenials)
	m.Counter("lockmem_quota_denials_total", "requests denied by per-app quota", st.QuotaDenials)
	m.Counter("lockmem_sync_growths_total", "synchronous overflow growths", st.SyncGrowths)
	m.Counter("lockmem_sync_growth_pages_total", "pages granted synchronously from overflow", st.SyncGrowthPages)
	m.Counter("lockmem_commits_total", "transactions committed", snap.Commits)
	m.Counter("lockmem_aborts_total", "transactions aborted", snap.Aborts)

	// Memory-state gauges (pages are 4 KB).
	m.Gauge("lockmem_database_pages", "databaseMemory size", float64(db.cfg.DatabasePages))
	m.Gauge("lockmem_lock_pages", "current LOCKLIST allocation", float64(snap.LockPages))
	m.Gauge("lockmem_lock_structs_used", "lock structures in use", float64(snap.UsedStructs))
	m.Gauge("lockmem_lock_structs_capacity", "lock structures the allocation can hold", float64(snap.CapacityStructs))
	m.Gauge("lockmem_lock_free_fraction", "fraction of lock structures free", snap.FreeFraction)
	m.Gauge("lockmem_quota_percent", "lockPercentPerApplication (MAXLOCKS)", snap.QuotaPercent)
	m.Gauge("lockmem_overflow_pages", "database overflow memory", float64(snap.Overflow))
	m.Gauge("lockmem_overflow_goal_pages", "overflow memory goal", float64(snap.OverflowGoal))
	m.Gauge("lockmem_bufferpool_pages", "buffer pool heap size", float64(snap.BufferPoolPages))
	m.Gauge("lockmem_sortheap_pages", "sort heap size", float64(snap.SortHeapPages))
	m.Gauge("lockmem_lmoc_pages", "externalized lock memory configuration", float64(snap.LMOC))
	m.Gauge("lockmem_active_txns", "transactions in flight", float64(snap.ActiveTxns))
	m.Gauge("lockmem_connected_apps", "connected applications", float64(snap.NumApps))

	// Control-plane cost.
	m.Counter("lockmem_global_runs_total", "all-shard latch acquisitions", snap.LockGlobalRuns)
	m.Gauge("lockmem_global_hold_max_seconds", "longest single all-shard hold", snap.LockGlobalHoldMax.Seconds())

	// Per-shard latch contention.
	m.CounterVec("lockmem_latch_waits_total", "contended shard-latch acquisitions", "shard",
		db.locks.LatchWaitCounters().Values())

	// Spin-then-park latch outcomes: contended acquires won by spinning vs
	// parked on the latch condition, and unlocks that signalled a parked
	// waiter. spins/(spins+parks) is the adaptive spin controller's live
	// success rate; budgets themselves are replayable from the decision log.
	m.CounterVec("lockmem_latch_spins_total", "contended shard-latch acquires won in the spin phase", "shard",
		db.locks.LatchSpinHitValues())
	m.CounterVec("lockmem_latch_parks_total", "contended shard-latch acquires parked on the latch condition", "shard",
		db.locks.LatchParkValues())
	m.CounterVec("lockmem_latch_handoffs_total", "shard-latch unlocks signalling a parked waiter", "shard",
		db.locks.LatchHandoffValues())

	// Latch-free admission fast path: hits (grant-word CAS admissions plus
	// owner-local re-acquire cache hits) vs fallbacks to the latched
	// admission path. Hits + fallbacks partition all acquisitions.
	m.Counter("lockmem_fastpath_hits_total", "grants admitted without the shard latch", snap.LockFastPathHits)
	m.Counter("lockmem_fastpath_fallbacks_total", "acquisitions on the latched admission path", snap.LockFastPathFallbacks)

	// Zero-CAS optimistic read tier: tokens issued vs tokens refuted at
	// validation. failures/hits is the invalidation rate; hits ride above
	// the fast-path partition (hits + fastpath hits + fallbacks covers
	// every admission attempt).
	m.Counter("lockmem_optimistic_hits_total", "optimistic read tokens issued", snap.LockOptimisticHits)
	m.Counter("lockmem_optimistic_failures_total", "optimistic read tokens failing validation", snap.LockOptimisticFailures)

	// Release walk: batches applied per shard (one per commit visit) and
	// grant wakeups coalesced out of latched sections.
	m.CounterVec("lockmem_release_batches_total", "release batches applied", "shard",
		db.locks.ReleaseBatchCounters().Values())
	m.CounterVec("lockmem_wakeups_coalesced_total", "grant wakeups deferred out of latched release sections", "shard",
		db.locks.WakeupsCoalescedCounters().Values())

	// Admission throttle: waiters queued behind a ceiling (newest-first)
	// and each shard's live ceiling (0 = disengaged). Ceiling changes are
	// replayable from the decision log (kind "throttle-tune").
	m.CounterVec("lockmem_throttle_culled_total", "waiters queued behind the admission throttle's ceiling", "shard",
		db.locks.ThrottleCulledValues())
	ceilings := db.locks.ThrottleCeilings()
	ceil64 := make([]int64, len(ceilings))
	for i, c := range ceilings {
		ceil64[i] = int64(c)
	}
	m.GaugeVec("lockmem_throttle_ceiling", "per-shard admission concurrency ceiling (0 = disengaged)", "shard",
		ceil64)

	// Event ring: lifetime per-kind totals (survive eviction) + eviction.
	m.CounterMap("lockmem_trace_events_total", "diagnostic events by kind", "kind",
		kindTotalsToStrings(db.events.TotalByKind()))
	m.Counter("lockmem_trace_evicted_total", "events aged out of the ring", db.events.Evicted())

	// Tuning-decision log.
	m.CounterMap("lockmem_tuning_decisions_total", "tuning decisions by kind", "kind",
		db.decis.TotalByKind())
	m.Counter("lockmem_tuning_decisions_evicted_total", "decisions aged out of the log", db.decis.Evicted())

	// Latency distributions (recorded in ns; exposed in seconds).
	m.Histogram("lockmem_lock_wait_seconds", "lock wait time (engine clock)",
		db.locks.WaitHist().Snapshot(), 1e-9)
	m.Histogram("lockmem_lock_release_seconds", "ReleaseAll commit-release time (engine clock)",
		db.locks.ReleaseHist().Snapshot(), 1e-9)
	m.Histogram("lockmem_lock_hold_seconds", "lock hold time (sampled, wall clock)",
		db.locks.HoldHist().Snapshot(), 1e-9)

	// Commit fast-path cost: total shard-latch acquisitions (every lockShard
	// call, contended or not). With the touched-shard release walk this grows
	// by O(shards touched) per commit, not 3× the shard count.
	m.CounterVec("lockmem_latch_acquisitions_total", "shard-latch acquisitions", "shard",
		db.locks.LatchAcqCounters().Values())
	m.Histogram("lockmem_lock_admission_seconds", "AcquireAsync latency (sampled, wall clock)",
		db.locks.AdmissionHist().Snapshot(), 1e-9)
	m.Histogram("lockmem_tuning_pass_seconds", "STMM TuneOnce duration (wall clock)",
		db.tuneHist.Snapshot(), 1e-9)

	// Contention profiler: the current top-10 hot locks as labelled gauges
	// (blame is a decayed score, so these are gauges, not counters), plus
	// the merged per-shard latch hold/wait profile when wall-clock sampling
	// is on. Scrapes are lock-free like everything above.
	if hot := db.locks.HotLocks(10); len(hot) > 0 {
		blame := make(map[string]float64, len(hot))
		wait := make(map[string]float64, len(hot))
		qmax := make(map[string]float64, len(hot))
		opt := make(map[string]float64, len(hot))
		for _, hl := range hot {
			blame[hl.Name] = float64(hl.BlameNs) * 1e-9
			wait[hl.Name] = float64(hl.WaitNs) * 1e-9
			qmax[hl.Name] = float64(hl.QueueDepthMax)
			opt[hl.Name] = float64(hl.OptFailures)
		}
		m.GaugeMap("lockmem_hotlock_blame_seconds", "decayed contention blame of the top-K hot locks", "lock", blame)
		m.GaugeMap("lockmem_hotlock_wait_seconds", "attributed wait time of the top-K hot locks", "lock", wait)
		m.GaugeMap("lockmem_hotlock_queue_depth_max", "queue-depth high-water of the top-K hot locks", "lock", qmax)
		m.GaugeMap("lockmem_hotlock_optimistic_failures", "optimistic validation failures attributed to the top-K hot locks", "lock", opt)
	}
	if lp := db.locks.LatchProfile(); lp != nil {
		m.Histogram("lockmem_latch_hold_seconds", "shard-latch hold time (sampled, wall clock)",
			lp.MergedHold(), 1e-9)
		m.Histogram("lockmem_latch_wait_seconds", "contended shard-latch acquire time (wall clock)",
			lp.MergedWait(), 1e-9)
	}
}
