// Package sim is the discrete-time experiment driver. One tick is one
// virtual second: clients step, lock waits age, the STMM controller tunes on
// its interval (30 s in every experiment of the paper), and the metric
// series that regenerate the paper's figures are sampled.
//
// Everything is deterministic: a simulated clock, seeded client RNGs and a
// single driving goroutine.
package sim

import (
	"time"

	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/memblock"
	"repro/internal/metrics"
	"repro/internal/stmm"
	"repro/internal/workload"
)

// Client is a workload state machine stepped once per tick.
type Client interface {
	Step()
	SetActive(bool)
	Active() bool
	Commits() int64
}

// Event fires a callback at a given tick (e.g. injecting the DSS query).
type Event struct {
	AtTick int
	Fire   func()
}

// Config describes one experiment run.
type Config struct {
	// DB is the engine under test.
	DB *engine.Database
	// Clock must be the same simulated clock the engine was opened with.
	Clock *clock.Sim
	// Ticks is the run length in virtual seconds.
	Ticks int
	// TuneEvery is the STMM interval in ticks (default 30).
	TuneEvery int
	// DetectEvery runs deadlock detection every N ticks. The zero value
	// selects the default cadence (5); DetectDisabled (or any negative
	// value) disables the detector entirely — a configured 0 used to be
	// indistinguishable from "unset" and silently re-enabled it.
	DetectEvery int
	// Clients is the OLTP client pool; the Schedule activates a prefix.
	Clients []Client
	// Schedule sets the number of active clients over time (nil keeps
	// all clients active).
	Schedule workload.Schedule
	// Standalone clients are stepped every tick but not governed by the
	// Schedule (e.g. the injected DSS query; activate it via an Event).
	Standalone []Client
	// Events fire at specific ticks.
	Events []Event
	// SampleEvery thins the recorded series (default 1 = every tick).
	SampleEvery int
}

// DetectDisabled disables periodic deadlock detection when assigned to
// Config.DetectEvery (lock waits then end only by timeout). Distinct from
// the zero value, which means "unset" and selects the default cadence.
const DetectDisabled = -1

// defaultDetectEvery is the detector cadence when Config.DetectEvery is
// unset (zero).
const defaultDetectEvery = 5

// effectiveDetectEvery maps a configured DetectEvery to the cadence the run
// loop uses: 0 (unset) → the default, negative (DetectDisabled) → 0 (never
// detect), positive → itself.
func effectiveDetectEvery(configured int) int {
	switch {
	case configured == 0:
		return defaultDetectEvery
	case configured < 0:
		return 0
	default:
		return configured
	}
}

// VolatileSeries names the captured series whose values derive from wall
// clocks rather than simulated time ("global stall" is the max all-shard
// latch hold, measured in real microseconds; "admission p99" is the sampled
// AcquireAsync wall-clock latency). Determinism tests exclude exactly these
// via Set.CSVExcluding; every simulated-time series — including the lock-wait
// quantiles, which are recorded on the engine clock — remains byte-for-byte
// reproducible.
var VolatileSeries = []string{"global stall", "admission p99"}

// Result carries the captured series and end-state.
type Result struct {
	Series  *metrics.Set
	Final   engine.Snapshot
	Reports []stmm.Report
	// TotalCommits is the committed transaction count across clients.
	TotalCommits int64
}

// Throughput returns the mean throughput (tx/s) between two times.
func (r *Result) Throughput(fromSec, toSec float64) float64 {
	s := r.Series.Get("throughput")
	if s == nil {
		return 0
	}
	return s.MeanBetween(fromSec, toSec)
}

// Run executes the experiment.
func Run(cfg Config) *Result {
	if cfg.TuneEvery <= 0 {
		cfg.TuneEvery = 30
	}
	detectEvery := effectiveDetectEvery(cfg.DetectEvery)
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}

	set := metrics.NewSet()
	lockPages := set.Series("lock memory", "pages")
	usedPages := set.Series("lock memory used", "pages")
	throughput := set.Series("throughput", "tx/s")
	escalations := set.Series("escalations", "count")
	activeClients := set.Series("active clients", "clients")
	quota := set.Series("lockPercentPerApplication", "%")
	overflow := set.Series("overflow", "pages")
	bufferPool := set.Series("bufferpool", "pages")
	latchWaits := set.Series("latch waits", "count")
	globalRuns := set.Series("global latch runs", "count")
	fastHits := set.Series("fast-path hits", "count")
	fastFallbacks := set.Series("fast-path fallbacks", "count")
	// Optimistic token counts advance deterministically under the sim's
	// single-goroutine tick loop (token issue and validation are pure
	// functions of lock-table state), so neither series is volatile.
	optHits := set.Series("optimistic hits", "count")
	optFailures := set.Series("optimistic failures", "count")
	// Release-walk counters advance deterministically under the sim's
	// single-goroutine tick loop: every commit latches each touched shard
	// once, so both series are pure functions of the workload.
	relBatches := set.Series("release batches", "count")
	wakesCoalesced := set.Series("wakeups coalesced", "count")
	// Spin-then-park latch outcomes advance deterministically for the same
	// reason: one goroutine never contends a shard latch, so all three
	// series stay zero under the sim — the determinism test pins that the
	// latch swap adds no contention of its own to the single-threaded path.
	latchSpins := set.Series("latch spins", "count")
	latchParks := set.Series("latch parks", "count")
	latchHandoffs := set.Series("latch handoffs", "count")
	globalStall := set.Series("global stall", "µs")
	// Lock-wait quantiles come from the engine-clock histogram, so they are
	// deterministic; admission latency is sampled wall clock → volatile.
	waitP95 := set.Series("lock wait p95", "ms")
	waitP99 := set.Series("lock wait p99", "ms")
	// Commit-release latency is stamped on the engine clock too (the sim
	// clock never advances inside a ReleaseAll), so the series is
	// deterministic — all zeros under the fake clock, real latencies live.
	releaseP99 := set.Series("lock release p99", "ms")
	admitP99 := set.Series("admission p99", "µs")
	// Hot-lock blame sums the contention profiler's decayed sketch scores.
	// Wait blame is stamped on the engine clock and event blame is a fixed
	// charge, so under the fake clock the series is byte-deterministic —
	// the determinism test pins the profiler's attribution itself.
	hotBlame := set.Series("hot-lock blame", "ms")
	// Admission-throttle series. The culled count (waiters queued behind a
	// ceiling) is driven by latched queue state, and the ceiling by
	// RetuneThrottle on the tuner cadence reading engine-clock signals —
	// both deterministic under the fake clock (a single-goroutine sim
	// rarely saturates, so they typically pin at zero).
	throtCulled := set.Series("throttle culled", "count")
	throtCeiling := set.Series("throttle ceiling", "waiters")

	res := &Result{Series: set}
	var lastCommits int64
	eventIdx := 0
	events := cfg.Events

	for tick := 0; tick < cfg.Ticks; tick++ {
		now := float64(tick)
		cfg.Clock.Advance(time.Second)

		for eventIdx < len(events) && events[eventIdx].AtTick <= tick {
			events[eventIdx].Fire()
			eventIdx++
		}

		// Apply the activation schedule to the client pool prefix.
		if cfg.Schedule != nil {
			want := cfg.Schedule(now)
			if want > len(cfg.Clients) {
				want = len(cfg.Clients)
			}
			for i, c := range cfg.Clients {
				c.SetActive(i < want)
			}
		}

		// Step everyone — inactive clients no-op, draining clients
		// finish and disconnect.
		for _, c := range cfg.Clients {
			c.Step()
		}
		for _, c := range cfg.Standalone {
			c.Step()
		}

		cfg.DB.Locks().SweepTimeouts()
		if detectEvery > 0 && tick%detectEvery == 0 {
			cfg.DB.Locks().DetectDeadlocks()
		}
		// Same decay epoch the engine's Tick runs: deterministic, since it
		// is keyed to the tick counter, not any clock.
		if (tick+1)%64 == 0 {
			cfg.DB.Locks().DecayHotLocks()
		}
		if (tick+1)%cfg.TuneEvery == 0 {
			if rep, ok := cfg.DB.TuneOnce(); ok {
				res.Reports = append(res.Reports, rep)
			}
		}

		// Sample.
		if tick%cfg.SampleEvery == 0 {
			snap := cfg.DB.Snapshot()
			var commits int64
			active := 0
			for _, c := range cfg.Clients {
				commits += c.Commits()
				if c.Active() {
					active++
				}
			}
			for _, c := range cfg.Standalone {
				commits += c.Commits()
				if c.Active() {
					active++
				}
			}
			lockPages.Record(now, float64(snap.LockPages))
			usedPages.Record(now, float64((snap.UsedStructs+memblock.StructsPerPage-1)/memblock.StructsPerPage))
			throughput.Record(now, float64(commits-lastCommits)/float64(cfg.SampleEvery))
			lastCommits = commits
			escalations.Record(now, float64(snap.LockStats.Escalations))
			activeClients.Record(now, float64(active))
			quota.Record(now, snap.QuotaPercent)
			overflow.Record(now, float64(snap.Overflow))
			bufferPool.Record(now, float64(snap.BufferPoolPages))
			latchWaits.Record(now, float64(snap.LockLatchWaits))
			globalRuns.Record(now, float64(snap.LockGlobalRuns))
			fastHits.Record(now, float64(snap.LockFastPathHits))
			fastFallbacks.Record(now, float64(snap.LockFastPathFallbacks))
			optHits.Record(now, float64(snap.LockOptimisticHits))
			optFailures.Record(now, float64(snap.LockOptimisticFailures))
			relBatches.Record(now, float64(snap.LockReleaseBatches))
			wakesCoalesced.Record(now, float64(snap.LockWakeupsCoalesced))
			latchSpins.Record(now, float64(snap.LockLatchSpins))
			latchParks.Record(now, float64(snap.LockLatchParks))
			latchHandoffs.Record(now, float64(snap.LockLatchHandoffs))
			throtCulled.Record(now, float64(snap.LockThrottleCulled))
			throtCeiling.Record(now, float64(snap.LockThrottleCeiling))
			globalStall.Record(now, float64(snap.LockGlobalHoldMax)/1e3)
			ws := cfg.DB.Locks().WaitHist().Snapshot()
			waitP95.Record(now, ws.Quantile(0.95)/1e6)
			waitP99.Record(now, ws.Quantile(0.99)/1e6)
			releaseP99.Record(now, cfg.DB.Locks().ReleaseHist().Snapshot().Quantile(0.99)/1e6)
			admitP99.Record(now, cfg.DB.Locks().AdmissionHist().Snapshot().Quantile(0.99)/1e3)
			hotBlame.Record(now, float64(cfg.DB.Locks().HotLockBlameNs())/1e6)
		}
	}

	res.Final = cfg.DB.Snapshot()
	for _, c := range cfg.Clients {
		res.TotalCommits += c.Commits()
	}
	for _, c := range cfg.Standalone {
		res.TotalCommits += c.Commits()
	}
	return res
}
