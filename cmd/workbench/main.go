// Command workbench runs a custom workload against a chosen lock-memory
// policy and prints the resulting behaviour — a sandbox for exploring the
// tuning algorithm beyond the paper's fixed experiments.
//
// Example: a 60-client OLTP load with a mid-run surge to 200 clients under
// the SQL Server 2005 policy:
//
//	workbench -policy sqlserver -clients 60 -surge-to 200 -surge-at 300 -ticks 900
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// validateProfile checks -profile against the run shape: the contention
// report summarizes a finished workload, so it is meaningless without a
// terminal run (positive -ticks) driving at least one client — the same
// "flag without a referent" class of mistake validateSurge rejects.
func validateProfile(profile bool, ticks, clients int) error {
	if !profile {
		return nil
	}
	if ticks <= 0 {
		return fmt.Errorf("-profile needs a terminal workload: -ticks %d never finishes a run to report on", ticks)
	}
	if clients <= 0 {
		return fmt.Errorf("-profile needs a workload to profile: -clients %d runs nothing", clients)
	}
	return nil
}

// validateSurge checks the surge flag pair: -surge-at positions a surge in
// time, so it is meaningless (and used to be silently ignored) without a
// -surge-to target.
func validateSurge(surgeTo, surgeAt int) error {
	if surgeAt > 0 && surgeTo == 0 {
		return fmt.Errorf("-surge-at %d given without -surge-to (nothing to surge to)", surgeAt)
	}
	if surgeAt < 0 {
		return fmt.Errorf("-surge-at %d is negative", surgeAt)
	}
	if surgeTo < 0 {
		return fmt.Errorf("-surge-to %d is negative", surgeTo)
	}
	return nil
}

func main() {
	var (
		policy    = flag.String("policy", "adaptive", "lock memory policy: adaptive | static | sqlserver")
		dbMB      = flag.Int("db-mb", 512, "database memory in MB")
		lockKB    = flag.Int("locklist-kb", 0, "initial LOCKLIST in KB (0 = algorithm minimum)")
		maxlocks  = flag.Float64("maxlocks", 10, "static MAXLOCKS percent (static policy only)")
		clients   = flag.Int("clients", 50, "OLTP clients")
		surgeTo   = flag.Int("surge-to", 0, "client count after the surge (0 = no surge)")
		surgeAt   = flag.Int("surge-at", 0, "surge time in seconds")
		ticks     = flag.Int("ticks", 600, "run length in virtual seconds")
		rows      = flag.Int("rows", 65, "average row locks per transaction")
		writes    = flag.Float64("writes", 0.3, "fraction of X-mode row locks")
		workloadF = flag.String("workload", "oltp",
			"workload shape: oltp | readmostly (90% S/IS on a shared hot set, 10% X — the latch-free admission regime) | dss (≥99% S reporting scans over a shared hot set — the zero-CAS optimistic regime) | commitstorm (short X transactions confined to a few hot shards — the commit-latch regime)")
		minCoalesced = flag.Int64("min-coalesced", -1,
			"exit 1 unless the run coalesced at least this many grant wakeups (-1 disables; smoke-test hook)")
		latchSpin = flag.Int("latch-spin", 0,
			"shard-latch spin budget: 0 = adaptive controller, <0 = park immediately, n>0 = fixed budget")
		throttle = flag.Int("throttle", 0,
			"admission-throttle concurrency ceiling: 0 = adaptive controller, <0 = disabled, n>0 = fixed ceiling")
		readonly = flag.Bool("readonly", false,
			"run dss scans as readonly transactions (optimistic tokens validated at commit; dss workload only)")
		profile  = flag.Bool("profile", false, "print the contention-profiler report (top-10 hot locks, wait chains, latch profile) in the final summary")
		chart    = flag.Bool("chart", true, "render ASCII charts")
		events   = flag.Int("events", 10, "print the last N diagnostic events (0 = none)")
		locks    = flag.Int("locks", 0, "dump up to N lock-table entries at the end")
		httpAddr = flag.String("http", "", "serve /metrics, /debug/* and pprof on this address (e.g. :8372)")
		serveFor = flag.Duration("serve-for", 0, "keep the -http server up this long after the run (0 = exit immediately)")
	)
	flag.Parse()

	if err := validateSurge(*surgeTo, *surgeAt); err != nil {
		fmt.Fprintf(os.Stderr, "workbench: %v\n", err)
		os.Exit(2)
	}
	if err := validateProfile(*profile, *ticks, *clients); err != nil {
		fmt.Fprintf(os.Stderr, "workbench: %v\n", err)
		os.Exit(2)
	}

	var pol engine.Policy
	switch *policy {
	case "adaptive":
		pol = engine.PolicyAdaptive
	case "static":
		pol = engine.PolicyStatic
	case "sqlserver":
		pol = engine.PolicySQLServer
	default:
		fmt.Fprintf(os.Stderr, "workbench: unknown policy %q\n", *policy)
		os.Exit(2)
	}

	clk := clock.NewSim()
	db, err := engine.Open(engine.Config{
		DatabasePages:    *dbMB * 256, // 256 pages per MB
		InitialLockPages: *lockKB / 4,
		Policy:           pol,
		StaticQuotaPct:   *maxlocks,
		Clock:            clk,
		LockTimeout:      60 * time.Second,
		LatchSpin:        *latchSpin,
		Throttle:         *throttle,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "workbench: %v\n", err)
		os.Exit(1)
	}

	if *httpAddr != "" {
		// LiveHandlers resolves the live engine per request, so the mux is
		// valid for the whole process lifetime.
		bound, err := obs.Serve(*httpAddr, obs.NewMux(engine.LiveHandlers()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "workbench: -http %s: %v\n", *httpAddr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "workbench: serving http://%s/metrics (also /debug/locks /debug/events /debug/tuner /debug/hotlocks /debug/waiters /debug/flight /debug/pprof)\n", bound)
	}

	if *readonly && *workloadF != "dss" {
		fmt.Fprintf(os.Stderr, "workbench: -readonly only applies to -workload dss\n")
		os.Exit(2)
	}

	prof := workload.DefaultOLTPProfile(db.Catalog())
	prof.RowsMin = *rows * 6 / 10
	prof.RowsMax = *rows * 14 / 10
	prof.WriteFrac = *writes
	dssProf := workload.DefaultDSSScanProfile(db.Catalog())
	dssProf.ReadOnly = *readonly
	switch *workloadF {
	case "oltp":
		// The default mix, shaped by -rows/-writes above.
	case "readmostly":
		// The latch-free admission regime: 90% of row locks are S reads
		// and almost all of them land on a small shared hot set, so the
		// hottest headers see pure compatible traffic (plus the IS table
		// intents every transaction takes). The 10% X writes scatter over
		// the warm set, keeping write conflicts off the hot headers.
		prof.WriteFrac = 0.1
		prof.HotRows = 512
		prof.HotFrac = 0.9
	case "dss":
		// The zero-CAS optimistic regime: repeating reporting scans, ≥99%
		// S, every scan revisiting a shared hot set whose headers publish
		// into the fast-slot array and then serve optimistic read tokens.
	case "commitstorm":
		// The commit-latch regime: every client runs short X transactions
		// whose rows are confined to a few hot shards, so concurrent
		// commits collide on the same shard latches; a shared hot set hit
		// every 8th transaction generates FIFO waits — and coalesced
		// wakeups.
	default:
		fmt.Fprintf(os.Stderr, "workbench: unknown -workload %q (want oltp, readmostly, dss or commitstorm)\n", *workloadF)
		os.Exit(2)
	}

	maxClients := *clients
	if *surgeTo > maxClients {
		maxClients = *surgeTo
	}
	pool := make([]sim.Client, maxClients)
	var stormPlan *workload.CommitStormPlan
	if *workloadF == "commitstorm" {
		stormPlan = workload.PlanCommitStorm(db, workload.DefaultCommitStormProfile(db.Catalog()), maxClients)
	}
	for i := range pool {
		switch *workloadF {
		case "dss":
			pool[i] = workload.NewDSSScan(db, dssProf, int64(i+1))
		case "commitstorm":
			pool[i] = workload.NewCommitStorm(db, stormPlan, i, int64(i+1))
		default:
			pool[i] = workload.NewOLTP(db, prof, int64(i+1))
		}
	}
	schedule := workload.Constant(*clients)
	if *surgeTo > 0 {
		schedule = workload.Step(*clients, *surgeTo, float64(*surgeAt))
	}

	res := sim.Run(sim.Config{
		DB:       db,
		Clock:    clk,
		Ticks:    *ticks,
		Clients:  pool,
		Schedule: schedule,
	})

	snap := res.Final
	fmt.Printf("policy            %s\n", pol)
	fmt.Printf("duration          %d virtual seconds\n", *ticks)
	fmt.Printf("commits           %d (%.1f tx/s mean)\n", res.TotalCommits, float64(res.TotalCommits)/float64(*ticks))
	fmt.Printf("lock memory       %d pages (%.1f MB), peak %g pages\n",
		snap.LockPages, float64(snap.LockPages)/256, res.Series.Get("lock memory").Max())
	fmt.Printf("lock escalations  %d (exclusive %d)\n", snap.LockStats.Escalations, snap.LockStats.ExclusiveEscalations)
	fmt.Printf("lock waits        %d (timeouts %d, deadlocks %d)\n",
		snap.LockStats.Waits, snap.LockStats.Timeouts, snap.LockStats.Deadlocks)
	fmt.Printf("sync growths      %d (%d pages)\n", snap.LockStats.SyncGrowths, snap.LockStats.SyncGrowthPages)
	if total := snap.LockFastPathHits + snap.LockFastPathFallbacks; total > 0 {
		fmt.Printf("fast-path admits  %d of %d acquisitions (%.1f%% latch-free)\n",
			snap.LockFastPathHits, total, 100*float64(snap.LockFastPathHits)/float64(total))
	}
	if attempts := snap.LockOptimisticHits + snap.LockFastPathHits + snap.LockFastPathFallbacks; snap.LockOptimisticHits > 0 {
		// Hit rate over every admission attempt (tokens + CAS hits +
		// latched fallbacks); failure rate over tokens issued.
		fmt.Printf("optimistic reads  %d tokens (%.1f%% hit rate), %d validation failures (%.2f%%)\n",
			snap.LockOptimisticHits, 100*float64(snap.LockOptimisticHits)/float64(attempts),
			snap.LockOptimisticFailures, 100*float64(snap.LockOptimisticFailures)/float64(snap.LockOptimisticHits))
	}
	if snap.LockReleaseBatches > 0 {
		fmt.Printf("release walk      %d batches, %d wakeups coalesced\n",
			snap.LockReleaseBatches, snap.LockWakeupsCoalesced)
	}
	if contended := snap.LockLatchSpins + snap.LockLatchParks; contended > 0 {
		fmt.Printf("latch contention  %d contended acquires (%.1f%% spin-won), %d parks, %d handoffs\n",
			contended, 100*float64(snap.LockLatchSpins)/float64(contended),
			snap.LockLatchParks, snap.LockLatchHandoffs)
	}
	if snap.LockThrottleCulled > 0 {
		fmt.Printf("admission throttle %d waiters queued behind the ceiling, ceiling %d\n",
			snap.LockThrottleCulled, snap.LockThrottleCeiling)
	}
	fmt.Printf("MAXLOCKS quota    %.1f%%\n", snap.QuotaPercent)
	if ws := db.Locks().WaitHist().Snapshot(); ws.Total > 0 {
		fmt.Printf("lock wait p50     %s\n", time.Duration(ws.Quantile(0.50)))
		fmt.Printf("lock wait p95     %s\n", time.Duration(ws.Quantile(0.95)))
		fmt.Printf("lock wait p99     %s\n", time.Duration(ws.Quantile(0.99)))
	}
	if rs := db.Locks().ReleaseHist().Snapshot(); rs.Total > 0 {
		fmt.Printf("commit release    p50 %s  p99 %s (%d releases)\n",
			time.Duration(rs.Quantile(0.50)), time.Duration(rs.Quantile(0.99)), rs.Total)
	}

	if *profile {
		fmt.Println()
		fmt.Print(db.Locks().ContentionReport(10))
	}

	if *events > 0 {
		tail := db.Events().Tail(*events)
		if len(tail) > 0 {
			fmt.Printf("\nlast %d events:\n", len(tail))
			for _, e := range tail {
				fmt.Printf("  %s\n", e)
			}
		}
	}
	if *locks > 0 {
		dump := db.Locks().DumpLocks()
		if len(dump) > *locks {
			dump = dump[:*locks]
		}
		fmt.Printf("\nlock table (%d entries shown):\n", len(dump))
		for _, li := range dump {
			fmt.Printf("  %s\n", li)
		}
	}
	if *chart {
		fmt.Println()
		fmt.Println(metrics.Chart(res.Series.Get("lock memory"), 72, 12))
		fmt.Println(metrics.Chart(res.Series.Get("throughput"), 72, 12))
	}

	if *httpAddr != "" && *serveFor > 0 {
		fmt.Fprintf(os.Stderr, "workbench: run finished; serving for another %s\n", *serveFor)
		time.Sleep(*serveFor)
	}

	if *minCoalesced >= 0 && snap.LockWakeupsCoalesced < *minCoalesced {
		fmt.Fprintf(os.Stderr, "workbench: coalesced %d grant wakeups, want >= %d\n",
			snap.LockWakeupsCoalesced, *minCoalesced)
		os.Exit(1)
	}
}
