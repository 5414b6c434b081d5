package sim

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/workload"
)

func newSimDB(t *testing.T) (*engine.Database, *clock.Sim) {
	t.Helper()
	clk := clock.NewSim()
	db, err := engine.Open(engine.Config{Clock: clk, LockTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return db, clk
}

func pool(db *engine.Database, n int) []Client {
	prof := workload.DefaultOLTPProfile(db.Catalog())
	out := make([]Client, n)
	for i := range out {
		out[i] = workload.NewOLTP(db, prof, int64(i))
	}
	return out
}

func TestRunAdvancesClockAndSamples(t *testing.T) {
	db, clk := newSimDB(t)
	res := Run(Config{
		DB:       db,
		Clock:    clk,
		Ticks:    100,
		Clients:  pool(db, 5),
		Schedule: workload.Constant(5),
	})
	if got := clk.Elapsed(); got != 100*time.Second {
		t.Fatalf("clock advanced %v, want 100s", got)
	}
	for _, name := range []string{"lock memory", "throughput", "escalations", "active clients"} {
		s := res.Series.Get(name)
		if s == nil || s.Len() != 100 {
			t.Fatalf("series %q missing or wrong length", name)
		}
	}
	if res.TotalCommits == 0 {
		t.Fatal("no commits")
	}
	if res.Final.NumApps != 5 {
		t.Fatalf("final apps = %d", res.Final.NumApps)
	}
}

func TestRunTunesOnInterval(t *testing.T) {
	db, clk := newSimDB(t)
	res := Run(Config{
		DB:        db,
		Clock:     clk,
		Ticks:     90,
		TuneEvery: 30,
		Clients:   pool(db, 3),
		Schedule:  workload.Constant(3),
	})
	if got := len(res.Reports); got != 3 {
		t.Fatalf("tuning reports = %d, want 3", got)
	}
}

func TestRunScheduleActivatesPrefix(t *testing.T) {
	db, clk := newSimDB(t)
	res := Run(Config{
		DB:       db,
		Clock:    clk,
		Ticks:    200,
		Clients:  pool(db, 10),
		Schedule: workload.Step(2, 10, 100),
	})
	ac := res.Series.Get("active clients")
	if got := ac.ValueAt(50); got != 2 {
		t.Fatalf("active at t=50 = %g, want 2", got)
	}
	if got := ac.ValueAt(150); got != 10 {
		t.Fatalf("active at t=150 = %g, want 10", got)
	}
}

func TestRunEventsFire(t *testing.T) {
	db, clk := newSimDB(t)
	fired := -1
	Run(Config{
		DB:      db,
		Clock:   clk,
		Ticks:   50,
		Clients: pool(db, 1),
		Events: []Event{
			{AtTick: 20, Fire: func() { fired = 20 }},
		},
	})
	if fired != 20 {
		t.Fatalf("event fired = %d", fired)
	}
}

func TestRunSampleEveryThins(t *testing.T) {
	db, clk := newSimDB(t)
	res := Run(Config{
		DB:          db,
		Clock:       clk,
		Ticks:       100,
		SampleEvery: 10,
		Clients:     pool(db, 2),
		Schedule:    workload.Constant(2),
	})
	if got := res.Series.Get("lock memory").Len(); got != 10 {
		t.Fatalf("samples = %d, want 10", got)
	}
}

func TestThroughputHelper(t *testing.T) {
	db, clk := newSimDB(t)
	res := Run(Config{
		DB:       db,
		Clock:    clk,
		Ticks:    200,
		Clients:  pool(db, 5),
		Schedule: workload.Constant(5),
	})
	if got := res.Throughput(50, 200); got <= 0 {
		t.Fatalf("throughput = %g", got)
	}
	empty := &Result{Series: res.Series}
	_ = empty
	none := &Result{}
	if (&Result{Series: nil}) == none {
		t.Skip()
	}
}

func TestStandaloneClientsStepOutsideSchedule(t *testing.T) {
	db, clk := newSimDB(t)
	dss := workload.NewDSS(db, workload.DSSProfile{
		Table:         db.Catalog().ByName("lineitem"),
		ChunkRows:     64,
		Chunks:        20,
		ChunksPerTick: 5,
		HoldTicks:     2,
	})
	Run(Config{
		DB:         db,
		Clock:      clk,
		Ticks:      60,
		Clients:    pool(db, 2),
		Schedule:   workload.Constant(0), // schedule must NOT govern the DSS
		Standalone: []Client{dss},
		Events:     []Event{{AtTick: 5, Fire: func() { dss.SetActive(true) }}},
	})
	if !dss.Done() {
		t.Fatal("standalone DSS did not run")
	}
}

// TestRunIsDeterministic: identical configurations produce byte-identical
// series — the property that makes every figure reproducible. The second
// input confines half of every client's accesses to eight rows per table,
// so shared locks gather several holders and the deadlock detector walks
// them on every pass: its victims, and so every series, depend on the
// order it walks holders in.
func TestRunIsDeterministic(t *testing.T) {
	run := func(hot bool) (string, engine.Snapshot) {
		db, clk := newSimDB(t)
		prof := workload.DefaultOLTPProfile(db.Catalog())
		if hot {
			prof.HotRows, prof.HotFrac = 8, 0.5
		}
		clients := make([]Client, 20)
		for i := range clients {
			clients[i] = workload.NewOLTP(db, prof, int64(i+1))
		}
		res := Run(Config{
			DB:       db,
			Clock:    clk,
			Ticks:    300,
			Clients:  clients,
			Schedule: workload.Ramp(1, 20, 0, 100),
		})
		// The "global stall" series is a wall-clock measurement (max
		// all-shard latch hold in real µs) and is legitimately different
		// run to run; every simulated-time series must still match byte
		// for byte.
		return res.Series.CSVExcluding(VolatileSeries...), res.Final
	}
	for _, hot := range []bool{false, true} {
		a, final := run(hot)
		if b, _ := run(hot); a != b {
			t.Fatalf("hot=%v: identical runs diverged", hot)
		}
		if st := final.LockStats; hot && (st.Waits == 0 || st.Deadlocks == 0) {
			t.Fatalf("hot input: %d waits, %d deadlock victims: want both, or the detector walked nothing", st.Waits, st.Deadlocks)
		}
	}
}

// TestDetectEveryConfig: a configured DetectDisabled must genuinely disable
// the detector, a zero value must select the default cadence, and a
// positive value must be honored as-is. (A configured 0 used to collapse
// into the default, so "disabled" was impossible to express.)
func TestDetectEveryConfig(t *testing.T) {
	cases := []struct {
		configured, want int
	}{
		{0, 5},
		{DetectDisabled, 0},
		{-7, 0},
		{1, 1},
		{30, 30},
	}
	for _, c := range cases {
		if got := effectiveDetectEvery(c.configured); got != c.want {
			t.Errorf("effectiveDetectEvery(%d) = %d, want %d", c.configured, got, c.want)
		}
	}
}

// TestDetectDisabledRunsNoDetection drives a run with the detector disabled
// and verifies no deadlock victims are produced even though detection at
// the default cadence is exercised by every other test in this package.
// With the concurrent detector, detection never takes the all-shard latch,
// so LockGlobalRuns must also stay flat between detector-on and -off runs
// (global sections come only from admission-of-last-resort, which this
// light workload never triggers).
func TestDetectDisabledRunsNoDetection(t *testing.T) {
	run := func(detectEvery int) engine.Snapshot {
		db, clk := newSimDB(t)
		res := Run(Config{
			DB:          db,
			Clock:       clk,
			Ticks:       100,
			DetectEvery: detectEvery,
			Clients:     pool(db, 5),
			Schedule:    workload.Constant(5),
		})
		return res.Final
	}
	on, off := run(1), run(DetectDisabled)
	if on.LockGlobalRuns != off.LockGlobalRuns {
		t.Errorf("global latch runs differ with detector on/off: %d vs %d — detection touched the all-shard latch",
			on.LockGlobalRuns, off.LockGlobalRuns)
	}
	_ = off.LockStats.Deadlocks // disabled detector cannot claim victims
	if off.LockStats.Deadlocks != 0 {
		t.Errorf("detector disabled but %d deadlock victims denied", off.LockStats.Deadlocks)
	}
}
