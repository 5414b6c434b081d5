package repro

// BenchmarkHotkeySweep is the admission throttle's collapse-curve A/B: one
// hot exclusive lock swept over goroutine counts g=16..256, with the
// control plane a real deployment runs (timeout sweeps, deadlock
// detection, throttle retuning) ticking concurrently. THROTTLE=-1 leaves
// plain FIFO queues and THROTTLE=8 queues waiters past 8 newest-first;
// both legs pay the detector's per-pass export under the shard latch, one
// predecessor edge per waiter.
//
// THROTTLE selects the variant in lockmgr.Config.Throttle's encoding:
// unset or 0 = adaptive controller, <0 = throttle disabled (the baseline
// leg), n>0 = fixed ceiling of n. Set BENCH_JSON=path to append one
// record per goroutine count:
//
//	{"bench":"HotkeySweep","workload":"hotkey1","locks":1,"goroutines":64,
//	 "throttle":8,"ns_per_op":123.4,"grants_per_sec":1.2e6,
//	 "culled":512,"ceiling":8}
//
// "culled" counts waiters queued behind the ceiling.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/lockmgr"
)

// throttleEnv reads THROTTLE as a lockmgr.Config.Throttle value (unset =
// 0, adaptive).
func throttleEnv(b *testing.B) int {
	v := os.Getenv("THROTTLE")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		b.Fatalf("THROTTLE=%q: %v", v, err)
	}
	return n
}

type sweepRecord struct {
	Bench        string  `json:"bench"`
	Workload     string  `json:"workload"`
	Locks        int     `json:"locks"`
	Goroutines   int     `json:"goroutines"`
	Throttle     int     `json:"throttle"`
	NsPerOp      float64 `json:"ns_per_op"`
	GrantsPerSec float64 `json:"grants_per_sec"`
	Culled       int64   `json:"culled"`
	Ceiling      int     `json:"ceiling"`
}

func emitSweepJSON(b *testing.B, rec sweepRecord) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		b.Logf("BENCH_JSON: %v", err)
		return
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		b.Logf("BENCH_JSON: %v", err)
	}
}

var sweepGoroutines = []int{16, 32, 64, 128, 256}

func BenchmarkHotkeySweep(b *testing.B) {
	for _, g := range sweepGoroutines {
		g := g
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			benchHotkeySweep(b, g)
		})
	}
}

// benchHotkeySweep hammers a single exclusive row from g goroutines while
// a control-plane goroutine runs the maintenance loops whose cost scales
// with live waiter count. Shards are pinned so routing is machine-independent.
func benchHotkeySweep(b *testing.B, g int) {
	throttle := throttleEnv(b)
	m := lockmgr.New(lockmgr.Config{InitialPages: 32 * 256, Shards: 8, Throttle: throttle})
	hot := lockmgr.RowName(1, 1)

	stop := make(chan struct{})
	var cpWG sync.WaitGroup
	cpWG.Add(1)
	go func() {
		defer cpWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.SweepTimeouts()
			m.DetectDeadlocks()
			m.RetuneThrottle()
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	perG := b.N/g + 1
	start := make(chan struct{})
	ctx := context.Background()
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := m.NewOwner(m.RegisterApp())
			<-start
			for n := 0; n < perG; n++ {
				if err := m.Acquire(ctx, o, hot, lockmgr.ModeX, 1); err != nil {
					b.Error(err)
					return
				}
				// Critical section: yield while holding so the other
				// goroutines actually pile up behind the lock — the
				// saturation regime the curve is about (without it a
				// single-CPU run serializes and no queue ever forms).
				runtime.Gosched()
				if err := m.Release(o, hot); err != nil {
					b.Error(err)
					return
				}
			}
			m.ReleaseAll(o)
		}()
	}
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	b.StopTimer()
	close(stop)
	cpWG.Wait()

	grants := int64(g * perG)
	if grants <= 0 || elapsed <= 0 {
		return
	}
	b.ReportMetric(float64(grants)/elapsed.Seconds(), "grants/sec")
	b.ReportMetric(float64(m.ThrottleCulled()), "culled")
	if b.N == 1 {
		// Skip the go-bench b.N==1 sizing probe — same outlier-row issue
		// reportScale documents.
		return
	}
	emitSweepJSON(b, sweepRecord{
		Bench:        "HotkeySweep",
		Workload:     "hotkey1",
		Locks:        1,
		Goroutines:   g,
		Throttle:     throttle,
		NsPerOp:      float64(elapsed.Nanoseconds()) / float64(grants),
		GrantsPerSec: float64(grants) / elapsed.Seconds(),
		Culled:       m.ThrottleCulled(),
		Ceiling:      m.ThrottleCeilingMax(),
	})
}

// TestThrottleSmoke is the verify-gate smoke: a fixed ceiling under a
// brief hot-lock hammer must actually queue waiters past the ceiling
// (culled > 0), every Acquire must succeed, and the drained table must
// pass CheckInvariants.
func TestThrottleSmoke(t *testing.T) {
	const (
		g     = 24
		perG  = 200
		ceil  = 4
		table = 1
	)
	m := lockmgr.New(lockmgr.Config{InitialPages: 32 * 64, Shards: 4, Throttle: ceil})
	hot := lockmgr.RowName(table, 1)

	stop := make(chan struct{})
	var cpWG sync.WaitGroup
	cpWG.Add(1)
	go func() {
		defer cpWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.SweepTimeouts()
			m.DetectDeadlocks()
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	ctx := context.Background()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := m.NewOwner(m.RegisterApp())
			for n := 0; n < perG; n++ {
				if err := m.Acquire(ctx, o, hot, lockmgr.ModeX, 1); err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched() // hold across a yield so waiters pile up
				if err := m.Release(o, hot); err != nil {
					t.Error(err)
					return
				}
			}
			m.ReleaseAll(o)
		}()
	}
	wg.Wait()
	close(stop)
	cpWG.Wait()

	if culled := m.ThrottleCulled(); culled == 0 {
		t.Fatalf("culled = 0: a %d-goroutine hammer against ceiling %d never throttled", g, ceil)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}
