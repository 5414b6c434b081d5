package repro

// BenchmarkLatchContention measures the shard-latch A/B behind the
// spin-then-park latch: the same contended workloads run under a fixed
// spin budget (the naive spinlock stance) and under the adaptive
// controller, and the records compare mean contended latch-wait. Three
// workloads, all on a pinned 8-shard manager so the shard routing — and
// therefore the latch contention — is machine-independent:
//
//   - hotkey: every goroutine fights over 64 shared rows in exclusive
//     mode; latch traffic is admission + FIFO wakeup on a few shards.
//   - commitstorm: short 2-lock X transactions confined to 4 hot shards
//     (the workload package's own storm plan, built on the bare manager
//     seam), every 8th transaction walking a shared 4-row set — the
//     regime where commit visits collide on shard latches.
//   - readmostly: 90% S readers on a shared hot set, 10% X writers; the
//     latch-free admission regime, so residual latch traffic is settles
//     and fallbacks.
//
// LATCH_SPIN selects the variant in lockmgr.Config.LatchSpin's encoding:
// unset or 0 = adaptive controller, <0 = park immediately, n>0 = fixed
// budget of n spins. (The checked-in BENCH_LATCH_ADAPTIVE.json records
// predate this encoding: their "latch_spin":-1 is the adaptive leg.) Set
// BENCH_JSON=path to append one record per run:
//
//	{"bench":"LatchContention","workload":"hotkey","goroutines":64,
//	 "latch_spin":0,"ns_per_op":123.4,"contended":512,
//	 "mean_wait_ns":8000,"p99_wait_ns":64000,
//	 "spins":100,"parks":412,"handoffs":412}

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/workload"
)

// spinParkCounter is implemented by lock managers whose shard latches are
// the instrumented spin-then-park kind; earlier managers degrade to zero
// counts via the same type-assertion trick as latchWaitCounter.
type spinParkCounter interface {
	LatchSpinHits() int64
	LatchParks() int64
	LatchHandoffs() int64
}

func spinParkCounts(m *lockmgr.Manager) (spins, parks, handoffs int64) {
	if c, ok := interface{}(m).(spinParkCounter); ok {
		return c.LatchSpinHits(), c.LatchParks(), c.LatchHandoffs()
	}
	return 0, 0, 0
}

// latchWaitTotaler is implemented by managers whose latches accumulate the
// exact contended-wait total — the numerator of the A/B's primary metric.
type latchWaitTotaler interface {
	LatchWaitNsTotal() int64
}

func latchWaitTotal(m *lockmgr.Manager) int64 {
	if c, ok := interface{}(m).(latchWaitTotaler); ok {
		return c.LatchWaitNsTotal()
	}
	return 0
}

// latchProfiler is implemented by managers with the contention profiler's
// latch hold/wait histograms — the source of the p99 contended-wait tail
// (the mean comes from the exact accumulator above; the histogram's
// power-of-two buckets are too coarse for it).
type latchProfiler interface {
	LatchProfile() *obs.LatchProf
}

func latchWaitP99(m *lockmgr.Manager) float64 {
	if c, ok := interface{}(m).(latchProfiler); ok {
		if lp := c.LatchProfile(); lp != nil {
			return lp.MergedWait().Quantile(0.99)
		}
	}
	return 0
}

// latchSpinEnv reads LATCH_SPIN as a lockmgr.Config.LatchSpin value
// (unset = 0, adaptive).
func latchSpinEnv(b *testing.B) int {
	v := os.Getenv("LATCH_SPIN")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		b.Fatalf("LATCH_SPIN=%q: %v", v, err)
	}
	return n
}

type latchRecord struct {
	Bench      string  `json:"bench"`
	Workload   string  `json:"workload"`
	Goroutines int     `json:"goroutines"`
	LatchSpin  int     `json:"latch_spin"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Contended counts contended shard-latch acquires (spins + parks).
	// MeanWaitNs is the exact slow-path wait total divided by that count —
	// the A/B's primary metric; P99WaitNs is the profiler histogram's tail
	// (bucket-quantized, secondary).
	Contended  int64   `json:"contended"`
	MeanWaitNs float64 `json:"mean_wait_ns"`
	P99WaitNs  float64 `json:"p99_wait_ns"`
	Spins      int64   `json:"spins"`
	Parks      int64   `json:"parks"`
	Handoffs   int64   `json:"handoffs"`
}

func emitLatchJSON(b *testing.B, rec latchRecord) {
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

func reportLatch(b *testing.B, wl string, g, spin int, grants int64, elapsed time.Duration, m *lockmgr.Manager) {
	b.Helper()
	if grants <= 0 || elapsed <= 0 {
		return
	}
	spins, parks, handoffs := spinParkCounts(m)
	var mean float64
	if contended := spins + parks; contended > 0 {
		mean = float64(latchWaitTotal(m)) / float64(contended)
	}
	p99 := latchWaitP99(m)
	nsop := float64(elapsed.Nanoseconds()) / float64(grants)
	b.ReportMetric(float64(grants)/elapsed.Seconds(), "grants/sec")
	b.ReportMetric(float64(spins+parks), "contended")
	b.ReportMetric(mean, "mean-wait-ns")
	if b.N == 1 {
		// Skip the go-bench b.N==1 sizing probe — same outlier-row issue
		// reportScale documents.
		return
	}
	emitLatchJSON(b, latchRecord{
		Bench:      "LatchContention",
		Workload:   wl,
		Goroutines: g,
		LatchSpin:  spin,
		NsPerOp:    nsop,
		Contended:  spins + parks,
		MeanWaitNs: mean,
		P99WaitNs:  p99,
		Spins:      spins,
		Parks:      parks,
		Handoffs:   handoffs,
	})
}

// latchBenchConfig pins the shard count so contention is comparable across
// machines and applies the LATCH_SPIN variant.
func latchBenchConfig(spin int) lockmgr.Config {
	return lockmgr.Config{InitialPages: 32 * 256, Shards: 8, LatchSpin: spin}
}

var latchGoroutines = []int{16, 64}

func BenchmarkLatchContention(b *testing.B) {
	for _, g := range latchGoroutines {
		g := g
		b.Run(fmt.Sprintf("hotkey/goroutines=%d", g), func(b *testing.B) {
			benchLatchHotkey(b, g)
		})
	}
	for _, g := range latchGoroutines {
		g := g
		b.Run(fmt.Sprintf("commitstorm/goroutines=%d", g), func(b *testing.B) {
			benchLatchCommitStorm(b, g)
		})
	}
	for _, g := range latchGoroutines {
		g := g
		b.Run(fmt.Sprintf("readmostly/goroutines=%d", g), func(b *testing.B) {
			benchLatchReadMostly(b, g)
		})
	}
}

// benchLatchHotkey is the hotkey shape from BenchmarkLockScalability under
// the LATCH_SPIN variant: 64 shared rows, exclusive mode, real FIFO
// queueing on every collision.
func benchLatchHotkey(b *testing.B, g int) {
	spin := latchSpinEnv(b)
	m := lockmgr.New(latchBenchConfig(spin))
	var wg sync.WaitGroup
	perG := b.N/g + 1
	start := make(chan struct{})
	ctx := context.Background()
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			o := m.NewOwner(m.RegisterApp())
			<-start
			for n := 0; n < perG; n++ {
				name := lockmgr.RowName(1, uint64((n+id)%64))
				if err := m.Acquire(ctx, o, name, lockmgr.ModeX, 1); err != nil {
					b.Error(err)
					return
				}
				if err := m.Release(o, name); err != nil {
					b.Error(err)
					return
				}
			}
			m.ReleaseAll(o)
		}(i)
	}
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	b.StopTimer()
	reportLatch(b, "hotkey", g, spin, int64(g*perG), elapsed, m)
}

// benchLatchCommitStorm reuses the workload package's storm plan (built on
// the bare manager seam) to confine short X transactions to 4 hot shards:
// concurrent commits collide on the same shard latches, and every 8th
// transaction walks the shared set in fixed order, generating FIFO waits.
func benchLatchCommitStorm(b *testing.B, g int) {
	spin := latchSpinEnv(b)
	m := lockmgr.New(latchBenchConfig(spin))
	prof := workload.DefaultCommitStormProfile(storage.CombinedTPCCTPCH())
	prof.SharedEvery = 8
	plan := workload.PlanCommitStormRows(m, prof, g)
	table := uint32(prof.Table.ID)

	var wg sync.WaitGroup
	perG := b.N/g + 1
	start := make(chan struct{})
	ctx := context.Background()
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			app := m.RegisterApp()
			o := m.NewOwner(app)
			<-start
			for n := 0; n < perG; n++ {
				if n%prof.SharedEvery == 0 {
					// Shared hot set, fixed order: deadlock-free FIFO waits.
					for _, row := range plan.Shared() {
						if err := m.Acquire(ctx, o, lockmgr.RowName(table, row), lockmgr.ModeX, 1); err != nil {
							b.Error(err)
							return
						}
					}
				} else {
					for op := 0; op < prof.RowsPerTxn; op++ {
						k := (n + op) % prof.HotShards
						row := plan.PrivateRow(id, k, n*prof.RowsPerTxn+op)
						if err := m.Acquire(ctx, o, lockmgr.RowName(table, row), lockmgr.ModeX, 1); err != nil {
							b.Error(err)
							return
						}
					}
				}
				m.FinishOwner(o)
				o = m.NewOwner(app)
			}
			m.ReleaseAll(o)
		}(i)
	}
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	b.StopTimer()
	reportLatch(b, "commitstorm", g, spin, int64(g*perG)*int64(prof.RowsPerTxn), elapsed, m)
}

// benchLatchReadMostly is the readmostly shape from BenchmarkLockScalability
// under the LATCH_SPIN variant: 90% S readers on a 128-row shared hot set
// with per-statement intent re-acquires, 10% X writers on a disjoint set.
func benchLatchReadMostly(b *testing.B, g int) {
	const (
		hotTable = 1
		opsPer   = 8
		hotSRows = 128
		hotXRows = 64
	)
	spin := latchSpinEnv(b)
	m := lockmgr.New(latchBenchConfig(spin))
	var wg sync.WaitGroup
	perG := b.N/g + 1
	start := make(chan struct{})
	ctx := context.Background()
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			o := m.NewOwner(m.RegisterApp())
			<-start
			for n := 0; n < perG; n++ {
				writer := (n*g+id)%10 == 0
				intent, rowMode := lockmgr.ModeIS, lockmgr.ModeS
				if writer {
					intent, rowMode = lockmgr.ModeIX, lockmgr.ModeX
				}
				wbase := uint64((id + n) % (hotXRows - opsPer + 1))
				for op := 0; op < opsPer; op++ {
					if err := m.Acquire(ctx, o, lockmgr.TableName(hotTable), intent, 1); err != nil {
						b.Error(err)
						return
					}
					var row uint64
					if writer {
						row = hotSRows + wbase + uint64(op)
					} else {
						row = uint64((n*opsPer + op + id*17) % hotSRows)
					}
					if err := m.Acquire(ctx, o, lockmgr.RowName(hotTable, row), rowMode, 1); err != nil {
						b.Error(err)
						return
					}
				}
				app := o.App()
				m.FinishOwner(o)
				o = m.NewOwner(app)
			}
			m.ReleaseAll(o)
		}(i)
	}
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	b.StopTimer()
	reportLatch(b, "readmostly", g, spin, int64(g*perG)*2*opsPer, elapsed, m)
}
