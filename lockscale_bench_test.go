package repro

// BenchmarkLockScalability measures raw lock-manager throughput as the
// number of client goroutines grows — the latch-contention regime the
// sharded lock table is designed to open up. Three workloads:
//
//   - disjoint: every goroutine locks its own table's rows (no logical
//     conflicts); measures pure latch/allocator scalability.
//   - hotkey: all goroutines fight over a small set of rows with exclusive
//     locks; measures queueing behaviour under genuine conflicts.
//   - tpcc: a contended TPC-C-shaped mix (IX table intents + X row updates
//     against a handful of warehouses, S reads on a shared item table)
//     released transactionally via ReleaseAll.
//   - readmostly: 90% of transactions read a shared hot row set under S with
//     an IS table intent re-acquired before every statement (the re-entrant
//     table-intent pattern TPC-C generates); 10% are writers taking X on a
//     disjoint hot set under IX. This is the shape where compatible requests
//     collapse onto a handful of hot lock headers — the latch-free admission
//     fast path's target regime.
//   - dss: the scan-heavy decision-support shape, ≥99% S over a large key
//     range. Every transaction scans the shared published hot set through
//     the zero-CAS optimistic tier (token-first, falling back to locked
//     acquisition on a miss, pessimistic rerun on a failed validation);
//     every 8th adds a cold-range chunk and ~0.8% are single-row writers.
//     This is the optimistic read tier's target regime.
//
// Each sub-benchmark reports grants/sec and the lock-table latch-wait count
// (0 on implementations without per-shard contention counters). Set
// BENCH_JSON=path to append one JSON record per run — the BENCH_*.json
// trajectory format:
//
//	{"bench":"LockScalability","workload":"disjoint","goroutines":16,
//	 "ns_per_op":123.4,"grants_per_sec":8.1e6,"latch_waits":42,
//	 "fast_hits":0,"fast_fallbacks":0}

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lockmgr"
)

// latchWaitCounter is implemented by lock managers that export lock-table
// latch contention counts (the sharded manager); the single-latch manager
// predates it, so the benchmark degrades gracefully via type assertion.
type latchWaitCounter interface {
	LatchWaits() int64
}

func latchWaits(m *lockmgr.Manager) int64 {
	if c, ok := interface{}(m).(latchWaitCounter); ok {
		return c.LatchWaits()
	}
	return 0
}

// fastPathCounter is implemented by lock managers with a latch-free
// admission fast path; earlier managers degrade to zero counts via the same
// type-assertion trick as latchWaitCounter, so the baseline JSON records
// fast_hits = 0 honestly.
type fastPathCounter interface {
	FastPathHits() int64
	FastPathFallbacks() int64
}

func fastPathCounts(m *lockmgr.Manager) (hits, fallbacks int64) {
	if c, ok := interface{}(m).(fastPathCounter); ok {
		return c.FastPathHits(), c.FastPathFallbacks()
	}
	return 0, 0
}

// optimisticCounter is implemented by lock managers with the zero-CAS
// optimistic read tier; earlier managers degrade to zero counts.
type optimisticCounter interface {
	OptimisticHits() int64
	OptimisticFailures() int64
}

func optimisticCounts(m *lockmgr.Manager) (hits, failures int64) {
	if c, ok := interface{}(m).(optimisticCounter); ok {
		return c.OptimisticHits(), c.OptimisticFailures()
	}
	return 0, 0
}

type scaleRecord struct {
	Bench         string  `json:"bench"`
	Workload      string  `json:"workload"`
	Goroutines    int     `json:"goroutines"`
	NsPerOp       float64 `json:"ns_per_op"`
	GrantsPerSec  float64 `json:"grants_per_sec"`
	LatchWaits    int64   `json:"latch_waits"`
	FastHits      int64   `json:"fast_hits"`
	FastFallbacks int64   `json:"fast_fallbacks"`
	// OptHits/OptFailures are the zero-CAS tier's token counters;
	// OptHitRate is hits over every admission attempt (tokens + CAS hits
	// + latched fallbacks), OptFailRate is failed validations over tokens.
	OptHits     int64   `json:"opt_hits"`
	OptFailures int64   `json:"opt_failures"`
	OptHitRate  float64 `json:"opt_hit_rate"`
	OptFailRate float64 `json:"opt_fail_rate"`
}

// emitScaleJSON appends rec to the file named by BENCH_JSON (one JSON object
// per line), if set. Failures are reported but do not fail the benchmark.
func emitScaleJSON(b *testing.B, rec scaleRecord) {
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
	enc := json.NewEncoder(f)
	if err := enc.Encode(rec); err != nil {
		b.Logf("BENCH_JSON: %v", err)
	}
}

// reportScale converts a finished run into bench metrics plus the JSON line.
func reportScale(b *testing.B, workload string, goroutines int, grants int64, elapsed time.Duration, m *lockmgr.Manager) {
	b.Helper()
	if grants <= 0 || elapsed <= 0 {
		return
	}
	waits := latchWaits(m)
	hits, fallbacks := fastPathCounts(m)
	optHits, optFailures := optimisticCounts(m)
	gps := float64(grants) / elapsed.Seconds()
	nsop := float64(elapsed.Nanoseconds()) / float64(grants)
	b.ReportMetric(gps, "grants/sec")
	b.ReportMetric(float64(waits), "latch-waits")
	if hits+fallbacks > 0 {
		b.ReportMetric(100*float64(hits)/float64(hits+fallbacks), "fastpath-hit-%")
	}
	var optHitRate, optFailRate float64
	if attempts := optHits + hits + fallbacks; optHits > 0 {
		optHitRate = float64(optHits) / float64(attempts)
		optFailRate = float64(optFailures) / float64(optHits)
		b.ReportMetric(100*optHitRate, "opt-hit-%")
		b.ReportMetric(100*optFailRate, "opt-fail-%")
	}
	if b.N == 1 {
		// Skip the go-bench b.N==1 sizing probe: its cold-start numbers
		// used to land in the BENCH_*.json trajectory as an outlier row
		// ahead of the real measurement (see reportCommit).
		return
	}
	emitScaleJSON(b, scaleRecord{
		Bench:         "LockScalability",
		Workload:      workload,
		Goroutines:    goroutines,
		NsPerOp:       nsop,
		GrantsPerSec:  gps,
		LatchWaits:    waits,
		FastHits:      hits,
		FastFallbacks: fallbacks,
		OptHits:       optHits,
		OptFailures:   optFailures,
		OptHitRate:    optHitRate,
		OptFailRate:   optFailRate,
	})
}

var scaleGoroutines = []int{1, 4, 16, 64}

// BenchmarkLockScalability/disjoint: per-goroutine private key ranges.
// Every operation is an uncontended acquire+release pair; any slowdown with
// more goroutines is pure lock-manager overhead (latches, allocator).
func BenchmarkLockScalability(b *testing.B) {
	for _, g := range scaleGoroutines {
		g := g
		b.Run(fmt.Sprintf("disjoint/goroutines=%d", g), func(b *testing.B) {
			m := lockmgr.New(lockmgr.Config{InitialPages: 32 * 256})
			var wg sync.WaitGroup
			perG := b.N/g + 1
			start := make(chan struct{})
			b.ResetTimer()
			t0 := time.Now()
			for i := 0; i < g; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					o := m.NewOwner(m.RegisterApp())
					table := uint32(id + 1)
					<-start
					for n := 0; n < perG; n++ {
						name := lockmgr.RowName(table, uint64(n%4096))
						p := m.AcquireAsync(o, name, lockmgr.ModeX, 1)
						if st, err := p.Status(); st != lockmgr.StatusGranted {
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
			reportScale(b, "disjoint", g, int64(g*perG), elapsed, m)
		})
	}
	for _, g := range scaleGoroutines {
		g := g
		b.Run(fmt.Sprintf("hotkey/goroutines=%d", g), func(b *testing.B) {
			m := lockmgr.New(lockmgr.Config{InitialPages: 32 * 64})
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
						// 64 hot rows shared by everyone, exclusive mode:
						// real FIFO queueing on every collision.
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
			reportScale(b, "hotkey", g, int64(g*perG), elapsed, m)
		})
	}
	for _, g := range scaleGoroutines {
		g := g
		b.Run(fmt.Sprintf("tpcc/goroutines=%d", g), func(b *testing.B) {
			benchTPCCContended(b, g)
		})
	}
	for _, g := range scaleGoroutines {
		g := g
		b.Run(fmt.Sprintf("readmostly/goroutines=%d", g), func(b *testing.B) {
			benchReadMostly(b, g)
		})
	}
	for _, g := range scaleGoroutines {
		g := g
		b.Run(fmt.Sprintf("dss/goroutines=%d", g), func(b *testing.B) {
			benchDSSScan(b, g)
		})
	}
}

// benchTPCCContended runs a TPC-C-shaped transaction mix directly against
// the lock manager: 4 warehouses shared by all terminals, each transaction
// taking IX intents, X row updates in its district, and S reads on a shared
// item table, then committing via ReleaseAll. Rows are locked in ascending
// order so the mix is deadlock-free by construction.
func benchTPCCContended(b *testing.B, g int) {
	const (
		warehouses  = 4
		itemTable   = 100
		updatesPer  = 5
		readsPer    = 5
		grantsPerTx = 2 + updatesPer + readsPer // IX wh + IX items... see below
	)
	m := lockmgr.New(lockmgr.Config{InitialPages: 32 * 256})
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
				wh := uint32(1 + (id+n)%warehouses)
				// Intent locks first (multigranularity discipline).
				if err := m.Acquire(ctx, o, lockmgr.TableName(wh), lockmgr.ModeIX, 1); err != nil {
					b.Error(err)
					return
				}
				if err := m.Acquire(ctx, o, lockmgr.TableName(itemTable), lockmgr.ModeIS, 1); err != nil {
					b.Error(err)
					return
				}
				// X updates on the terminal's district slice (contended
				// across terminals sharing the warehouse), ascending.
				base := uint64(id%10) * 100
				for u := 0; u < updatesPer; u++ {
					if err := m.Acquire(ctx, o, lockmgr.RowName(wh, base+uint64(u)), lockmgr.ModeX, 1); err != nil {
						b.Error(err)
						return
					}
				}
				// S reads on the shared item table (compatible).
				for r := 0; r < readsPer; r++ {
					if err := m.Acquire(ctx, o, lockmgr.RowName(itemTable, uint64((n*readsPer+r)%1000)), lockmgr.ModeS, 1); err != nil {
						b.Error(err)
						return
					}
				}
				m.ReleaseAll(o)
				o = m.NewOwner(o.App())
			}
			m.ReleaseAll(o)
		}(i)
	}
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	b.StopTimer()
	reportScale(b, "tpcc", g, int64(g*perG)*grantsPerTx, elapsed, m)
}

// benchReadMostly runs the read-mostly hot-set mix: 90% of transactions are
// readers taking S locks on a 128-row shared hot set, 10% are writers taking
// X locks on a disjoint 64-row hot set (ascending within each transaction,
// so the mix is deadlock-free by construction). Every statement re-acquires
// the table intent first — the re-entrant pattern per-statement locking
// produces — so half of all grants are repeats of a lock the transaction
// already holds. Compatible S/IS/IX requests from every goroutine collapse
// onto the same few headers: without latch-free admission they serialize on
// those headers' shard latches no matter how many shards exist.
func benchReadMostly(b *testing.B, g int) {
	const (
		hotTable    = 1
		opsPer      = 8          // row statements per transaction
		hotSRows    = 128        // shared S hot set: rows [0, hotSRows)
		hotXRows    = 64         // disjoint X hot set: rows [hotSRows, hotSRows+hotXRows)
		grantsPerTx = 2 * opsPer // intent re-acquire + row lock per statement
	)
	m := lockmgr.New(lockmgr.Config{InitialPages: 32 * 256})
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
				writer := (n*g+id)%10 == 0 // 10% writer transactions
				intent, rowMode := lockmgr.ModeIS, lockmgr.ModeS
				if writer {
					intent, rowMode = lockmgr.ModeIX, lockmgr.ModeX
				}
				// Writers lock an ascending window of the X hot set; readers
				// scatter across the S hot set.
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
				// Commit the way the transaction layer does (txn.Finish →
				// FinishOwner): release everything and recycle the owner.
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
	reportScale(b, "readmostly", g, int64(g*perG)*grantsPerTx, elapsed, m)
}

// benchDSSScan runs the scan-heavy decision-support shape through the
// zero-CAS optimistic tier: every read is token-first (TryOptimisticRead on
// the pre-published hot headers), falling back to a locked acquisition on a
// miss; the whole scan reruns pessimistically if any token fails validation
// — exactly the retry a readonly transaction performs. Per 128
// transactions, 127 are scans (an IS table intent plus 32 hot S reads, with
// every 8th adding an 8-row cold-range chunk that always misses the token
// tier) and 1 is a single-row writer (IX + X on a hot row), so the mix is
// ≥99% S and the writers generate genuine invalidation traffic.
func benchDSSScan(b *testing.B, g int) {
	const (
		hotTable   = 1
		hotRows    = 64
		coldRange  = 1 << 20
		scanLen    = 32
		coldEvery  = 8
		coldLen    = 8
		writeEvery = 128
	)
	m := lockmgr.New(lockmgr.Config{InitialPages: 32 * 256})
	ctx := context.Background()

	// Pre-publish the hot headers: the table-granularity header publishes on
	// its first grant, row headers need two concurrent holders at a settle.
	setup := m.RegisterApp()
	o1, o2 := m.NewOwner(setup), m.NewOwner(setup)
	if err := m.Acquire(ctx, o1, lockmgr.TableName(hotTable), lockmgr.ModeIS, 1); err != nil {
		b.Fatal(err)
	}
	for r := uint64(0); r < hotRows; r++ {
		name := lockmgr.RowName(hotTable, r)
		if err := m.Acquire(ctx, o1, name, lockmgr.ModeS, 1); err != nil {
			b.Fatal(err)
		}
		if err := m.Acquire(ctx, o2, name, lockmgr.ModeS, 1); err != nil {
			b.Fatal(err)
		}
	}
	m.FinishOwner(o1)
	m.FinishOwner(o2)

	var wg sync.WaitGroup
	perG := b.N/g + 1
	start := make(chan struct{})
	var total int64
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			app := m.RegisterApp()
			o := m.NewOwner(app)
			toks := make([]lockmgr.OptToken, 0, scanLen+1)
			names := make([]lockmgr.Name, 0, scanLen+coldLen+1)
			var grants int64
			<-start
			for n := 0; n < perG; n++ {
				tx := n*g + id
				if tx%writeEvery == 0 {
					if err := m.Acquire(ctx, o, lockmgr.TableName(hotTable), lockmgr.ModeIX, 1); err != nil {
						b.Error(err)
						return
					}
					row := uint64(tx/writeEvery) % hotRows
					if err := m.Acquire(ctx, o, lockmgr.RowName(hotTable, row), lockmgr.ModeX, 1); err != nil {
						b.Error(err)
						return
					}
					grants += 2
					m.FinishOwner(o)
					o = m.NewOwner(app)
					continue
				}
				toks, names = toks[:0], names[:0]
				names = append(names, lockmgr.TableName(hotTable))
				base := uint64(tx*31) % hotRows
				for op := 0; op < scanLen; op++ {
					names = append(names, lockmgr.RowName(hotTable, (base+uint64(op))%hotRows))
				}
				if tx%coldEvery == 0 {
					cb := uint64(tx*977) % coldRange
					for op := 0; op < coldLen; op++ {
						names = append(names, lockmgr.RowName(hotTable, hotRows+(cb+uint64(op))%coldRange))
					}
				}
				for j, name := range names {
					mode := lockmgr.ModeS
					if j == 0 {
						mode = lockmgr.ModeIS
					}
					if tok, hit := m.TryOptimisticRead(app, name, mode); hit {
						toks = append(toks, tok)
					} else if err := m.Acquire(ctx, o, name, mode, 1); err != nil {
						b.Error(err)
						return
					}
				}
				grants += int64(len(names))
				ok := true
				for _, tk := range toks {
					if !m.ValidateOptimistic(tk) {
						ok = false
					}
				}
				if !ok {
					// Invalidated: rerun the scan through the locking
					// tiers, as the readonly transaction retry does.
					for j, name := range names {
						mode := lockmgr.ModeS
						if j == 0 {
							mode = lockmgr.ModeIS
						}
						if err := m.Acquire(ctx, o, name, mode, 1); err != nil {
							b.Error(err)
							return
						}
					}
					grants += int64(len(names))
				}
				m.FinishOwner(o)
				o = m.NewOwner(app)
			}
			m.ReleaseAll(o)
			atomic.AddInt64(&total, grants)
		}(i)
	}
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	b.StopTimer()
	reportScale(b, "dss", g, atomic.LoadInt64(&total), elapsed, m)
}
