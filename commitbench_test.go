package repro

// BenchmarkCommitThroughput measures the transaction commit path — the
// ReleaseAll sweep at the end of every short OLTP transaction. The paper's
// target workloads (trade6/SAP-style) hold a handful of locks for a few
// milliseconds; for them the release cost *is* the commit cost, and a
// release path that scales with the shard count instead of with the locks
// actually held anti-scales with cores.
//
// Workloads:
//
//   - disjoint: every goroutine commits transactions over its own table's
//     rows (no logical conflicts); measures the pure per-commit overhead
//     of acquire + release bookkeeping.
//   - hotkey: all goroutines update the same small set of rows in
//     ascending order (deadlock-free by construction); measures the
//     commit path under genuine FIFO queueing.
//
// Each sub-benchmark reports commits/sec and latch-acqs/commit — the
// number of shard-latch acquisitions per committed transaction, the
// direct evidence for the 3×S → O(shards touched) claim (0 on
// implementations without the acquisition counter). Set BENCH_JSON=path
// to append one JSON record per run — the BENCH_COMMIT_*.json format:
//
//	{"bench":"CommitThroughput","workload":"disjoint","locks":2,
//	 "goroutines":16,"ns_per_op":812.5,"commits_per_sec":1.23e6,
//	 "latch_acqs_per_commit":26.0}

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/lockmgr"
)

// latchAcqCounter is implemented by lock managers that count every
// shard-latch acquisition (not just contended ones); older managers
// degrade to 0 via type assertion, like latchWaitCounter.
type latchAcqCounter interface {
	LatchAcquisitions() int64
}

func latchAcqs(m *lockmgr.Manager) int64 {
	if c, ok := interface{}(m).(latchAcqCounter); ok {
		return c.LatchAcquisitions()
	}
	return 0
}

type commitRecord struct {
	Bench              string  `json:"bench"`
	Workload           string  `json:"workload"`
	Locks              int     `json:"locks"`
	Goroutines         int     `json:"goroutines"`
	NsPerOp            float64 `json:"ns_per_op"`
	CommitsPerSec      float64 `json:"commits_per_sec"`
	LatchAcqsPerCommit float64 `json:"latch_acqs_per_commit"`
}

func emitCommitJSON(b *testing.B, rec commitRecord) {
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

func reportCommit(b *testing.B, workload string, locks, goroutines int, commits int64, elapsed time.Duration, acqs int64) {
	b.Helper()
	if commits <= 0 || elapsed <= 0 {
		return
	}
	cps := float64(commits) / elapsed.Seconds()
	apc := float64(acqs) / float64(commits)
	b.ReportMetric(cps, "commits/sec")
	b.ReportMetric(apc, "latch-acqs/commit")
	if b.N == 1 {
		// go test sizes every benchmark with a b.N==1 probe before the
		// timed iterations; that cold-start run (empty allocator, cold
		// caches) used to emit an outlier row into BENCH_COMMIT_*.json
		// ahead of the real measurement. Skip JSON for the probe — a
		// deliberate `-benchtime 1x` smoke run also stays out of the
		// trajectory file, which is what a smoke run should do.
		return
	}
	emitCommitJSON(b, commitRecord{
		Bench:              "CommitThroughput",
		Workload:           workload,
		Locks:              locks,
		Goroutines:         goroutines,
		NsPerOp:            float64(elapsed.Nanoseconds()) / float64(commits),
		CommitsPerSec:      cps,
		LatchAcqsPerCommit: apc,
	})
}

var (
	commitGoroutines = []int{1, 4, 16}
	commitTxSizes    = []int{2, 8, 64}

	// commitstorm runs many more committers than it has hot shards, so
	// concurrently committing owners pile onto the same few shard latches.
	stormGoroutines = []int{1, 16, 64}
)

// stormHotShards is the number of distinct shards the commitstorm workload
// confines its rows to (K ≪ shards: the default shard count is ≥ 8).
const stormHotShards = 4

// BenchmarkCommitThroughput runs short transactions (NewOwner, L row
// locks, ReleaseAll) with the DEFAULT shard count — the configuration the
// acceptance criterion names, where the full-sweep release path pays
// 3×shards latches regardless of L.
func BenchmarkCommitThroughput(b *testing.B) {
	for _, locks := range commitTxSizes {
		for _, g := range commitGoroutines {
			locks, g := locks, g
			b.Run(fmt.Sprintf("disjoint/locks=%d/goroutines=%d", locks, g), func(b *testing.B) {
				benchCommit(b, "disjoint", locks, g)
			})
		}
	}
	for _, locks := range commitTxSizes {
		for _, g := range commitGoroutines {
			locks, g := locks, g
			b.Run(fmt.Sprintf("hotkey/locks=%d/goroutines=%d", locks, g), func(b *testing.B) {
				benchCommit(b, "hotkey", locks, g)
			})
		}
	}
	for _, g := range stormGoroutines {
		g := g
		b.Run(fmt.Sprintf("commitstorm/locks=2/goroutines=%d", g), func(b *testing.B) {
			benchCommitStorm(b, 2, g)
		})
	}
}

// stormRows builds, per goroutine, a disjoint row list confined to
// stormHotShards distinct shards: rows[gi][k] holds rowsPer rows of hot
// shard k for goroutine gi. Row hashing is deterministic, so every run (and
// both sides of a before/after comparison) storms the same shards.
func stormRows(m *lockmgr.Manager, table uint32, g, rowsPer int) [][][]uint64 {
	need := g * rowsPer
	var targets []int
	byShard := make(map[int][]uint64, stormHotShards)
	for row := uint64(0); ; row++ {
		si := m.ShardOf(lockmgr.RowName(table, row))
		if list, ok := byShard[si]; ok {
			if len(list) < need {
				byShard[si] = append(list, row)
			}
		} else if len(targets) < stormHotShards {
			targets = append(targets, si)
			byShard[si] = []uint64{row}
		}
		if len(targets) == stormHotShards {
			done := true
			for _, t := range targets {
				if len(byShard[t]) < need {
					done = false
					break
				}
			}
			if done {
				break
			}
		}
	}
	rows := make([][][]uint64, g)
	for gi := 0; gi < g; gi++ {
		rows[gi] = make([][]uint64, stormHotShards)
		for k, t := range targets {
			rows[gi][k] = byShard[t][gi*rowsPer : (gi+1)*rowsPer]
		}
	}
	return rows
}

// benchCommitStorm is the many-owners/few-shards commit shape: every
// transaction takes `locks` X row locks, each homed in a different one of
// stormHotShards hot shards, then commits through FinishOwner. Rows are
// disjoint across goroutines — no lock conflicts, so the measured cost is
// purely the commit path's latch traffic on the shared hot shards.
func benchCommitStorm(b *testing.B, locks, g int) {
	m := lockmgr.New(lockmgr.Config{InitialPages: 32 * 256}) // default Shards
	const rowsPer = 256
	rows := stormRows(m, 1, g, rowsPer)
	ctx := context.Background()
	var wg sync.WaitGroup
	perG := b.N/g + 1
	start := make(chan struct{})
	b.ResetTimer()
	t0 := time.Now()
	acq0 := latchAcqs(m)
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			app := m.RegisterApp()
			mine := rows[id]
			<-start
			for n := 0; n < perG; n++ {
				o := m.NewOwner(app)
				for l := 0; l < locks; l++ {
					shard := (n + l) % stormHotShards
					row := mine[shard][(n*locks+l)%rowsPer]
					if err := m.Acquire(ctx, o, lockmgr.RowName(1, row), lockmgr.ModeX, 1); err != nil {
						b.Error(err)
						m.FinishOwner(o)
						return
					}
				}
				m.FinishOwner(o)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	acqs := latchAcqs(m) - acq0
	b.StopTimer()
	reportCommit(b, "commitstorm", locks, g, int64(g*perG), elapsed, acqs)
}

func benchCommit(b *testing.B, workload string, locks, g int) {
	m := lockmgr.New(lockmgr.Config{InitialPages: 32 * 256}) // default Shards
	ctx := context.Background()
	var wg sync.WaitGroup
	perG := b.N/g + 1
	start := make(chan struct{})
	b.ResetTimer()
	t0 := time.Now()
	acq0 := latchAcqs(m)
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			app := m.RegisterApp()
			table := uint32(id + 1)
			if workload == "hotkey" {
				table = 1
			}
			<-start
			for n := 0; n < perG; n++ {
				o := m.NewOwner(app)
				for l := 0; l < locks; l++ {
					var row uint64
					if workload == "hotkey" {
						// All goroutines hammer the same 16 hot slots,
						// locking each slot's rows in ascending order
						// within the transaction: genuine FIFO queueing,
						// deadlock-free by construction.
						row = uint64(n%16)*64 + uint64(l)
					} else {
						row = uint64((n*locks + l) % 65536)
					}
					if err := m.Acquire(ctx, o, lockmgr.RowName(table, row), lockmgr.ModeX, 1); err != nil {
						b.Error(err)
						m.FinishOwner(o)
						return
					}
				}
				// The engine's transaction layer finishes owners through
				// FinishOwner (exactly-once by its state machine), so the
				// benchmark exercises the same commit path.
				m.FinishOwner(o)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	acqs := latchAcqs(m) - acq0
	b.StopTimer()
	reportCommit(b, workload, locks, g, int64(g*perG), elapsed, acqs)
}
