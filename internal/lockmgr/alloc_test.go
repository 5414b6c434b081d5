package lockmgr

import (
	"context"
	"testing"
)

// testing.AllocsPerRun counts the whole process's allocations, and several
// tests of this package leak allocating goroutines when they fail (ROADMAP
// item 0(e)). This file sorts first so that the measurement runs before any
// of them and one flaky failure does not become two.

// tpccShapedTxn runs one transaction the size of the bench's tpcc mean: 23
// row locks over 5 tables, each row behind its table's intent lock, through
// the blocking Acquire and FinishOwner like internal/txn does. neverRecycle
// marks the owner as having waited, which keeps FinishOwner from pooling it.
func tpccShapedTxn(tb testing.TB, m *Manager, app *App, neverRecycle bool) {
	ctx := context.Background()
	o := m.NewOwner(app)
	o.everWaited = neverRecycle
	for i := 0; i < 23; i++ {
		table := uint32(1 + i%5)
		if err := m.Acquire(ctx, o, TableName(table), ModeIX, 1); err != nil {
			tb.Fatal(err)
		}
		if err := m.Acquire(ctx, o, RowName(table, uint64(1000+i)), ModeX, 1); err != nil {
			tb.Fatal(err)
		}
	}
	m.FinishOwner(o)
}

func TestTransactionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop owners and request boxes at random")
	}
	// Sampling off: one acquisition in 64 otherwise reads the clock, which
	// allocates nothing either, but keep the measured path the plain one.
	m := New(Config{InitialPages: 32, Shards: 8, ObsSampleStride: -1})
	app := m.RegisterApp()
	// One owner stays registered so that no measured commit is the last one
	// out, which force-flushes every shard's staging list.
	bystander := m.NewOwner(app)
	defer m.ReleaseAll(bystander)

	// Recycled owner: after warm-up the owner, its held array, the request
	// boxes and the lock headers all come back from their free lists.
	for i := 0; i < 100; i++ {
		tpccShapedTxn(t, m, app, false)
	}
	if n := testing.AllocsPerRun(200, func() { tpccShapedTxn(t, m, app, false) }); n != 0 {
		t.Errorf("23-row, 5-table transaction on a recycled owner: %v allocations, want 0", n)
	}
	// An owner that waited is left to the garbage collector, so each of its
	// transactions pays for a new Owner, for that owner's commit-walk
	// scratch growing from nothing, and — past the inline segment's 12
	// locks — for the held index growing 16 → 32 → 64 slots. The bounds are
	// what the map-based indexes paid for the same transactions (33 and
	// 20); the flat index must not cost more (it measures 25 and 16).
	small := func() {
		o := m.NewOwner(app)
		o.everWaited = true
		for i := 0; i < 10; i++ {
			if err := m.Acquire(context.Background(), o, RowName(7, uint64(i)), ModeX, 1); err != nil {
				t.Fatal(err)
			}
		}
		m.FinishOwner(o)
	}
	big := testing.AllocsPerRun(200, func() { tpccShapedTxn(t, m, app, true) })
	few := testing.AllocsPerRun(200, small)
	t.Logf("never-recycled owner: %v allocations for 23 rows on 5 tables, %v for 10 rows on one", big, few)
	if big > 33 || few > 20 {
		t.Errorf("never-recycled owner: %v and %v allocations, want at most 33 and 20", big, few)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
