package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/lockmgr"
)

// publishRow makes the row's header (and its table's intent header) hot
// enough to publish into its shard's publication table: two concurrent S
// holders on the row, committed away. ReadOnly reads of the row can then
// be served by optimistic tokens.
func publishRow(t *testing.T, m *Manager, lm *lockmgr.Manager, app *lockmgr.App, table uint32, row uint64) {
	t.Helper()
	ctx := context.Background()
	t1, t2 := m.Begin(app), m.Begin(app)
	if err := t1.LockRow(ctx, 1, row, lockmgr.ModeS); err != nil {
		t.Fatal(err)
	}
	if err := t2.LockRow(ctx, 1, row, lockmgr.ModeS); err != nil {
		t.Fatal(err)
	}
	t1.Commit()
	t2.Commit()
}

func TestReadOnlyOptimisticHappyPath(t *testing.T) {
	m, lm := newManagers()
	app := lm.RegisterApp()
	publishRow(t, m, lm, app, 1, 10)

	tx := m.Begin(app)
	if err := tx.SetIsolation(ReadOnly); err != nil {
		t.Fatal(err)
	}
	if err := tx.LockRow(context.Background(), 1, 10, lockmgr.ModeS); err != nil {
		t.Fatal(err)
	}
	if got := tx.OptimisticReads(); got != 2 { // table IS token + row S token
		t.Fatalf("optimistic reads = %d, want 2", got)
	}
	if got := tx.RowsLocked(); got != 0 {
		t.Fatalf("rowsLocked = %d, want 0 (token, not lock)", got)
	}
	// Tokens consume no lock structures at all.
	if got := lm.UsedStructs(); got != 0 {
		t.Fatalf("used structs = %d, want 0", got)
	}
	// Re-reading the same table caches the IS token: only one more token.
	if err := tx.LockRow(context.Background(), 1, 10, lockmgr.ModeS); err != nil {
		t.Fatal(err)
	}
	if got := tx.OptimisticReads(); got != 3 {
		t.Fatalf("optimistic reads = %d, want 3 (table token cached)", got)
	}
	if err := tx.CommitValidated(); err != nil {
		t.Fatal(err)
	}
	if tx.State() != StateCommitted {
		t.Fatalf("state = %v", tx.State())
	}
	if err := lm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyInvalidatedByWriter(t *testing.T) {
	m, lm := newManagers()
	app := lm.RegisterApp()
	publishRow(t, m, lm, app, 1, 10)

	tx := m.Begin(app)
	if err := tx.SetIsolation(ReadOnly); err != nil {
		t.Fatal(err)
	}
	if err := tx.LockRow(context.Background(), 1, 10, lockmgr.ModeS); err != nil {
		t.Fatal(err)
	}
	if tx.OptimisticReads() == 0 {
		t.Fatal("read did not take the optimistic path; setup broken")
	}

	// A writer commits an X on the read row inside the read window: the
	// token's epoch is bumped by the latched grant.
	wx := m.Begin(app)
	if err := wx.LockRow(context.Background(), 1, 10, lockmgr.ModeX); err != nil {
		t.Fatal(err)
	}
	wx.Commit()

	fails0 := lm.OptimisticFailures()
	if err := tx.CommitValidated(); !errors.Is(err, ErrReadInvalidated) {
		t.Fatalf("CommitValidated = %v, want ErrReadInvalidated", err)
	}
	if tx.State() != StateAborted {
		t.Fatalf("state = %v, want aborted", tx.State())
	}
	if lm.OptimisticFailures() <= fails0 {
		t.Fatal("validation failure not counted")
	}
	_, aborts, _ := m.Stats()
	if aborts == 0 {
		t.Fatal("invalidated readonly txn not counted as abort")
	}
	if err := lm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	m, lm := newManagers()
	app := lm.RegisterApp()
	tx := m.Begin(app)
	if err := tx.SetIsolation(ReadOnly); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := tx.LockRow(ctx, 1, 1, lockmgr.ModeX); !errors.Is(err, ErrReadOnlyWrite) {
		t.Fatalf("LockRow X = %v, want ErrReadOnlyWrite", err)
	}
	if err := tx.LockTable(ctx, 1, lockmgr.ModeIX); !errors.Is(err, ErrReadOnlyWrite) {
		t.Fatalf("LockTable IX = %v, want ErrReadOnlyWrite", err)
	}
	if err := tx.LockRange(ctx, 1, 1, lockmgr.ModeX, 4); !errors.Is(err, ErrReadOnlyWrite) {
		t.Fatalf("LockRange X = %v, want ErrReadOnlyWrite", err)
	}
	op := tx.AcquireRow(1, 1, lockmgr.ModeU, 1)
	if op.Poll() != OpDenied || !errors.Is(op.Err(), ErrReadOnlyWrite) {
		t.Fatalf("AcquireRow U = %v/%v, want denied ErrReadOnlyWrite", op.Poll(), op.Err())
	}
	tx.Abort()
}

func TestReadOnlyFallsBackToRealLocks(t *testing.T) {
	m, lm := newManagers()
	app := lm.RegisterApp()

	// Nothing published: the optimistic tier misses and the read takes a
	// real S lock (held to commit), which still commits cleanly.
	tx := m.Begin(app)
	if err := tx.SetIsolation(ReadOnly); err != nil {
		t.Fatal(err)
	}
	if err := tx.LockRow(context.Background(), 1, 77, lockmgr.ModeS); err != nil {
		t.Fatal(err)
	}
	if got := tx.OptimisticReads(); got != 0 {
		t.Fatalf("optimistic reads = %d, want 0 (unpublished header)", got)
	}
	if got := tx.RowsLocked(); got != 1 {
		t.Fatalf("rowsLocked = %d, want 1 (fallback real lock)", got)
	}
	if got := lm.UsedStructs(); got != 2 { // intent + row
		t.Fatalf("used structs = %d, want 2", got)
	}
	if err := tx.CommitValidated(); err != nil {
		t.Fatal(err)
	}
	if got := lm.UsedStructs(); got != 0 {
		t.Fatalf("used after commit = %d", got)
	}
}

func TestReadOnlyPolledOp(t *testing.T) {
	m, lm := newManagers()
	app := lm.RegisterApp()
	publishRow(t, m, lm, app, 1, 10)

	tx := m.Begin(app)
	if err := tx.SetIsolation(ReadOnly); err != nil {
		t.Fatal(err)
	}
	op := tx.AcquireRow(1, 10, lockmgr.ModeS, 1)
	if op.Poll() != OpGranted {
		t.Fatalf("polled readonly read = %v, want granted", op.Poll())
	}
	if tx.OptimisticReads() != 2 {
		t.Fatalf("optimistic reads = %d, want 2", tx.OptimisticReads())
	}
	if err := tx.CommitValidated(); err != nil {
		t.Fatal(err)
	}
}

func TestSetIsolationBlockedAfterTokens(t *testing.T) {
	m, lm := newManagers()
	app := lm.RegisterApp()
	publishRow(t, m, lm, app, 1, 10)

	tx := m.Begin(app)
	if err := tx.SetIsolation(ReadOnly); err != nil {
		t.Fatal(err)
	}
	if err := tx.LockRow(context.Background(), 1, 10, lockmgr.ModeS); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetIsolation(RepeatableRead); err == nil {
		t.Fatal("isolation change allowed after optimistic reads")
	}
	tx.Abort()
}

// TestRunReadOnlyUnderStorm proves the bounded retry loop terminates even
// against a writer that keeps invalidating the read set: the final
// attempt's RR fallback takes real locks and cannot be invalidated.
func TestRunReadOnlyUnderStorm(t *testing.T) {
	m, lm := newManagers()
	app := lm.RegisterApp()
	publishRow(t, m, lm, app, 1, 10)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := context.Background()
		for !stop.Load() {
			wx := m.Begin(app)
			if err := wx.LockRow(ctx, 1, 10, lockmgr.ModeX); err != nil {
				wx.Abort()
				continue
			}
			wx.Commit()
		}
	}()

	for i := 0; i < 50; i++ {
		reads := 0
		err := m.RunReadOnly(app, 3, func(tx *Txn) error {
			reads++
			return tx.LockRow(context.Background(), 1, 10, lockmgr.ModeS)
		})
		if err != nil {
			t.Fatalf("RunReadOnly = %v", err)
		}
		if reads == 0 {
			t.Fatal("fn never ran")
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := lm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRunReadOnlySucceedsQuiet: no writers, the first optimistic attempt
// must stand.
func TestRunReadOnlySucceedsQuiet(t *testing.T) {
	m, lm := newManagers()
	app := lm.RegisterApp()
	publishRow(t, m, lm, app, 1, 10)

	var sawTokens int64
	err := m.RunReadOnly(app, 3, func(tx *Txn) error {
		if err := tx.LockRow(context.Background(), 1, 10, lockmgr.ModeS); err != nil {
			return err
		}
		sawTokens = tx.OptimisticReads()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sawTokens == 0 {
		t.Fatal("quiet RunReadOnly did not use the optimistic tier")
	}
	commits, aborts, _ := m.Stats()
	if commits != 3 || aborts != 0 { // 2 publishing commits + 1 readonly
		t.Fatalf("stats = %d/%d, want 3/0", commits, aborts)
	}
}

// TestRunReadOnlyReusesTokenBuffer: a quiet 16-row read-only transaction
// appends its 17 tokens to a recycled buffer, so the call allocates no more
// than the Txn itself (and one spare for the runtime).
func TestRunReadOnlyReusesTokenBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	m, lm := newManagers()
	app := lm.RegisterApp()
	for r := uint64(0); r < 16; r++ {
		publishRow(t, m, lm, app, 1, r)
	}
	ctx := context.Background()
	read := func(tx *Txn) error {
		for r := uint64(0); r < 16; r++ {
			if err := tx.LockRow(ctx, 1, r, lockmgr.ModeS); err != nil {
				return err
			}
		}
		if tx.OptimisticReads() != 17 {
			return fmt.Errorf("optimistic reads = %d, want 17", tx.OptimisticReads())
		}
		return nil
	}
	if err := m.RunReadOnly(app, 3, read); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.RunReadOnly(app, 3, read); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RunReadOnly allocs = %v", allocs)
	if allocs > 2 {
		t.Fatalf("RunReadOnly allocs = %v, want ≤ 2", allocs)
	}
}
