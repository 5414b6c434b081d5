package txn

import (
	"context"
	"errors"
	"testing"

	"repro/internal/lockmgr"
)

func newManagers() (*Manager, *lockmgr.Manager) {
	lm := lockmgr.New(lockmgr.Config{InitialPages: 32 * 8})
	return NewManager(lm), lm
}

func TestCommitReleasesLocks(t *testing.T) {
	m, lm := newManagers()
	app := lm.RegisterApp()
	tx := m.Begin(app)
	if err := tx.LockRow(context.Background(), 1, 10, lockmgr.ModeX); err != nil {
		t.Fatal(err)
	}
	if got := lm.UsedStructs(); got != 2 { // intent + row
		t.Fatalf("used = %d, want 2", got)
	}
	tx.Commit()
	if tx.State() != StateCommitted {
		t.Fatalf("state = %v", tx.State())
	}
	if got := lm.UsedStructs(); got != 0 {
		t.Fatalf("used after commit = %d", got)
	}
	commits, aborts, active := m.Stats()
	if commits != 1 || aborts != 0 || active != 0 {
		t.Fatalf("stats = %d/%d/%d", commits, aborts, active)
	}
}

func TestAbortReleasesLocks(t *testing.T) {
	m, lm := newManagers()
	tx := m.Begin(lm.RegisterApp())
	if err := tx.LockRow(context.Background(), 1, 10, lockmgr.ModeS); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if tx.State() != StateAborted {
		t.Fatalf("state = %v", tx.State())
	}
	if got := lm.UsedStructs(); got != 0 {
		t.Fatalf("used after abort = %d", got)
	}
}

func TestFinishIsIdempotent(t *testing.T) {
	m, lm := newManagers()
	tx := m.Begin(lm.RegisterApp())
	tx.Commit()
	tx.Abort() // must not flip the state or double count
	if tx.State() != StateCommitted {
		t.Fatalf("state = %v", tx.State())
	}
	commits, aborts, _ := m.Stats()
	if commits != 1 || aborts != 0 {
		t.Fatalf("stats = %d/%d", commits, aborts)
	}
}

func TestLockAfterFinishFails(t *testing.T) {
	m, lm := newManagers()
	tx := m.Begin(lm.RegisterApp())
	tx.Commit()
	if err := tx.LockRow(context.Background(), 1, 1, lockmgr.ModeS); !errors.Is(err, ErrNotActive) {
		t.Fatalf("err = %v, want ErrNotActive", err)
	}
	if err := tx.LockTable(context.Background(), 1, lockmgr.ModeS); !errors.Is(err, ErrNotActive) {
		t.Fatalf("err = %v, want ErrNotActive", err)
	}
	op := tx.AcquireRow(1, 1, lockmgr.ModeS, 1)
	if op.Poll() != OpDenied || !errors.Is(op.Err(), ErrNotActive) {
		t.Fatalf("op = %v err=%v", op.Poll(), op.Err())
	}
}

func TestLockRowTakesIntentFirst(t *testing.T) {
	m, lm := newManagers()
	// Another transaction holds table X: LockRow must block at the intent
	// lock. Use the async API to observe the waiting state.
	blocker := m.Begin(lm.RegisterApp())
	if err := blocker.LockTable(context.Background(), 1, lockmgr.ModeX); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin(lm.RegisterApp())
	op := tx.AcquireRow(1, 5, lockmgr.ModeS, 1)
	if op.Poll() != OpWaiting {
		t.Fatalf("op state = %v, want waiting at intent", op.Poll())
	}
	blocker.Commit()
	if op.Poll() != OpGranted {
		t.Fatalf("op state = %v after blocker commit", op.Poll())
	}
	if tx.RowsLocked() != 1 {
		t.Fatalf("rows locked = %d", tx.RowsLocked())
	}
	tx.Commit()
}

func TestAcquireRowImmediateGrant(t *testing.T) {
	m, lm := newManagers()
	tx := m.Begin(lm.RegisterApp())
	op := tx.AcquireRow(2, 7, lockmgr.ModeX, 1)
	if op.Poll() != OpGranted {
		t.Fatalf("op = %v err=%v", op.Poll(), op.Err())
	}
	// Second phase ran: both intent and row held.
	if got := lm.UsedStructs(); got != 2 {
		t.Fatalf("used = %d, want 2", got)
	}
	tx.Commit()
}

func TestAcquireRowSecondPhaseBlocks(t *testing.T) {
	m, lm := newManagers()
	holder := m.Begin(lm.RegisterApp())
	if err := holder.LockRow(context.Background(), 1, 5, lockmgr.ModeX); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin(lm.RegisterApp())
	op := tx.AcquireRow(1, 5, lockmgr.ModeS, 1)
	// Intent (IS vs IX) grants; row blocks.
	if op.Poll() != OpWaiting {
		t.Fatalf("op = %v, want waiting at row", op.Poll())
	}
	holder.Commit()
	if op.Poll() != OpGranted {
		t.Fatalf("op = %v", op.Poll())
	}
	tx.Commit()
}

func TestAcquireTable(t *testing.T) {
	m, lm := newManagers()
	tx := m.Begin(lm.RegisterApp())
	op := tx.AcquireTable(4, lockmgr.ModeS)
	if op.Poll() != OpGranted {
		t.Fatalf("op = %v", op.Poll())
	}
	if got := lm.UsedStructs(); got != 1 {
		t.Fatalf("used = %d, want 1", got)
	}
	tx.Commit()
}

func TestWeightedAcquire(t *testing.T) {
	m, lm := newManagers()
	tx := m.Begin(lm.RegisterApp())
	op := tx.AcquireRow(1, 0, lockmgr.ModeS, 64)
	if op.Poll() != OpGranted {
		t.Fatalf("op = %v err=%v", op.Poll(), op.Err())
	}
	if got := lm.UsedStructs(); got != 65 { // 64 + intent
		t.Fatalf("used = %d, want 65", got)
	}
	tx.Commit()
}

func TestAbortWhileWaitingDeniesOp(t *testing.T) {
	m, lm := newManagers()
	holder := m.Begin(lm.RegisterApp())
	if err := holder.LockRow(context.Background(), 1, 5, lockmgr.ModeX); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin(lm.RegisterApp())
	op := tx.AcquireRow(1, 5, lockmgr.ModeX, 1)
	if op.Poll() != OpWaiting {
		t.Fatalf("op = %v", op.Poll())
	}
	tx.Abort()
	if op.Poll() != OpDenied {
		t.Fatalf("op after abort = %v", op.Poll())
	}
	holder.Commit()
	if got := lm.UsedStructs(); got != 0 {
		t.Fatalf("used = %d", got)
	}
}

func TestStateStrings(t *testing.T) {
	if StateActive.String() != "active" || StateCommitted.String() != "committed" ||
		StateAborted.String() != "aborted" || State(7).String() != "State(7)" {
		t.Fatal("state strings wrong")
	}
}

func TestLockRange(t *testing.T) {
	m, lm := newManagers()
	tx := m.Begin(lm.RegisterApp())
	if err := tx.LockRange(context.Background(), 5, 100, lockmgr.ModeS, 64); err != nil {
		t.Fatal(err)
	}
	// 64 structures for the range + 1 intent.
	if got := lm.UsedStructs(); got != 65 {
		t.Fatalf("structs = %d, want 65", got)
	}
	if got := tx.RowsLocked(); got != 64 {
		t.Fatalf("rows locked = %d, want 64", got)
	}
	if err := tx.LockRange(context.Background(), 5, 200, lockmgr.ModeX, 0); err == nil {
		t.Fatal("zero-weight range accepted")
	}
	tx.Commit()
	if err := tx.LockRange(context.Background(), 5, 0, lockmgr.ModeS, 8); !errors.Is(err, ErrNotActive) {
		t.Fatalf("err = %v, want ErrNotActive", err)
	}
	if got := lm.UsedStructs(); got != 0 {
		t.Fatalf("leak: %d", got)
	}
}

func TestAcquireTableBlocksAndResolves(t *testing.T) {
	m, lm := newManagers()
	holder := m.Begin(lm.RegisterApp())
	if err := holder.LockTable(context.Background(), 9, lockmgr.ModeX); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin(lm.RegisterApp())
	op := tx.AcquireTable(9, lockmgr.ModeS)
	if op.Poll() != OpWaiting {
		t.Fatalf("op = %v, want waiting", op.Poll())
	}
	holder.Commit()
	if op.Poll() != OpGranted {
		t.Fatalf("op = %v after holder commit", op.Poll())
	}
	tx.Commit()
}

// admissions is the lock manager's admission funnel total.
func admissions(lm *lockmgr.Manager) int64 {
	return lm.FastPathHits() + lm.FastPathFallbacks() + lm.OptimisticHits()
}

// TestLockRowsBatchesUnderRR: under repeatable read a statement's rows
// cost one intent request and one admission per row (LockRow per row would
// make two per row), duplicates included, and every row is held.
func TestLockRowsBatchesUnderRR(t *testing.T) {
	m, lm := newManagers()
	tx := m.Begin(lm.RegisterApp())
	rows := []uint64{7, 3, 7, 12}
	a0 := admissions(lm)
	if err := tx.LockRows(context.Background(), 1, rows, lockmgr.ModeX); err != nil {
		t.Fatal(err)
	}
	if got := admissions(lm) - a0; got != 1+int64(len(rows)) {
		t.Fatalf("%d admissions for a %d-row statement, want %d", got, len(rows), 1+len(rows))
	}
	if tx.RowsLocked() != int64(len(rows)) {
		t.Fatalf("rows locked = %d, want %d", tx.RowsLocked(), len(rows))
	}
	if got := lm.UsedStructs(); got != 4 { // intent + three distinct rows
		t.Fatalf("structs = %d, want 4", got)
	}
	for _, r := range rows {
		if got := lm.HeldMode(tx.Owner(), lockmgr.RowName(1, r)); got != lockmgr.ModeX {
			t.Fatalf("row %d held in %v, want X", r, got)
		}
	}
	tx.Commit()
	if err := tx.LockRows(context.Background(), 1, rows, lockmgr.ModeX); !errors.Is(err, ErrNotActive) {
		t.Fatalf("LockRows after commit: %v, want ErrNotActive", err)
	}
	if got := lm.UsedStructs(); got != 0 {
		t.Fatalf("leak: %d", got)
	}
}

// TestLockRowsKeepsPerRowDisciplines: cursor stability, uncommitted read
// and read-only keep LockRow's per-row behaviour under LockRows.
func TestLockRowsKeepsPerRowDisciplines(t *testing.T) {
	ctx := context.Background()
	m, lm := newManagers()
	rows := []uint64{1, 2, 3, 4}

	cs := m.Begin(lm.RegisterApp())
	if err := cs.SetIsolation(CursorStability); err != nil {
		t.Fatal(err)
	}
	if err := cs.LockRows(ctx, 1, rows, lockmgr.ModeS); err != nil {
		t.Fatal(err)
	}
	if got := lm.UsedStructs(); got != 2 { // intent + current cursor
		t.Fatalf("CS: structs = %d, want 2", got)
	}
	cs.Commit()

	ur := m.Begin(lm.RegisterApp())
	if err := ur.SetIsolation(UncommittedRead); err != nil {
		t.Fatal(err)
	}
	if err := ur.LockRows(ctx, 1, rows, lockmgr.ModeS); err != nil {
		t.Fatal(err)
	}
	if got := lm.UsedStructs(); got != 1 { // intent only
		t.Fatalf("UR: structs = %d, want 1", got)
	}
	ur.Commit()

	ro := m.Begin(lm.RegisterApp())
	if err := ro.SetIsolation(ReadOnly); err != nil {
		t.Fatal(err)
	}
	if err := ro.LockRows(ctx, 1, rows, lockmgr.ModeX); !errors.Is(err, ErrReadOnlyWrite) {
		t.Fatalf("RO write: %v, want ErrReadOnlyWrite", err)
	}
	ro.Abort()
	if got := lm.UsedStructs(); got != 0 {
		t.Fatalf("leak: %d", got)
	}
}
