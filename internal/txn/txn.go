// Package txn implements strict two-phase-locking transactions over the
// lock manager. A transaction holds a table's intent lock before it locks
// any of the table's rows (the multigranularity protocol escalation relies
// on) and releases everything at commit or abort.
//
// Two acquisition styles are provided:
//
//   - LockTable / LockRow / LockRows / LockRange: blocking calls for
//     goroutine-per-connection use; LockRows takes one statement's rows
//     as a batch behind a single intent request;
//   - AcquireRow / AcquireTable returning an *Op that a discrete simulation
//     polls each tick, so thousands of clients can run deterministically on
//     one goroutine.
package txn

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/lockmgr"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// State is a transaction's lifecycle state.
type State uint8

const (
	// StateActive — running, may acquire locks.
	StateActive State = iota
	// StateCommitted — finished successfully; locks released.
	StateCommitted
	// StateAborted — rolled back; locks released.
	StateAborted
)

func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// ErrNotActive is returned when locking on a finished transaction.
var ErrNotActive = errors.New("txn: transaction not active")

// Manager creates transactions bound to a lock manager. Begin and
// commit/abort sit on the transaction fast path, so each counts in the
// cell of the transaction's application (metrics.ShardCounters.Writer):
// sessions on different cores write no common counter line.
type Manager struct {
	locks *lockmgr.Manager

	begins  *metrics.ShardCounters
	commits *metrics.ShardCounters
	aborts  *metrics.ShardCounters
}

// NewManager returns a transaction manager over the given lock manager.
func NewManager(locks *lockmgr.Manager) *Manager {
	return &Manager{
		locks:   locks,
		begins:  metrics.NewWriterCounters("transactions begun"),
		commits: metrics.NewWriterCounters("transactions committed"),
		aborts:  metrics.NewWriterCounters("transactions aborted"),
	}
}

// Stats returns cumulative commits and aborts and the active count, the
// transactions begun and not yet finished. The sums are exact once the
// sessions are quiescent and fuzzy under traffic — fine for monitoring,
// which is their only caller.
func (m *Manager) Stats() (commits, aborts int64, active int) {
	commits, aborts = m.commits.Total(), m.aborts.Total()
	return commits, aborts, int(m.begins.Total() - commits - aborts)
}

// Txn is one transaction. Not safe for concurrent use by multiple
// goroutines (like a database connection).
type Txn struct {
	mgr   *Manager
	owner *lockmgr.Owner
	state State

	isolation Isolation
	cursor    *lockmgr.Name // CS: the currently locked cursor position

	// RO: optimistic read tokens awaiting commit validation, plus a
	// one-entry cache of the table whose IS token is already stamped
	// (scans revisit one table; a map would be overkill).
	tokens     []lockmgr.OptToken
	tokTable   uint32
	tokTableOK bool

	rowsLocked int64
}

// Begin starts a transaction for the given application.
func (m *Manager) Begin(app *lockmgr.App) *Txn {
	m.begins.Writer(app.ID()).Inc()
	return &Txn{mgr: m, owner: m.locks.NewOwner(app)}
}

// State returns the transaction state.
func (t *Txn) State() State { return t.state }

// RowsLocked returns the number of row-lock acquisitions performed.
func (t *Txn) RowsLocked() int64 { return t.rowsLocked }

// Owner exposes the underlying lock owner (for diagnostics).
func (t *Txn) Owner() *lockmgr.Owner { return t.owner }

func (t *Txn) finish(to State, committed bool) {
	if t.state != StateActive {
		return
	}
	t.state = to
	app := t.owner.App().ID()
	// finish runs at most once (state guard) and the Txn owns its lock
	// owner exclusively, so the owner can be handed back for recycling.
	t.mgr.locks.FinishOwner(t.owner)
	if committed {
		t.mgr.commits.Writer(app).Inc()
	} else {
		t.mgr.aborts.Writer(app).Inc()
	}
}

// Commit ends the transaction, releasing all locks. Idempotent. A
// ReadOnly transaction validates its optimistic read tokens here and
// silently aborts when one fails — callers that need the verdict use
// CommitValidated (or RunReadOnly, which retries).
func (t *Txn) Commit() {
	if len(t.tokens) > 0 && t.state == StateActive && !t.validateTokens() {
		t.finish(StateAborted, false)
		return
	}
	t.finish(StateCommitted, true)
}

// Abort rolls the transaction back, releasing all locks. Idempotent.
func (t *Txn) Abort() { t.finish(StateAborted, false) }

// LockTable blocks until a table lock of the given mode is held.
func (t *Txn) LockTable(ctx context.Context, table storage.TableID, mode lockmgr.Mode) error {
	if t.state != StateActive {
		return ErrNotActive
	}
	if t.isolation == ReadOnly {
		if mode != lockmgr.ModeS && mode != lockmgr.ModeIS {
			return ErrReadOnlyWrite
		}
		if tok, ok := t.mgr.locks.TryOptimisticRead(t.owner.App(), lockmgr.TableName(uint32(table)), mode); ok {
			t.tokens = append(t.tokens, tok)
			return nil
		}
	}
	return t.mgr.locks.Acquire(ctx, t.owner, lockmgr.TableName(uint32(table)), mode, 1)
}

// LockRow blocks until the row lock (and its table intent lock) is held:
// it requests the intent lock, then the row lock. Under CursorStability an
// S lock releases the previous cursor position; under UncommittedRead S
// reads take only the table intent lock.
func (t *Txn) LockRow(ctx context.Context, table storage.TableID, row uint64, mode lockmgr.Mode) error {
	if t.state != StateActive {
		return ErrNotActive
	}
	if t.isolation == ReadOnly {
		if mode != lockmgr.ModeS {
			return ErrReadOnlyWrite
		}
		if tt, rt, ok := t.readOptimisticRow(table, row); ok {
			t.noteTokens(table, tt, rt)
			return nil
		}
		// Token miss (unpublished header, conflicting holder, fence):
		// fall through to the locking tiers below; the real S lock is
		// held to commit and cannot be invalidated.
	}
	intent := lockmgr.IntentFor(mode)
	if err := t.mgr.locks.Acquire(ctx, t.owner, lockmgr.TableName(uint32(table)), intent, 1); err != nil {
		return fmt.Errorf("txn: intent lock: %w", err)
	}
	if mode == lockmgr.ModeS && !t.applyIsolationBeforeRead(table, row) {
		return nil // UR: no row lock
	}
	if err := t.mgr.locks.Acquire(ctx, t.owner, lockmgr.RowName(uint32(table), row), mode, 1); err != nil {
		return err
	}
	t.rowsLocked++
	if mode == lockmgr.ModeS {
		t.noteRead(table, row)
	}
	return nil
}

// LockRows blocks until every row lock of one statement, and the table
// intent lock, is held. Under RepeatableRead and ReadStability it requests
// the intent lock once and admits the rows as one lockmgr.AcquireRows
// batch, which holds them in rows' order just as a LockRow per row would;
// the other isolation levels run LockRow per row. On error the rows before
// the failing one stay held.
func (t *Txn) LockRows(ctx context.Context, table storage.TableID, rows []uint64, mode lockmgr.Mode) error {
	if t.state != StateActive {
		return ErrNotActive
	}
	if t.isolation != RepeatableRead && t.isolation != ReadStability {
		for _, row := range rows {
			if err := t.LockRow(ctx, table, row, mode); err != nil {
				return err
			}
		}
		return nil
	}
	if len(rows) == 0 {
		return nil
	}
	if err := t.mgr.locks.Acquire(ctx, t.owner, lockmgr.TableName(uint32(table)), lockmgr.IntentFor(mode), 1); err != nil {
		return fmt.Errorf("txn: intent lock: %w", err)
	}
	n, err := t.mgr.locks.AcquireRows(ctx, t.owner, uint32(table), rows, mode)
	t.rowsLocked += int64(n)
	return err
}

// OpState is the state of a polled lock operation.
type OpState uint8

const (
	// OpWaiting — still blocked; poll again next tick.
	OpWaiting OpState = iota
	// OpGranted — all locks held.
	OpGranted
	// OpDenied — failed; see Err.
	OpDenied
)

// Op is a two-phase (intent, then row) lock acquisition driven by polling.
type Op struct {
	txn     *Txn
	table   uint32
	row     uint64
	mode    lockmgr.Mode
	weight  int
	rowOp   bool
	phase   int // 0 = intent in flight, 1 = row in flight
	pending *lockmgr.Pending
	state   OpState
	err     error
}

// AcquireRow starts acquiring a row lock (intent lock first) of the given
// mode and weight. Poll the returned Op each tick until it completes.
func (t *Txn) AcquireRow(table storage.TableID, row uint64, mode lockmgr.Mode, weight int) *Op {
	op := &Op{txn: t, table: uint32(table), row: row, mode: mode, weight: weight, rowOp: true}
	if t.state != StateActive {
		op.state, op.err = OpDenied, ErrNotActive
		return op
	}
	if t.isolation == ReadOnly {
		if mode != lockmgr.ModeS {
			op.state, op.err = OpDenied, ErrReadOnlyWrite
			return op
		}
		if tt, rt, ok := t.readOptimisticRow(table, row); ok {
			// Zero-CAS hit: the op completes instantly with no Pending at
			// all — nothing was acquired, so there is nothing to poll.
			t.noteTokens(table, tt, rt)
			op.state = OpGranted
			return op
		}
	}
	if mode == lockmgr.ModeS && !t.applyIsolationBeforeRead(table, row) {
		op.rowOp = false // UR: the intent lock is the whole operation
	}
	op.pending = t.mgr.locks.AcquireAsync(t.owner, lockmgr.TableName(op.table), lockmgr.IntentFor(mode), 1)
	op.Poll()
	return op
}

// AcquireTable starts acquiring a table lock of the given mode.
func (t *Txn) AcquireTable(table storage.TableID, mode lockmgr.Mode) *Op {
	op := &Op{txn: t, table: uint32(table), mode: mode, weight: 1, phase: 1}
	if t.state != StateActive {
		op.state, op.err = OpDenied, ErrNotActive
		return op
	}
	op.pending = t.mgr.locks.AcquireAsync(t.owner, lockmgr.TableName(op.table), mode, 1)
	op.Poll()
	return op
}

// Poll advances the operation and returns its state. Safe to call after
// completion.
func (op *Op) Poll() OpState {
	for {
		if op.state != OpWaiting {
			return op.state
		}
		st, err := op.pending.Status()
		switch st {
		case lockmgr.StatusWaiting:
			return OpWaiting
		case lockmgr.StatusDenied:
			op.state, op.err = OpDenied, err
			return op.state
		}
		// Granted: advance the phase.
		if op.phase == 0 && op.rowOp {
			op.phase = 1
			op.pending = op.txn.mgr.locks.AcquireAsync(
				op.txn.owner, lockmgr.RowName(op.table, op.row), op.mode, op.weight)
			continue
		}
		op.state = OpGranted
		if op.rowOp {
			op.txn.rowsLocked++
			if op.mode == lockmgr.ModeS {
				op.txn.noteRead(storage.TableID(op.table), op.row)
			}
		}
		return op.state
	}
}

// Err returns the denial reason after OpDenied.
func (op *Op) Err() error { return op.err }

// LockRange blocks until a weighted row lock covering `rows` contiguous
// rows starting at row is held (one lock request accounting `rows` lock
// structures), plus the table intent lock. Range locks follow the write
// discipline: they are held to commit regardless of isolation level.
func (t *Txn) LockRange(ctx context.Context, table storage.TableID, row uint64, mode lockmgr.Mode, rows int) error {
	if t.state != StateActive {
		return ErrNotActive
	}
	if rows < 1 {
		return fmt.Errorf("txn: invalid range weight %d", rows)
	}
	if t.isolation == ReadOnly {
		if mode != lockmgr.ModeS {
			return ErrReadOnlyWrite
		}
		// A token carries no weight — it consumes no lock structures —
		// so a range read is the same single-header seqlock read as a row
		// read.
		if tt, rt, ok := t.readOptimisticRow(table, row); ok {
			t.noteTokens(table, tt, rt)
			return nil
		}
	}
	intent := lockmgr.IntentFor(mode)
	if err := t.mgr.locks.Acquire(ctx, t.owner, lockmgr.TableName(uint32(table)), intent, 1); err != nil {
		return fmt.Errorf("txn: intent lock: %w", err)
	}
	if err := t.mgr.locks.Acquire(ctx, t.owner, lockmgr.RowName(uint32(table), row), mode, rows); err != nil {
		return err
	}
	t.rowsLocked += int64(rows)
	return nil
}
