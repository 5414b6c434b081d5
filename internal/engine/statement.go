package engine

import (
	"context"
	"fmt"

	"repro/internal/lockmgr"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Stmt is a structured statement: the engine's stand-in for a compiled SQL
// statement. Execution chooses the locking granularity the way section 3.6
// describes — the compiler's stable lock-memory view decides between row
// locking and table locking at "compile time" (Exec entry), and the actual
// footprint is fed back to the learning extension.
type Stmt struct {
	// Class identifies the statement for the compiler's learning
	// extension (e.g. "neworder.stock", "report.scan").
	Class string
	// Table is the target table.
	Table *storage.Table
	// Rows lists point accesses; Scan describes a range instead.
	Rows []uint64
	// Scan, if non-nil, reads Count rows starting at Start, locking in
	// ChunkRows-row chunks (each chunk accounts ChunkRows structures).
	Scan *ScanRange
	// Update locks in X mode (writes); otherwise S (reads).
	Update bool
}

// ScanRange describes a range scan.
type ScanRange struct {
	Start, Count uint64
	// ChunkRows is the rows covered per lock request (default 64).
	ChunkRows int
}

// footprint returns the statement's estimated row-lock footprint.
func (s Stmt) footprint() int {
	if s.Scan != nil {
		return int(s.Scan.Count)
	}
	return len(s.Rows)
}

func (s Stmt) mode() lockmgr.Mode {
	if s.Update {
		return lockmgr.ModeX
	}
	return lockmgr.ModeS
}

// Exec runs the statement under tx. The granularity decision is made from
// the compiler's stable sqlCompilerLockMem view — not the instantaneous
// allocation — so plans stay on row locking and leave the runtime tuner
// room to avoid escalation. It returns whether row locking was used.
func (db *Database) Exec(ctx context.Context, tx *txn.Txn, s Stmt) (rowLocking bool, err error) {
	if s.Table == nil {
		return false, fmt.Errorf("engine: statement %q has no table", s.Class)
	}
	fp := s.footprint()
	w := tx.Owner().App().ID()
	rowLocking = db.comp.ChooseRowLocking(s.Class, fp)
	defer func() {
		if err == nil {
			db.comp.Observe(s.Class, fp)
		}
	}()

	if !rowLocking {
		// Table-granularity plan: one lock covers the statement.
		if err := tx.LockTable(ctx, s.Table.ID, s.mode()); err != nil {
			return false, err
		}
		db.touchSpan(w, s)
		return false, nil
	}

	if s.Scan != nil {
		chunk := s.Scan.ChunkRows
		if chunk <= 0 {
			chunk = 64
		}
		for off := uint64(0); off < s.Scan.Count; off += uint64(chunk) {
			n := uint64(chunk)
			if s.Scan.Count-off < n {
				n = s.Scan.Count - off
			}
			row := s.Scan.Start + off
			db.touch(w, s.Table, row)
			if err := tx.LockRange(ctx, s.Table.ID, row, s.mode(), int(n)); err != nil {
				return true, err
			}
		}
		return true, nil
	}
	for _, row := range s.Rows {
		db.touch(w, s.Table, row)
	}
	return true, tx.LockRows(ctx, s.Table.ID, s.Rows, s.mode())
}

// touchSpan simulates the page accesses of a table-granularity plan by
// session w.
func (db *Database) touchSpan(w int, s Stmt) {
	if s.Scan != nil {
		// Touch one page per 64 rows of the range (bounded).
		n := s.Scan.Count
		if n > 1<<14 {
			n = 1 << 14
		}
		for off := uint64(0); off < n; off += 64 {
			db.touch(w, s.Table, s.Scan.Start+off)
		}
		return
	}
	for _, row := range s.Rows {
		db.touch(w, s.Table, row)
	}
}
