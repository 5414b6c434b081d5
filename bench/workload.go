package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/lockmgr"
	"repro/internal/txn"
)

// workload is one named load shape. The names are fixed: later issues refer
// to them.
type workload struct {
	name string
	// sessions is the closed-loop session count on an nproc-core box.
	sessions func(nproc int) int
	// dbPages is engine.Config.DatabasePages.
	dbPages int
	// ringLog2 sizes each session's input ring.
	ringLog2 uint
	// seamTxns is the fixed transaction count each session replays at each
	// layer seam (0: the workload has no seam replay).
	seamTxns int
	// seamSessions lists the session counts the seams are replayed at.
	seamSessions func(nproc int) []int
}

const (
	scanRows      = 4_194_304 // Fig 11's reporting query: 65 536 weighted requests
	scanChunk     = 64
	scanTunePause = 12 // tuning passes between scans; δreduce^12 ≈ 0.54
)

func oneAndN(nproc int) []int {
	if nproc == 1 {
		return []int{1}
	}
	return []int{1, nproc}
}

var workloads = []*workload{
	{
		name:         "tpcc",
		sessions:     func(n int) int { return n },
		dbPages:      131072,
		ringLog2:     16,
		seamTxns:     16384,
		seamSessions: oneAndN,
	},
	{
		name:         "readmostly",
		sessions:     func(n int) int { return n },
		dbPages:      131072,
		ringLog2:     16,
		seamTxns:     65536,
		seamSessions: oneAndN,
	},
	{
		name:         "hotrow",
		sessions:     func(n int) int { return 16 * n },
		dbPages:      131072,
		ringLog2:     12,
		seamTxns:     2048,
		seamSessions: func(n int) []int { return []int{16 * n} },
	},
	{
		name: "dss_surge",
		sessions: func(n int) int {
			if n < 2 {
				return 2
			}
			return n
		},
		dbPages:  1_340_000,
		ringLog2: 16,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is one opened engine with its connected sessions and their inputs.
type env struct {
	w        *workload
	db       *engine.Database
	ts       tableSet
	sessions []*session
	genNs    int64 // input generation time, all sessions
	genTxns  int64
}

// setupEnv is what setup_s times: engine.Open, hot-set warm-up and input
// generation.
func setupEnv(w *workload, seed int64, nproc int) (*env, error) {
	db, err := engine.Open(engine.Config{DatabasePages: w.dbPages, LockTimeout: 10 * time.Second})
	if err != nil {
		return nil, fmt.Errorf("engine.Open: %w", err)
	}
	e := &env{w: w, db: db}
	if e.ts, err = lookupTables(db.Catalog()); err != nil {
		return nil, err
	}
	if w.name == "readmostly" {
		if err := warmHotSet(e); err != nil {
			return nil, fmt.Errorf("hot-set warm-up: %w", err)
		}
	}
	n := w.sessions(nproc)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s := &session{id: i, env: e, conn: db.Connect(), ctx: context.Background()}
		s.scanner = w.name == "dss_surge" && i == 0
		if !s.scanner {
			s.ring = genRing(w, &e.ts, seed, i, 1<<w.ringLog2)
			e.genTxns += int64(len(s.ring.txns))
		}
		s.roFn = s.readOnlyBody
		e.sessions = append(e.sessions, s)
	}
	e.genNs = time.Since(t0).Nanoseconds()
	return e, nil
}

// warmHotSet holds S on every hot row from two transactions at once. A row
// header is published to the latch-free tiers only once it has two holders,
// so without this the read-token tier would never be reached.
func warmHotSet(e *env) error {
	rows := make([]uint64, hotSetRows)
	for i := range rows {
		rows[i] = uint64(i)
	}
	st := engine.Stmt{Class: "warm.item", Table: e.ts[tItem], Rows: rows}
	a, b := e.db.Connect(), e.db.Connect()
	ta, tb := a.Begin(), b.Begin()
	_, errA := e.db.Exec(context.Background(), ta, st)
	_, errB := e.db.Exec(context.Background(), tb, st)
	ta.Commit()
	tb.Commit()
	if errA != nil {
		return errA
	}
	if errB != nil {
		return errB
	}
	if err := a.Close(); err != nil {
		return err
	}
	return b.Close()
}

func (e *env) close() error {
	for _, s := range e.sessions {
		if err := s.conn.Close(); err != nil {
			return err
		}
	}
	return nil
}

// session is one closed-loop client: it issues its next transaction when
// the previous one returns.
type session struct {
	id      int
	env     *env
	conn    *engine.Conn
	ctx     context.Context
	ring    *ring
	pos     int
	scanner bool

	// RunReadOnly reruns its body; cur is the statement it runs and roCalls
	// counts the runs of the current call.
	cur     engine.Stmt
	roFn    func(*txn.Txn) error
	roCalls int
	roHist  [8]int64 // RunReadOnly calls by number of body runs

	lat         samples
	spans       spanBuf
	cycles      []scanCycle // scanner only
	scanCommits int64
}

func (s *session) stmt(t genTxn, g genStmt) engine.Stmt {
	return engine.Stmt{
		Class:  classes[t.kind][g.table],
		Table:  s.env.ts[g.table],
		Rows:   s.ring.rowsOf(g),
		Update: g.update,
	}
}

func (s *session) readOnlyBody(tx *txn.Txn) error {
	s.roCalls++
	_, err := s.env.db.Exec(s.ctx, tx, s.cur)
	return err
}

// runTxn executes one generated transaction through the engine and reports
// when it returned and whether it committed. start is when it was issued;
// with trace set the calls into the engine are recorded as spans.
func (s *session) runTxn(r *run, t genTxn, start int64, trace bool) (end int64, ok bool) {
	db := s.env.db
	var root int
	if trace {
		root = s.spans.open(s.pos, t.kind)
	}
	if t.kind == kRead {
		s.cur = s.stmt(t, s.ring.stmts[t.stmt])
		s.roCalls = 0
		err := db.Txns().RunReadOnly(s.conn.App(), 3, s.roFn)
		if n := s.roCalls; n < len(s.roHist) {
			s.roHist[n]++
		}
		end = r.now()
		if trace {
			s.spans.child(root, spanExec, uint8(tItem), len(s.cur.Rows), start, end)
			s.spans.close(root, start, end)
		}
		return end, err == nil
	}
	tx := s.conn.Begin()
	at := start
	if trace {
		now := r.now()
		s.spans.child(root, spanBegin, 0, 0, at, now)
		at = now
	}
	for _, g := range s.ring.stmtsOf(t) {
		_, err := db.Exec(s.ctx, tx, s.stmt(t, g))
		if trace {
			now := r.now()
			s.spans.child(root, spanExec, g.table, int(g.n), at, now)
			at = now
		}
		if err != nil {
			tx.Abort()
			end = r.now()
			if trace {
				s.spans.close(root, start, end)
			}
			return end, false
		}
	}
	if t.kind == kHot {
		// The log or I/O wait a real transaction makes with its locks held;
		// without it a closed loop on few cores barely queues.
		runtime.Gosched()
		if trace {
			at = r.now()
		}
	}
	tx.Commit()
	end = r.now()
	if trace {
		s.spans.child(root, spanCommit, 0, 0, at, end)
		s.spans.close(root, start, end)
	}
	return end, true
}

// loop is the closed loop of an OLTP session.
func (s *session) loop(r *run) {
	mask := len(s.ring.txns) - 1
	last := r.now()
	for !r.stop.Load() {
		t := s.ring.txns[s.pos&mask]
		end, ok := s.runTxn(r, t, last, r.tracing.Load())
		s.pos++
		flag := t.kind == kWrite || (t.kind == kBystand && r.scanning.Load())
		s.lat.record(end, end-last, ok, flag)
		last = end
	}
	s.lat.finish(r.totalWindows)
}

// scanCycle is one pass of the dss_surge scanner.
type scanCycle struct {
	start, end  int64 // the Exec of the scan
	ok          bool  // row locking used and no error
	usedStructs num   // lock structures in use when the scan returned
	pagesPeak   num   // most lock pages of the cycle
	pagesAfter  num   // lock pages scanTunePause tuning passes after commit
}

// scanLoop is the dss_surge reporting session: scan, commit, idle for
// exactly scanTunePause tuning passes, repeat.
func (s *session) scanLoop(r *run) {
	db := s.env.db
	st := engine.Stmt{
		Class: "report.lineitem",
		Table: s.env.ts[tLineitem],
		Scan:  &engine.ScanRange{Count: scanRows, ChunkRows: scanChunk},
	}
	// The first scan grows lock memory from its minimum; it belongs to the
	// measured phase, not the warm-up.
	r.sleepUntil(r.warmEnd)
	for !r.stop.Load() {
		var c scanCycle
		r.ctl.resetPagesMax()
		tx := s.conn.Begin()
		r.scanning.Store(true)
		c.start = r.now()
		rowLocking, err := db.Exec(s.ctx, tx, st)
		c.end = r.now()
		r.scanning.Store(false)
		c.ok = err == nil && rowLocking
		sc := scrapeDB(db)
		c.usedStructs, c.pagesPeak = sc.sum("lockmem_lock_structs_used"), sc.sum("lockmem_lock_pages")
		if err != nil {
			tx.Abort()
		} else {
			tx.Commit()
			s.scanCommits++
		}
		if r.ctl.waitTunes(scanTunePause) {
			c.pagesAfter = scrapeDB(db).sum("lockmem_lock_pages")
		}
		// A tuning pass that lands while the scan's locks are held grows
		// the memory past what the scan itself needed.
		c.pagesPeak = maxNum(c.pagesPeak, r.ctl.pagesSince())
		s.cycles = append(s.cycles, c)
	}
}

// Seam bodies: the same generated transaction driven straight into one
// layer's public entry points.

// seamTxn drives the transaction layer: LockRow per row, Commit.
func (s *session) seamTxn(t genTxn) bool {
	if t.kind == kRead {
		g := s.ring.stmts[t.stmt]
		err := s.env.db.Txns().RunReadOnly(s.conn.App(), 3, func(tx *txn.Txn) error {
			for _, row := range s.ring.rowsOf(g) {
				if err := tx.LockRow(s.ctx, s.env.ts[g.table].ID, row, lockmgr.ModeS); err != nil {
					return err
				}
			}
			return nil
		})
		return err == nil
	}
	tx := s.conn.Begin()
	for _, g := range s.ring.stmtsOf(t) {
		mode := lockmgr.ModeS
		if g.update {
			mode = lockmgr.ModeX
		}
		for _, row := range s.ring.rowsOf(g) {
			if err := tx.LockRow(s.ctx, s.env.ts[g.table].ID, row, mode); err != nil {
				tx.Abort()
				return false
			}
		}
	}
	if t.kind == kHot {
		runtime.Gosched()
	}
	tx.Commit()
	return true
}
