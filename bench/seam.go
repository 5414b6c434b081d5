package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/lockmgr"
	"repro/internal/memblock"
)

// Seam replay: the same generated transactions, a fixed count of them,
// driven at 1 and at nproc sessions straight into each layer's public entry
// — Exec, then Txn.LockRow/Commit, then Manager.Acquire/FinishOwner, then
// the buffer pool and a memblock chain with the same counts. A layer's self
// time is its seam's time minus the seams below it. The layers are timed
// under the contention the replaying sessions make for each other, which
// stubbing the lower layers out would remove.

// seam is one layer replayed at one session count.
type seam struct {
	txns     int64
	failed   int64
	commits  int64 // through the transaction layer
	ns       int64 // session time, summed over sessions
	rows     int64
	requests int64 // lockmgr: Acquire calls
	acqNs    int64 // lockmgr: in Acquire
	relNs    int64 // lockmgr: in FinishOwner
	hits     int64 // bufferpool: Access hits
}

func (m seam) nsPerTxn() num { return some(float64(m.ns)).div(some(float64(m.txns))) }

// seamSet is every seam at every replayed session count.
type seamSet struct {
	at []seamsAt
	// solo is session 0 alone in the live closed loop, where one session is
	// among the replayed counts.
	solo seam
}

type seamsAt struct {
	sessions                              int
	noop, engine, txn, lockmgr, pool, mem seam
}

func (ss *seamSet) find(sessions int) *seamsAt {
	if ss == nil {
		return nil
	}
	for i := range ss.at {
		if ss.at[i].sessions == sessions {
			return &ss.at[i]
		}
	}
	return nil
}

// replay runs body over the first n transactions of each of the first
// `sessions` rings, one goroutine per session, and adds up what they report.
func (r *run) replay(sessions, n int, body func(s *session, t genTxn, m *seam)) seam {
	var mu sync.Mutex
	var total seam
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, s := range r.env.sessions[:sessions] {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			var m seam
			mask := len(s.ring.txns) - 1
			<-start
			t0 := time.Now()
			for i := 0; i < n; i++ {
				body(s, s.ring.txns[i&mask], &m)
			}
			m.ns = time.Since(t0).Nanoseconds()
			mu.Lock()
			total.txns += int64(n)
			total.ns += m.ns
			total.failed += m.failed
			total.commits += m.commits
			total.rows += m.rows
			total.requests += m.requests
			total.acqNs += m.acqNs
			total.relNs += m.relNs
			total.hits += m.hits
			mu.Unlock()
		}(s)
	}
	close(start)
	wg.Wait()
	return total
}

// soloLoop runs session 0 alone in the closed loop of the timed phase, clock
// reads and all, for d. The budget table holds the one-session rows against
// it: they all come from the replay, and by subtraction, so against the
// replay's own engine seam they would add up whatever they said.
func (r *run) soloLoop(d time.Duration) seam {
	s := r.env.sessions[0]
	mask := len(s.ring.txns) - 1
	var m seam
	start := r.now()
	last := start
	for last-start < int64(d) {
		end, ok := s.runTxn(r, s.ring.txns[s.pos&mask], last, false)
		s.pos++
		m.txns++
		if ok {
			m.commits++
		} else {
			m.failed++
		}
		last = end
	}
	m.ns = last - start
	return m
}

//go:noinline
func sink(engine.Stmt) {}

func (r *run) replaySeams() *seamSet {
	w := r.opt.w
	n := w.seamTxns
	if r.opt.seam > 0 {
		n = r.opt.seam
	}
	if w.seamSessions == nil || n == 0 {
		return nil
	}
	db := r.env.db
	locks, pool := db.Locks(), db.Pool()
	chain := memblock.New(512)
	ss := &seamSet{}
	for _, k := range w.seamSessions(r.opt.nproc) {
		at := seamsAt{sessions: k}
		if k == 1 {
			ss.solo = r.soloLoop(r.opt.seconds / 10)
		}
		at.noop = r.replay(k, n, func(s *session, t genTxn, m *seam) {
			for _, g := range s.ring.stmtsOf(t) {
				sink(s.stmt(t, g))
			}
		})
		at.engine = r.replay(k, n, func(s *session, t genTxn, m *seam) {
			if _, ok := s.runTxn(r, t, 0, false); ok {
				m.commits++
			} else {
				m.failed++
			}
		})
		at.txn = r.replay(k, n, func(s *session, t genTxn, m *seam) {
			if s.seamTxn(t) {
				m.commits++
			} else {
				m.failed++
			}
		})
		at.lockmgr = r.replay(k, n, func(s *session, t genTxn, m *seam) {
			t0 := time.Now()
			o := locks.NewOwner(s.conn.App())
			ok := true
		acquire:
			for _, g := range s.ring.stmtsOf(t) {
				mode := lockmgr.ModeS
				if g.update {
					mode = lockmgr.ModeX
				}
				table := uint32(s.env.ts[g.table].ID)
				for _, row := range s.ring.rowsOf(g) {
					m.requests += 2
					if locks.Acquire(s.ctx, o, lockmgr.TableName(table), lockmgr.IntentFor(mode), 1) != nil ||
						locks.Acquire(s.ctx, o, lockmgr.RowName(table, row), mode, 1) != nil {
						ok = false
						break acquire
					}
				}
			}
			if t.kind == kHot {
				runtime.Gosched()
			}
			t1 := time.Now()
			locks.FinishOwner(o)
			m.acqNs += t1.Sub(t0).Nanoseconds()
			m.relNs += time.Since(t1).Nanoseconds()
			if !ok {
				m.failed++
			}
		})
		at.pool = r.replay(k, n, func(s *session, t genTxn, m *seam) {
			for _, g := range s.ring.stmtsOf(t) {
				tab := s.env.ts[g.table]
				for _, row := range s.ring.rowsOf(g) {
					m.rows++
					if pool.Access(tab.PageOf(row)) {
						m.hits++
					}
				}
			}
		})
		if k == 1 || len(ss.at) == 0 {
			// The chain is a probe of the allocator alone: one structure
			// per table and per row, freed together as a commit would.
			handles := make([]memblock.Handle, 0, 128)
			at.mem = r.replay(1, n, func(s *session, t genTxn, m *seam) {
				handles = handles[:0]
				for _, g := range s.ring.stmtsOf(t) {
					for i := 0; i <= int(g.n); i++ {
						h, err := chain.Alloc(1)
						if err != nil {
							m.failed++
							continue
						}
						handles = append(handles, h)
					}
				}
				for _, h := range handles {
					chain.Free(h)
				}
				m.rows += int64(len(handles))
			})
		}
		ss.at = append(ss.at, at)
	}
	return ss
}
