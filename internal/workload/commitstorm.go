package workload

import (
	"math/rand"

	"repro/internal/engine"
	"repro/internal/lockmgr"
	"repro/internal/storage"
	"repro/internal/txn"
)

// CommitStormProfile parameterizes the commit-storm shape: many short
// write transactions whose row locks are confined to a handful of hot
// shards, so concurrently committing clients pile onto the same few shard
// latches. Most transactions touch
// client-private rows (no lock conflicts; the contention is purely on the
// shard latches), and every SharedEvery-th transaction instead updates a
// small shared row set in a fixed order, generating genuine FIFO waits —
// and therefore grant wakeups for the release path to coalesce.
type CommitStormProfile struct {
	// Table is the table the storm updates.
	Table *storage.Table
	// HotShards is the number of distinct lock-table shards the rows are
	// confined to.
	HotShards int
	// RowsPerTxn is the X row locks per private transaction, spread
	// round-robin over the hot shards.
	RowsPerTxn int
	// RowsPerClient is each client's private row count per hot shard.
	RowsPerClient int
	// SharedRows is the size of the shared hot set; every client locks it
	// in the same fixed order (deadlock-free by construction).
	SharedRows int
	// SharedEvery makes every SharedEvery-th transaction a shared-set
	// update (0 disables shared transactions).
	SharedEvery int
	// ThinkTicks is the idle time between transactions.
	ThinkTicks int
	// HoldTicks holds all locks before committing.
	HoldTicks int
}

// DefaultCommitStormProfile returns the workbench shape: 4 hot shards,
// 2-lock private transactions, and a 4-row shared set hit every 16th
// transaction.
func DefaultCommitStormProfile(cat *storage.Catalog) CommitStormProfile {
	return CommitStormProfile{
		Table:         cat.ByName("stock"),
		HotShards:     4,
		RowsPerTxn:    2,
		RowsPerClient: 64,
		SharedRows:    4,
		SharedEvery:   16,
		ThinkTicks:    0,
		// One hold tick makes transactions span ticks, so shared-set
		// updates genuinely overlap and queue — without it the sim's
		// single-goroutine tick loop completes every transaction within
		// one Step and no waits (or coalesced wakeups) ever happen.
		HoldTicks: 1,
	}
}

// CommitStormPlan maps the profile's hot shards to concrete row ids. Row
// hashing is deterministic, so every run storms the same shards; the plan
// is built once and shared by all clients.
type CommitStormPlan struct {
	prof CommitStormProfile
	// rows[k] holds the row ids homed in hot shard k: the shared prefix
	// (SharedRows split round-robin over the shards) followed by each
	// client's private slice.
	rows [][]uint64
	// shared is the shared hot set in its fixed locking order.
	shared []uint64
}

// PlanCommitStorm scans the row id space until it has found, for
// prof.HotShards distinct shards, enough rows to give each of `clients`
// clients a private slice plus the shared set. The shard routing comes
// from the live lock manager, so the plan matches whatever shard count the
// engine was opened with.
func PlanCommitStorm(db *engine.Database, prof CommitStormProfile, clients int) *CommitStormPlan {
	return PlanCommitStormRows(db.Locks(), prof, clients)
}

// PlanCommitStormRows is PlanCommitStorm on the bare lock-manager seam, for
// harnesses (the real-concurrency latch benchmarks) that drive a Manager
// without an engine around it. The manager must have at least
// prof.HotShards shards or the scan can never terminate.
func PlanCommitStormRows(m *lockmgr.Manager, prof CommitStormProfile, clients int) *CommitStormPlan {
	perShard := clients*prof.RowsPerClient + prof.SharedRows
	var targets []int
	byShard := make(map[int][]uint64, prof.HotShards)
	for row := uint64(0); ; row++ {
		si := m.ShardOf(lockmgr.RowName(uint32(prof.Table.ID), row%prof.Table.Rows))
		if list, ok := byShard[si]; ok {
			if len(list) < perShard {
				byShard[si] = append(list, row%prof.Table.Rows)
			}
		} else if len(targets) < prof.HotShards {
			targets = append(targets, si)
			byShard[si] = []uint64{row % prof.Table.Rows}
		}
		if len(targets) == prof.HotShards {
			done := true
			for _, t := range targets {
				if len(byShard[t]) < perShard {
					done = false
					break
				}
			}
			if done {
				break
			}
		}
	}
	p := &CommitStormPlan{prof: prof, rows: make([][]uint64, prof.HotShards)}
	for k, t := range targets {
		p.rows[k] = byShard[t]
	}
	for j := 0; j < prof.SharedRows; j++ {
		p.shared = append(p.shared, p.rows[j%prof.HotShards][j/prof.HotShards])
	}
	return p
}

// private returns client id's private row j in hot shard k.
func (p *CommitStormPlan) private(id, k, j int) uint64 {
	base := p.prof.SharedRows + id*p.prof.RowsPerClient
	return p.rows[k][base+j%p.prof.RowsPerClient]
}

// Shared returns the shared hot set in its fixed locking order.
func (p *CommitStormPlan) Shared() []uint64 { return p.shared }

// PrivateRow exposes private for external harnesses: client id's private
// row j in hot shard k (k < prof.HotShards; j wraps).
func (p *CommitStormPlan) PrivateRow(id, k, j int) uint64 { return p.private(id, k, j) }

// Profile returns the profile the plan was built from.
func (p *CommitStormPlan) Profile() CommitStormProfile { return p.prof }

// CommitStorm is one storm client.
type CommitStorm struct {
	db   *engine.Database
	plan *CommitStormPlan
	id   int
	rng  *rand.Rand

	conn   *engine.Conn
	tx     *txn.Txn
	op     *txn.Op
	state  clientState
	active bool

	txCount   int64
	sharedTx  bool
	lockIdx   int
	locksLeft int
	thinkLeft int
	holdLeft  int

	commits int64
	aborts  int64
	denials int64
}

// NewCommitStorm creates storm client id over a shared plan.
func NewCommitStorm(db *engine.Database, plan *CommitStormPlan, id int, seed int64) *CommitStorm {
	return &CommitStorm{db: db, plan: plan, id: id, rng: rand.New(rand.NewSource(seed))}
}

// SetActive marks the client as (in)active (drains like OLTP).
func (c *CommitStorm) SetActive(active bool) { c.active = active }

// Active reports whether the client still occupies the system.
func (c *CommitStorm) Active() bool { return c.active || c.state != stateDisconnected }

// Commits returns the client's committed transaction count.
func (c *CommitStorm) Commits() int64 { return c.commits }

// Aborts returns the client's aborted transaction count.
func (c *CommitStorm) Aborts() int64 { return c.aborts }

// Step advances the client by one tick.
func (c *CommitStorm) Step() {
	switch c.state {
	case stateDisconnected:
		if !c.active {
			return
		}
		c.conn = c.db.Connect()
		c.state = stateThinking
		c.thinkLeft = c.rng.Intn(c.plan.prof.ThinkTicks + 1)
	case stateThinking:
		if !c.active {
			c.disconnect()
			return
		}
		c.thinkLeft--
		if c.thinkLeft <= 0 {
			c.begin()
		}
	case stateAcquiring:
		c.acquire()
	case stateHolding:
		c.holdLeft--
		if c.holdLeft <= 0 {
			c.finish(true)
		}
	}
}

func (c *CommitStorm) disconnect() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	c.state = stateDisconnected
}

func (c *CommitStorm) begin() {
	prof := &c.plan.prof
	c.txCount++
	c.sharedTx = prof.SharedEvery > 0 && c.txCount%int64(prof.SharedEvery) == 0
	c.tx = c.conn.Begin()
	if c.sharedTx {
		c.locksLeft = len(c.plan.shared)
	} else {
		c.locksLeft = prof.RowsPerTxn
	}
	c.lockIdx = 0
	c.state = stateAcquiring
	c.op = nil
	c.acquire()
}

// acquire takes the transaction's row locks, stalling on a lock wait. A
// shared transaction walks the shared set in the plan's fixed order, so
// concurrent shared transactions queue FIFO instead of deadlocking.
func (c *CommitStorm) acquire() {
	prof := &c.plan.prof
	for {
		if c.op != nil {
			switch c.op.Poll() {
			case txn.OpWaiting:
				return // blocked; retry next tick
			case txn.OpDenied:
				c.denials++
				c.finish(false)
				return
			}
			c.op = nil
			c.locksLeft--
			c.lockIdx++
			continue
		}
		if c.locksLeft <= 0 {
			c.holdLeft = prof.HoldTicks
			if c.holdLeft <= 0 {
				c.finish(true)
				return
			}
			c.state = stateHolding
			return
		}
		var row uint64
		if c.sharedTx {
			row = c.plan.shared[c.lockIdx]
		} else {
			shard := (int(c.txCount) + c.lockIdx) % prof.HotShards
			row = c.plan.private(c.id, shard, int(c.txCount)*prof.RowsPerTxn+c.lockIdx)
		}
		c.db.TouchRow(prof.Table, row)
		c.op = c.tx.AcquireRow(prof.Table.ID, row, lockmgr.ModeX, 1)
	}
}

func (c *CommitStorm) finish(commit bool) {
	if commit {
		c.tx.Commit()
		c.commits++
	} else {
		c.tx.Abort()
		c.aborts++
	}
	c.tx, c.op = nil, nil
	c.state = stateThinking
	think := c.plan.prof.ThinkTicks
	if !commit {
		think += 2 // back off after an abort
	}
	// think == 0 still waits out one thinking tick, so a storm client
	// commits at most one transaction per tick (no same-tick re-begin).
	c.thinkLeft = think
	if !c.active {
		c.disconnect()
	}
}
