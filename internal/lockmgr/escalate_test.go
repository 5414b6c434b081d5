package lockmgr

import (
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/memblock"
)

// fixedQuota is a QuotaProvider returning a constant percentage — the
// pre-DB2 9 static MAXLOCKS behaviour.
type fixedQuota float64

func (q fixedQuota) QuotaPercent(int, int64, int) float64 { return float64(q) }

// acquireRows locks `n` rows of table in the given mode (intent lock first),
// asserting grants.
func acquireRows(t *testing.T, m *Manager, o *Owner, table uint32, mode Mode, n int) {
	t.Helper()
	mustGrant(t, m.AcquireAsync(o, TableName(table), intentFor(mode), 1), "intent")
	for i := 0; i < n; i++ {
		p := m.AcquireAsync(o, RowName(table, uint64(i)), mode, 1)
		mustGrant(t, p, "row")
	}
}

// TestQuotaEscalation exercises the MAXLOCKS trigger: with a 10% quota on
// one block (2048 structs → 204 structs), an application acquiring row locks
// escalates at the quota and continues under a table lock.
func TestQuotaEscalation(t *testing.T) {
	m := New(Config{InitialPages: 32, Quota: fixedQuota(10)})
	app := m.RegisterApp()
	o := m.NewOwner(app)

	mustGrant(t, m.AcquireAsync(o, TableName(1), ModeIS, 1), "intent")
	limit := memblock.StructsPerBlock / 10 // 10% quota = 204 structs
	for i := 0; ; i++ {
		if i > limit+10 {
			t.Fatal("no escalation at the quota")
		}
		p := m.AcquireAsync(o, RowName(1, uint64(i)), ModeS, 1)
		mustGrant(t, p, "row under quota")
		if m.Stats().Escalations > 0 {
			break
		}
	}
	// After escalation: one S table lock, no row locks, app usage tiny.
	if got := m.AppStructs(app); got > 2 {
		t.Fatalf("app structs after escalation = %d, want <= 2", got)
	}
	st := m.Stats()
	if st.Escalations != 1 {
		t.Fatalf("escalations = %d, want 1", st.Escalations)
	}
	if st.ExclusiveEscalations != 0 {
		t.Fatalf("S-row escalation counted as exclusive")
	}
	// The table lock now covers further rows: no growth in structs.
	used := m.UsedStructs()
	mustGrant(t, m.AcquireAsync(o, RowName(1, 9999), ModeS, 1), "covered row")
	if m.UsedStructs() != used {
		t.Fatal("covered row consumed a structure after escalation")
	}
}

// TestMemoryEscalation exercises the exhaustion trigger: one block, no
// synchronous growth, X-mode rows → exclusive escalation when the chain
// fills.
func TestMemoryEscalation(t *testing.T) {
	m := New(Config{InitialPages: 32})
	app := m.RegisterApp()
	o := m.NewOwner(app)

	mustGrant(t, m.AcquireAsync(o, TableName(1), ModeIX, 1), "intent")
	for i := 0; ; i++ {
		if i > memblock.StructsPerBlock+10 {
			t.Fatal("no escalation at memory exhaustion")
		}
		p := m.AcquireAsync(o, RowName(1, uint64(i)), ModeX, 1)
		mustGrant(t, p, "row X")
		if m.Stats().Escalations > 0 {
			break
		}
	}
	st := m.Stats()
	if st.Escalations != 1 || st.ExclusiveEscalations != 1 {
		t.Fatalf("stats = %+v, want one exclusive escalation", st)
	}
	// Memory is freed: almost everything is available again.
	if frac := m.FreeFraction(); frac < 0.99 {
		t.Fatalf("free fraction after escalation = %g", frac)
	}
}

// TestSyncGrowthAvoidsEscalation: with a GrowSync hook standing in for
// database overflow memory, exhaustion grows the chain instead of
// escalating — the core promise of section 3.3.
func TestSyncGrowthAvoidsEscalation(t *testing.T) {
	granted := 0
	m := New(Config{
		InitialPages: 32,
		GrowSync: func(needPages int) int {
			granted += needPages
			return needPages
		},
	})
	app := m.RegisterApp()
	o := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(o, TableName(1), ModeIX, 1), "intent")
	for i := 0; i < 3*memblock.StructsPerBlock; i++ {
		mustGrant(t, m.AcquireAsync(o, RowName(1, uint64(i)), ModeX, 1), "row")
	}
	if m.Stats().Escalations != 0 {
		t.Fatal("escalated despite synchronous growth")
	}
	if granted == 0 || m.Pages() <= 32 {
		t.Fatalf("no synchronous growth happened: granted=%d pages=%d", granted, m.Pages())
	}
	if m.Stats().SyncGrowths == 0 || m.Stats().SyncGrowthPages == 0 {
		t.Fatalf("sync growth stats not recorded: %+v", m.Stats())
	}
}

// TestSyncGrowthDeniedThenEscalates: the hook refuses (overflow constrained)
// and escalation fires — the "massive spikes" fallback.
func TestSyncGrowthDeniedThenEscalates(t *testing.T) {
	m := New(Config{
		InitialPages: 32,
		GrowSync:     func(needPages int) int { return 0 },
	})
	o := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(o, TableName(1), ModeIX, 1), "intent")
	for i := 0; i <= memblock.StructsPerBlock; i++ {
		mustGrant(t, m.AcquireAsync(o, RowName(1, uint64(i)), ModeX, 1), "row")
	}
	if m.Stats().Escalations == 0 {
		t.Fatal("expected escalation when growth denied")
	}
}

// TestEscalationPicksBiggestTable: the victim is the table with the most
// row-lock structures.
func TestEscalationPicksBiggestTable(t *testing.T) {
	m := New(Config{InitialPages: 32, Quota: fixedQuota(10)})
	app := m.RegisterApp()
	o := m.NewOwner(app)

	mustGrant(t, m.AcquireAsync(o, TableName(1), ModeIS, 1), "t1 intent")
	mustGrant(t, m.AcquireAsync(o, TableName(2), ModeIS, 1), "t2 intent")
	for i := 0; i < 50; i++ {
		mustGrant(t, m.AcquireAsync(o, RowName(1, uint64(i)), ModeS, 1), "t1 row")
	}
	for i := 0; i < 140; i++ { // t2 is bigger
		mustGrant(t, m.AcquireAsync(o, RowName(2, uint64(i)), ModeS, 1), "t2 row")
	}
	// Push over the 10% quota (204 structs): next row escalates table 2.
	for i := 140; m.Stats().Escalations == 0; i++ {
		mustGrant(t, m.AcquireAsync(o, RowName(2, uint64(i)), ModeS, 1), "t2 row over quota")
		if i > 300 {
			t.Fatal("no escalation")
		}
	}
	// Table 1's rows must survive; table 2's must be gone.
	ot1 := o.tableFor(1)
	if ot1 == nil || ot1.nRows != 50 {
		t.Fatalf("table 1 rows disturbed: %+v", ot1)
	}
	ot2 := o.tableFor(2)
	if ot2 == nil || ot2.nRows != 0 {
		t.Fatalf("table 2 rows not escalated: %d rows", ot2.nRows)
	}
	if ot2.tableReq.mode != ModeS {
		t.Fatalf("table 2 escalated mode = %v, want S", ot2.tableReq.mode)
	}
}

// TestEscalationBlocksOtherClients reproduces the concurrency catastrophe of
// Figures 7–8 in miniature: after an X escalation, other applications' row
// requests on the table block at their intent locks.
func TestEscalationBlocksOtherClients(t *testing.T) {
	m := New(Config{InitialPages: 32})
	o1 := m.NewOwner(m.RegisterApp())

	mustGrant(t, m.AcquireAsync(o1, TableName(1), ModeIX, 1), "o1 intent")
	for i := 0; m.Stats().Escalations == 0; i++ {
		mustGrant(t, m.AcquireAsync(o1, RowName(1, uint64(i)), ModeX, 1), "o1 row")
		if i > memblock.StructsPerBlock+10 {
			t.Fatal("no escalation")
		}
	}
	// o2 now cannot even get an intent lock on the table.
	o2 := m.NewOwner(m.RegisterApp())
	p := m.AcquireAsync(o2, TableName(1), ModeIS, 1)
	mustWait(t, p, "o2 intent blocked by escalated X")

	// When o1 commits, o2 proceeds.
	m.ReleaseAll(o1)
	mustGrant(t, p, "o2 after o1 commit")
}

// TestEscalationWaitsForConflicts: escalation's table conversion queues
// behind an incompatible holder, and the triggering request parks until the
// escalation completes.
func TestEscalationWaitsForConflicts(t *testing.T) {
	m := New(Config{InitialPages: 32})
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())

	// o2 holds an IS intent (reader elsewhere in the table).
	mustGrant(t, m.AcquireAsync(o2, TableName(1), ModeIS, 1), "o2 IS")

	mustGrant(t, m.AcquireAsync(o1, TableName(1), ModeIX, 1), "o1 IX")
	var last *Pending
	for i := 0; m.Stats().Escalations == 0; i++ {
		last = m.AcquireAsync(o1, RowName(1, uint64(i)), ModeX, 1)
		if i > memblock.StructsPerBlock+10 {
			t.Fatal("no escalation")
		}
	}
	// The escalation to X conflicts with o2's IS: the triggering row
	// request is parked.
	mustWait(t, last, "parked behind escalation")

	m.ReleaseAll(o2)
	mustGrant(t, last, "granted after escalation completes")
	// After escalation, o1's request is covered by the table X lock.
	if got := o1.tableFor(1).nRows; got != 0 {
		t.Fatalf("row locks remain after escalation: %d", got)
	}
}

// TestParkedRequestTimesOut: if the escalation cannot complete before the
// lock timeout, the parked request is denied.
func TestParkedRequestTimesOut(t *testing.T) {
	clk := clock.NewSim()
	m := New(Config{InitialPages: 32, Clock: clk, LockTimeout: 10 * time.Second})
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(o2, TableName(1), ModeIS, 1), "o2 IS")
	mustGrant(t, m.AcquireAsync(o1, TableName(1), ModeIX, 1), "o1 IX")
	var last *Pending
	for i := 0; m.Stats().Escalations == 0; i++ {
		last = m.AcquireAsync(o1, RowName(1, uint64(i)), ModeX, 1)
		if i > memblock.StructsPerBlock+10 {
			t.Fatal("no escalation")
		}
	}
	mustWait(t, last, "parked")
	clk.Advance(11 * time.Second)
	if n := m.SweepTimeouts(); n == 0 {
		t.Fatal("sweep denied nothing")
	}
	if st, err := last.Status(); st != StatusDenied || !errors.Is(err, ErrTimeout) {
		t.Fatalf("parked request status=%v err=%v", st, err)
	}
}

// TestQuotaDenialWithNothingToEscalate: a single oversized request with no
// row locks to escalate is denied outright.
func TestQuotaDenialWithNothingToEscalate(t *testing.T) {
	m := New(Config{InitialPages: 32, Quota: fixedQuota(1)}) // 20 structs
	o := m.NewOwner(m.RegisterApp())
	p := m.AcquireAsync(o, RowName(1, 1), ModeS, 100)
	if st, err := p.Status(); st != StatusDenied || !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("status=%v err=%v, want quota denial", st, err)
	}
	if m.Stats().QuotaDenials != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

// TestMemoryDenialWithNothingToEscalate: exhaustion with no escalatable
// locks yields ErrLockMemory.
func TestMemoryDenialWithNothingToEscalate(t *testing.T) {
	m := New(Config{InitialPages: 32})
	o := m.NewOwner(m.RegisterApp())
	p := m.AcquireAsync(o, RowName(1, 1), ModeS, memblock.StructsPerBlock+1)
	if st, err := p.Status(); st != StatusDenied || !errors.Is(err, ErrLockMemory) {
		t.Fatalf("status=%v err=%v, want memory denial", st, err)
	}
	if m.Stats().MemoryDenials != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

// TestParkedRetryQueuesAsWaiter pins both halves of the wait list's one
// waiting state: a request parked behind an escalation is on the wait list
// but on no queue, and once retried into a lock queue it is an ordinary
// waiter — CheckInvariants holds at each step, and a deadlock through it
// is found on the first detector pass.
func TestParkedRetryQueuesAsWaiter(t *testing.T) {
	m := New(Config{InitialPages: 32, Quota: fixedQuota(10)})
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())
	o3 := m.NewOwner(m.RegisterApp())
	// o2's IS on table 1 makes the escalation wait, so the trigger parks.
	mustGrant(t, m.AcquireAsync(o2, TableName(1), ModeIS, 1), "o2 IS t1")
	mustGrant(t, m.AcquireAsync(o3, TableName(2), ModeIX, 1), "o3 IX t2")
	mustGrant(t, m.AcquireAsync(o3, RowName(2, 0), ModeX, 1), "o3 X (2,0)")

	// Fill o1 to one structure under its 10% quota, so its request for
	// row (2,0) escalates table 1 and parks, then retries into o3's queue.
	mustGrant(t, m.AcquireAsync(o1, TableName(1), ModeIX, 1), "o1 IX t1")
	limit := memblock.StructsPerBlock / 10
	for i := 0; m.AppStructs(o1.app) < limit-1; i++ {
		mustGrant(t, m.AcquireAsync(o1, RowName(1, uint64(i)), ModeX, 1), "o1 row under quota")
	}
	mustGrant(t, m.AcquireAsync(o1, TableName(2), ModeIX, 1), "o1 IX t2")
	if m.Stats().Escalations != 0 {
		t.Fatal("escalated before the trigger")
	}
	p1 := m.AcquireAsync(o1, RowName(2, 0), ModeX, 1)
	if m.Stats().Escalations != 1 {
		t.Fatalf("escalations = %d, want 1", m.Stats().Escalations)
	}
	mustWait(t, p1, "o1 (2,0) parked behind the escalation")
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(o2) // the escalation completes and the retry queues behind o3
	mustWait(t, p1, "o1 (2,0) queued behind o3")
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Close a cycle: o3 needs table 1, which o1 now holds in X.
	p3 := m.AcquireAsync(o3, TableName(1), ModeIX, 1)
	mustWait(t, p3, "o3 IX t1")
	if n := m.DetectDeadlocks(); n != 1 {
		t.Fatalf("first detector pass denied %d, want 1", n)
	}
	if st, err := p3.Status(); st != StatusDenied || !errors.Is(err, ErrDeadlock) {
		t.Fatalf("o3 (youngest): status=%v err=%v, want deadlock denial", st, err)
	}
	m.ReleaseAll(o3)
	mustGrant(t, p1, "o1 (2,0) after o3 aborts")
	m.ReleaseAll(o1)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
