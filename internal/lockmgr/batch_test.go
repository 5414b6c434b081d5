package lockmgr

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// heldSet returns the owner's granted locks and their modes.
func heldSet(o *Owner) map[Name]Mode {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[Name]Mode)
	o.held.Each(func(r *request) bool {
		out[r.name] = r.mode
		return true
	})
	return out
}

// lockRowEach is the per-row reference AcquireRows must match: what a
// repeatable-read LockRow does for each row in turn, the table intent lock
// and then the row lock.
func lockRowEach(ctx context.Context, m *Manager, o *Owner, table uint32, rows []uint64, mode Mode) (int, error) {
	for i, row := range rows {
		if err := m.Acquire(ctx, o, TableName(table), IntentFor(mode), 1); err != nil {
			return i, err
		}
		if err := m.Acquire(ctx, o, RowName(table, row), mode, 1); err != nil {
			return i, err
		}
	}
	return len(rows), nil
}

// lockRowsBatched is the batched statement: the intent lock once, then
// AcquireRows, as Txn.LockRows does.
func lockRowsBatched(ctx context.Context, m *Manager, o *Owner, table uint32, rows []uint64, mode Mode) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	if err := m.Acquire(ctx, o, TableName(table), IntentFor(mode), 1); err != nil {
		return 0, err
	}
	return m.AcquireRows(ctx, o, table, rows, mode)
}

// TestAcquireRowsMatchesPerRow drives two managers through the same seeded
// statements, one batched and one row by row, and requires the same
// outcome after every statement: rows held, error or not, the owner's held
// locks and their modes, and the structures in use. Row keys come from a
// small space, so statements repeat rows within themselves (duplicates) and
// across statements (S then X is a conversion); table locks make later rows
// covered; some owners are released before their last statements; and a
// second owner shares S rows on table 4, so those headers publish and the
// batch's latch-free tiers admit rows there.
func TestAcquireRowsMatchesPerRow(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{InitialPages: 64, Shards: 8}
		batch, ref := New(cfg), New(cfg)
		appB, appR := batch.RegisterApp(), ref.RegisterApp()
		readers := []*Owner{batch.NewOwner(appB), ref.NewOwner(appR)}
		for i, m := range []*Manager{batch, ref} {
			if _, err := lockRowEach(ctx, m, readers[i], 4, []uint64{0, 1, 2, 3, 4, 5, 6, 7}, ModeS); err != nil {
				t.Fatal(err)
			}
		}
		for txn := 0; txn < 40; txn++ {
			ob, or := batch.NewOwner(appB), ref.NewOwner(appR)
			for st := 0; st < 6; st++ {
				what := ""
				switch k := rng.Intn(10); {
				case k == 0:
					table, mode := uint32(1+rng.Intn(3)), []Mode{ModeS, ModeX}[rng.Intn(2)]
					what = fmt.Sprintf("table %d lock %v", table, mode)
					eb := batch.Acquire(ctx, ob, TableName(table), mode, 1)
					er := ref.Acquire(ctx, or, TableName(table), mode, 1)
					if (eb == nil) != (er == nil) {
						t.Fatalf("seed %d txn %d %s: batched err %v, per-row err %v", seed, txn, what, eb, er)
					}
				case k == 1 && rng.Intn(4) == 0:
					what = "release"
					batch.ReleaseAll(ob)
					ref.ReleaseAll(or)
				default:
					table, mode := uint32(1+rng.Intn(4)), []Mode{ModeS, ModeX}[rng.Intn(2)]
					if table == 4 {
						mode = ModeS // shared with the reader
					}
					rows := make([]uint64, 1+rng.Intn(12))
					for i := range rows {
						rows[i] = uint64(rng.Intn(16))
					}
					what = fmt.Sprintf("table %d rows %v %v", table, rows, mode)
					nb, eb := lockRowsBatched(ctx, batch, ob, table, rows, mode)
					nr, er := lockRowEach(ctx, ref, or, table, rows, mode)
					if nb != nr || (eb == nil) != (er == nil) {
						t.Fatalf("seed %d txn %d %s: batched (%d, %v), per-row (%d, %v)", seed, txn, what, nb, eb, nr, er)
					}
				}
				if hb, hr := heldSet(ob), heldSet(or); !mapsEqual(hb, hr) {
					t.Fatalf("seed %d txn %d after %s: batched holds %v, per-row %v", seed, txn, what, hb, hr)
				}
				if ub, ur := batch.UsedStructs(), ref.UsedStructs(); ub != ur {
					t.Fatalf("seed %d txn %d after %s: batched uses %d structures, per-row %d", seed, txn, what, ub, ur)
				}
			}
			batch.FinishOwner(ob)
			ref.FinishOwner(or)
		}
		if batch.FastPathHits() == 0 {
			t.Fatalf("seed %d: no batched row took a latch-free tier", seed)
		}
		for _, m := range []*Manager{batch, ref} {
			mustInvariants(t, m)
		}
		batch.FinishOwner(readers[0])
		ref.FinishOwner(readers[1])
		if ub, ur := batch.UsedStructs(), ref.UsedStructs(); ub != 0 || ur != 0 {
			t.Fatalf("seed %d: %d and %d structures left", seed, ub, ur)
		}
	}
}

func mapsEqual(a, b map[Name]Mode) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// rowInShard returns the first row of table at or after from whose lock
// homes in shard si, and that is not in skip.
func rowInShard(m *Manager, table uint32, si int, from uint64, skip ...uint64) uint64 {
	for r := from; ; r++ {
		if m.ShardOf(RowName(table, r)) == si && !slices.Contains(skip, r) {
			return r
		}
	}
}

// TestAcquireRowsConflictRollsBack: another owner holds X on the batch's
// second row. Shards 0–2, visited before the conflict's shard 4, hold the
// batch's first row, a later row (early), a later duplicate of the first
// row and a later row the owner held before the statement (prior). The
// batch keeps its first row, rolls back early, leaves the duplicate and
// prior held, and waits on the conflicting row; when the holder commits,
// the conflicting row is granted and the batch completes in order. Every
// row is counted in the admission funnel exactly once.
func TestAcquireRowsConflictRollsBack(t *testing.T) {
	ctx := context.Background()
	m := New(Config{InitialPages: 64, Shards: 8})
	app := m.RegisterApp()
	const table = 1
	first := rowInShard(m, table, 2, 0)
	conflict := rowInShard(m, table, 4, 0)
	early := rowInShard(m, table, 1, 0)
	prior := rowInShard(m, table, 0, 0)
	late := rowInShard(m, table, 7, 0)
	rows := []uint64{first, conflict, early, first, prior, late}

	holder := m.NewOwner(app)
	if _, err := lockRowsBatched(ctx, m, holder, table, []uint64{conflict}, ModeX); err != nil {
		t.Fatal(err)
	}
	o := m.NewOwner(app)
	if _, err := lockRowsBatched(ctx, m, o, table, []uint64{prior}, ModeX); err != nil {
		t.Fatal(err)
	}
	admits0 := m.FastPathHits() + m.FastPathFallbacks()
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := m.AcquireRows(ctx, o, table, rows, ModeX)
		done <- result{n, err}
	}()
	for m.shards[4].nWaiting.Load() == 0 {
		runtime.Gosched()
	}
	want := map[Name]Mode{TableName(table): ModeIX, RowName(table, first): ModeX, RowName(table, prior): ModeX}
	if got := heldSet(o); !mapsEqual(got, want) {
		t.Fatalf("while waiting on row %d: holds %v, want %v (early rolled back; first and prior kept)", conflict, got, want)
	}
	if got := m.UsedStructs(); got != 6 {
		t.Fatalf("while waiting: %d structures in use, want 6 (two intents, three granted rows, the queued request)", got)
	}
	m.FinishOwner(holder)
	res := <-done
	if res.err != nil || res.n != len(rows) {
		t.Fatalf("AcquireRows = (%d, %v), want (%d, nil)", res.n, res.err, len(rows))
	}
	want = map[Name]Mode{TableName(table): ModeIX}
	for _, r := range rows {
		want[RowName(table, r)] = ModeX
	}
	if got := heldSet(o); !mapsEqual(got, want) {
		t.Fatalf("after the grant: holds %v, want %v", got, want)
	}
	if got := m.FastPathHits() + m.FastPathFallbacks() - admits0; got != int64(len(rows)) {
		t.Fatalf("%d admissions counted for %d rows", got, len(rows))
	}
	if s := m.Stats(); s.Waits != 1 {
		t.Fatalf("%d waits, want 1", s.Waits)
	}
	mustInvariants(t, m)
	m.FinishOwner(o)
	if got := m.UsedStructs(); got != 0 {
		t.Fatalf("%d structures left", got)
	}
}

// TestAcquireRowsQueuesInVisit: when every row before the conflicting one
// is admitted and none after it, the visit queues the conflicting row
// itself, as a per-row Acquire would, instead of backing it out and
// latching its shard a second time. The later row is locked after the
// wait.
func TestAcquireRowsQueuesInVisit(t *testing.T) {
	ctx := context.Background()
	m := New(Config{InitialPages: 64, Shards: 8})
	app := m.RegisterApp()
	const table = 1
	first := rowInShard(m, table, 1, 0)
	conflict := rowInShard(m, table, 4, 0)
	late := rowInShard(m, table, 6, 0)
	rows := []uint64{first, conflict, late}

	holder := m.NewOwner(app)
	if _, err := lockRowsBatched(ctx, m, holder, table, []uint64{conflict}, ModeX); err != nil {
		t.Fatal(err)
	}
	o := m.NewOwner(app)
	if err := m.Acquire(ctx, o, TableName(table), ModeIX, 1); err != nil {
		t.Fatal(err)
	}
	acq0, admits0 := m.LatchAcquisitions(), m.FastPathHits()+m.FastPathFallbacks()
	done := make(chan error, 1)
	go func() {
		_, err := m.AcquireRows(ctx, o, table, rows, ModeX)
		done <- err
	}()
	for m.shards[4].nWaiting.Load() == 0 {
		runtime.Gosched()
	}
	want := map[Name]Mode{TableName(table): ModeIX, RowName(table, first): ModeX}
	if got := heldSet(o); !mapsEqual(got, want) {
		t.Fatalf("while waiting on row %d: holds %v, want %v", conflict, got, want)
	}
	// Two visits — shard 1, then shard 4 where the row queues — and the
	// late row in shard 6 left for after the wait.
	if got := m.LatchAcquisitions() - acq0; got != 2 {
		t.Fatalf("%d latch acquisitions before the wait, want 2", got)
	}
	m.FinishOwner(holder)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		want[RowName(table, r)] = ModeX
	}
	if got := heldSet(o); !mapsEqual(got, want) {
		t.Fatalf("after the grant: holds %v, want %v", got, want)
	}
	if got := m.FastPathHits() + m.FastPathFallbacks() - admits0; got != int64(len(rows)) {
		t.Fatalf("%d admissions counted for %d rows", got, len(rows))
	}
	if s := m.Stats(); s.Waits != 1 {
		t.Fatalf("%d waits, want 1", s.Waits)
	}
	mustInvariants(t, m)
	m.FinishOwner(o)
	if got := m.UsedStructs(); got != 0 {
		t.Fatalf("%d structures left", got)
	}
}

// TestAcquireRowsQuotaEscalation: a 1 % quota (20 structures) ends the
// batch part way through a 40-row statement. The batch must stop at the
// row that would cross the quota, in the caller's order, and hand it to
// Acquire, which escalates to a table lock that covers the remaining rows:
// the same escalations, held locks and structures as row by row.
func TestAcquireRowsQuotaEscalation(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []Mode{ModeS, ModeX} {
		cfg := Config{InitialPages: 32, Shards: 8, Quota: fixedQuota(1)}
		batch, ref := New(cfg), New(cfg)
		ob, or := batch.NewOwner(batch.RegisterApp()), ref.NewOwner(ref.RegisterApp())
		rows := make([]uint64, 40)
		for i := range rows {
			rows[i] = uint64(3 * i)
		}
		nb, eb := lockRowsBatched(ctx, batch, ob, 1, rows, mode)
		nr, er := lockRowEach(ctx, ref, or, 1, rows, mode)
		if nb != nr || eb != nil || er != nil {
			t.Fatalf("%v: batched (%d, %v), per-row (%d, %v)", mode, nb, eb, nr, er)
		}
		sb, sr := batch.Stats(), ref.Stats()
		if sb.Escalations != 1 || sr.Escalations != 1 {
			t.Fatalf("%v: escalations batched %d, per-row %d, want 1 each", mode, sb.Escalations, sr.Escalations)
		}
		if hb, hr := heldSet(ob), heldSet(or); !mapsEqual(hb, hr) {
			t.Fatalf("%v: batched holds %v, per-row %v", mode, hb, hr)
		}
		if ub, ur := batch.UsedStructs(), ref.UsedStructs(); ub != ur || batch.AppStructs(ob.App()) != ref.AppStructs(or.App()) {
			t.Fatalf("%v: batched uses %d structures, per-row %d", mode, ub, ur)
		}
		mustInvariants(t, batch)
		batch.FinishOwner(ob)
		ref.FinishOwner(or)
	}
}

// TestAcquireRowsLatchesOncePerShard: an uncontended batch of X rows
// takes one shard latch per distinct home shard of its rows — duplicates
// and rows sharing a shard ride along on the same visit.
func TestAcquireRowsLatchesOncePerShard(t *testing.T) {
	ctx := context.Background()
	m := New(Config{InitialPages: 64, Shards: 16})
	o := m.NewOwner(m.RegisterApp())
	if err := m.Acquire(ctx, o, TableName(1), ModeIX, 1); err != nil {
		t.Fatal(err)
	}
	rows := []uint64{5, 40, 3, 17, 5, 99, 64, 12, 3, 250, 31, 8}
	shards := make(map[int]bool)
	for _, r := range rows {
		shards[m.ShardOf(RowName(1, r))] = true
	}
	if len(shards) >= len(rows)-2 {
		t.Fatalf("rows cover %d shards: pick rows that share shards", len(shards))
	}
	acq0 := m.LatchAcquisitions()
	if n, err := m.AcquireRows(ctx, o, 1, rows, ModeX); err != nil || n != len(rows) {
		t.Fatalf("AcquireRows = (%d, %v)", n, err)
	}
	if got := m.LatchAcquisitions() - acq0; got != int64(len(shards)) {
		t.Fatalf("batch of %d rows in %d shards took %d latches, want %d", len(rows), len(shards), got, len(shards))
	}
	m.FinishOwner(o)
}

// TestAcquireRowsHammer runs overlapping batches from several goroutines.
// Each transaction locks sorted rows of table 1 in X, then sorted rows of
// table 2 in S or X, so every transaction takes its locks in one global
// order and no deadlock is real: with the detector running, a victim
// would mean a batch held a lock out of order while it waited. Run it
// with -race.
func TestAcquireRowsHammer(t *testing.T) {
	m := New(Config{InitialPages: 64, Shards: 8})
	app := m.RegisterApp()
	var wg sync.WaitGroup
	st := newStopper(t, &wg)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			stmt := func(n int) []uint64 {
				rows := make([]uint64, n)
				for i := range rows {
					rows[i] = uint64(rng.Intn(24))
				}
				slices.Sort(rows)
				return rows
			}
			for !st.stopped() {
				o := m.NewOwner(app)
				mode2 := []Mode{ModeS, ModeX}[rng.Intn(2)]
				if _, err := lockRowsBatched(st.ctx, m, o, 1, stmt(1+rng.Intn(6)), ModeX); err == nil {
					_, err = lockRowsBatched(st.ctx, m, o, 2, stmt(1+rng.Intn(8)), mode2)
					if err != nil && !st.stopped() {
						t.Errorf("table 2: %v", err)
					}
				} else if !st.stopped() {
					t.Errorf("table 1: %v", err)
				}
				runtime.Gosched() // hold across a yield so the others queue
				m.FinishOwner(o)
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !st.stopped() {
			m.DetectDeadlocks()
			runtime.Gosched()
		}
	}()
	time.Sleep(300 * time.Millisecond)
	st.stop()
	wg.Wait()
	if s := m.Stats(); s.Deadlocks != 0 {
		t.Errorf("%d deadlock victims among ordered batches", s.Deadlocks)
	}
	if got := waitingNow(m); got != 0 {
		t.Errorf("%d waiters left after every transaction finished", got)
	}
	mustInvariants(t, m)
	if got := m.UsedStructs(); got != 0 {
		t.Errorf("used structs = %d after every transaction finished", got)
	}
}
