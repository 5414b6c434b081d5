package lockmgr

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// --- Unit tests: publication, fast grant/release, counters -----------------

// TestFastPathPublishAndGrant drives the canonical TPC-C shape: a table
// intent every transaction takes. The first latched grant publishes the
// header; subsequent compatible grants and releases must run latch-free and
// keep every invariant.
func TestFastPathPublishAndGrant(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()
	name := TableName(7)

	o1 := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(o1, name, ModeIS, 1), "publishing IS")

	// The publishing acquire also primed the shard's fast credit, so this
	// second IS must be admitted by grant-word CAS.
	o2 := m.NewOwner(app)
	hits0 := m.FastPathHits()
	mustGrant(t, m.AcquireAsync(o2, name, ModeIS, 1), "fast IS")
	if got := m.FastPathHits(); got != hits0+1 {
		t.Fatalf("fast hits = %d, want %d (grant-word CAS admission)", got, hits0+1)
	}

	// Re-acquire of a held lock: owner-local cache, no shard interaction.
	mustGrant(t, m.AcquireAsync(o2, name, ModeIS, 1), "re-acquire IS")
	if got := m.FastPathHits(); got != hits0+2 {
		t.Fatalf("fast hits = %d, want %d (re-acquire cache)", got, hits0+2)
	}

	// Coverage: a table S lock covers row S requests — owner-local too.
	oS := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(oS, name, ModeS, 1), "fast S")
	mustGrant(t, m.AcquireAsync(oS, RowName(7, 1), ModeS, 1), "row covered by table S")
	if got := m.FastPathHits(); got != hits0+4 {
		t.Fatalf("fast hits = %d, want %d (coverage cache)", got, hits0+4)
	}
	m.ReleaseAll(oS)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Fast release: symmetric CAS decrement. The published header must stay
	// resident (deferred reclamation) with an admitting word.
	if err := m.Release(o2, name); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(o1)
	m.ReleaseAll(o2)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Hot key across transactions: the very first grant of a fresh owner
	// must already be latch-free.
	o3 := m.NewOwner(app)
	hits1 := m.FastPathHits()
	mustGrant(t, m.AcquireAsync(o3, name, ModeS, 1), "fast S on emptied header")
	if got := m.FastPathHits(); got != hits1+1 {
		t.Fatalf("fast hits = %d, want %d (empty published header admits)", got, hits1+1)
	}
	m.ReleaseAll(o3)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFastPathFairness pins the starvation bound: once an X waiter queues,
// the grant word is fenced and no later compatible request may be admitted
// past it — neither latch-free nor latched. FIFO order is exactly the
// pre-fast-path order.
func TestFastPathFairness(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()
	name := TableName(3)

	o1 := m.NewOwner(app)
	o2 := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(o1, name, ModeIS, 1), "IS 1")
	mustGrant(t, m.AcquireAsync(o2, name, ModeIS, 1), "IS 2 (fast)")

	oX := m.NewOwner(app)
	pX := m.AcquireAsync(oX, name, ModeX, 1)
	mustWait(t, pX, "X behind two IS")

	// A new IS must NOT jump the fence: the fast path sees the fenced word
	// and falls back, and the latched path queues it behind X.
	o4 := m.NewOwner(app)
	hits0 := m.FastPathHits()
	p4 := m.AcquireAsync(o4, name, ModeIS, 1)
	mustWait(t, p4, "IS behind queued X")
	if got := m.FastPathHits(); got != hits0 {
		t.Fatalf("fast path admitted %d grants past a queued X waiter", got-hits0)
	}

	m.ReleaseAll(o1)
	m.ReleaseAll(o2)
	mustGrant(t, pX, "X after holders released")
	mustWait(t, p4, "IS while X held")
	m.ReleaseAll(oX)
	mustGrant(t, p4, "IS after X released")
	m.ReleaseAll(o4)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFastPathConversionOfFastGrant converts a fast-admitted IS up to S and
// to X: the conversion runs latched (sealing the word), and the release of
// the converted request must return its structures through the fast-credit
// accounting it was granted under.
func TestFastPathConversionOfFastGrant(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()
	name := TableName(9)

	o1 := m.NewOwner(app)
	o2 := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(o1, name, ModeIS, 1), "publishing IS")
	mustGrant(t, m.AcquireAsync(o2, name, ModeIS, 1), "fast IS")

	// IS -> S: latched conversion; the settled word must carry the S count.
	mustGrant(t, m.AcquireAsync(o2, name, ModeS, 1), "convert IS->S")
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// IS -> X (after o1 leaves): fences the word for good until release.
	m.ReleaseAll(o1)
	mustGrant(t, m.AcquireAsync(o2, name, ModeX, 1), "convert S->X")
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(o2)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- Property test: the word predicate vs the mode tables ------------------

// TestWordPredicateMatchesModeTables exhaustively ties wordAdmit and
// wordGroupMode to the compat/sup matrices: over every reachable count
// vector shape and all 49 (held, requested) mode pairs, the latch-free
// predicate must agree with Compatible against the supremum-folded group
// mode. Any divergence would let the fast path admit what the latched path
// would queue (or vice versa).
func TestWordPredicateMatchesModeTables(t *testing.T) {
	modes := []Mode{ModeNone, ModeIS, ModeIX, ModeS, ModeSIX, ModeU, ModeX}

	// All 49 pairs: a single holder of mode a, a request of mode b. Holder
	// modes outside the fast-eligible set can never appear in a word —
	// recomputeWord fences them — so the predicate is only defined (and
	// must agree) on the eligible ones.
	for _, a := range modes {
		for _, b := range modes {
			if !fastEligible(a) || a == ModeNone {
				continue
			}
			w := wordAdd(0, a)
			got := wordAdmit(w, b)
			want := fastEligible(b) && Compatible(b, a)
			if got != want {
				t.Errorf("single holder %v, request %v: wordAdmit=%v, Compatible=%v", a, b, got, want)
			}
		}
	}

	// Every reachable count vector (nS and nIX never coexist — S and IX are
	// incompatible, so no admission order can produce both). The group mode
	// must equal the supremum fold, and admission must match Compatible.
	counts := []uint64{0, 1, 2, 5, wordCntMask - 1, wordCntMask}
	for _, nS := range counts {
		for _, nIS := range counts {
			for _, nIX := range counts {
				if nS > 0 && nIX > 0 {
					continue // unreachable
				}
				w := nS<<wordNSShift | nIS<<wordNISShift | nIX<<wordNIXShift
				gm := wordGroupMode(nS, nIS, nIX)

				// Supremum fold over the multiset.
				want := ModeNone
				if nIS > 0 {
					want = Supremum(want, ModeIS)
				}
				if nS > 0 {
					want = Supremum(want, ModeS)
				}
				if nIX > 0 {
					want = Supremum(want, ModeIX)
				}
				if gm != want {
					t.Fatalf("counts (S=%d IS=%d IX=%d): group mode %v, supremum %v", nS, nIS, nIX, gm, want)
				}

				for _, b := range modes {
					got := wordAdmit(w, b)
					compat := fastEligible(b) && Compatible(b, gm)
					// Saturation is the one deliberate divergence: the
					// request is compatible but must take the latched path.
					saturated := (b == ModeIS && nIS >= wordCntMask) ||
						(b == ModeS && nS >= wordCntMask) ||
						(b == ModeIX && nIX >= wordCntMask)
					if saturated {
						if got {
							t.Fatalf("counts (S=%d IS=%d IX=%d): %v admitted at saturation", nS, nIS, nIX, b)
						}
						continue
					}
					if got != compat {
						t.Errorf("counts (S=%d IS=%d IX=%d) group %v, request %v: wordAdmit=%v, Compatible=%v",
							nS, nIS, nIX, gm, b, got, compat)
					}
				}
			}
		}
	}

	// wordAdd/wordSub are inverses and keep the group-mode bits coherent.
	for _, a := range []Mode{ModeIS, ModeS, ModeIX} {
		w := wordAdd(wordAdd(0, a), a)
		if Mode((w>>wordGMShift)&wordGMMask) != a {
			t.Fatalf("wordAdd group mode bits wrong for %v", a)
		}
		if wordSub(wordSub(w, a), a) != 0 {
			t.Fatalf("wordSub does not invert wordAdd for %v", a)
		}
	}
}

// --- Publication table -----------------------------------------------------

// publishRow has two fresh owners hold S on name at once — the second
// holder's settle publishes a row header — and then releases both.
func publishRow(t *testing.T, m *Manager, app *App, name Name) {
	t.Helper()
	a, b := m.NewOwner(app), m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(a, name, ModeS, 1), "first S")
	mustGrant(t, m.AcquireAsync(b, name, ModeS, 1), "second S")
	m.ReleaseAll(a)
	m.ReleaseAll(b)
}

// TestPublishWholeHotSet: a hot set far larger than the old 64-slot array
// publishes in full on one shard, and every row then admits a read token.
func TestPublishWholeHotSet(t *testing.T) {
	m := New(Config{InitialPages: 64, Shards: 1})
	a, b := m.NewOwner(m.RegisterApp()), m.NewOwner(m.RegisterApp())
	for r := uint64(0); r < 200; r++ {
		n := RowName(1, r) // the second S holder's settle publishes the header
		mustGrant(t, m.AcquireAsync(a, n, ModeS, 1), "a")
		mustGrant(t, m.AcquireAsync(b, n, ModeS, 1), "b")
	}
	m.ReleaseAll(a)
	m.ReleaseAll(b)
	for r := uint64(0); r < 200; r++ {
		if _, ok := m.TryOptimisticRead(a.App(), RowName(1, r), ModeS); !ok {
			t.Fatalf("row %d unpublished", r)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPublishSharedHomeSlot: two names whose hashes pick the same home slot
// both publish; the second takes the next slot along the probe chain.
func TestPublishSharedHomeSlot(t *testing.T) {
	m := newMgr(Config{Shards: 1})
	app := m.RegisterApp()
	first := make(map[int]Name)
	var x, y Name
	for r := uint64(0); ; r++ {
		n := RowName(1, r)
		home := fastHome(hashName(n))
		if prev, ok := first[home]; ok {
			x, y = prev, n
			break
		}
		first[home] = n
	}
	publishRow(t, m, app, x)
	publishRow(t, m, app, y)
	for _, n := range []Name{x, y} {
		if _, ok := m.TryOptimisticRead(app, n, ModeS); !ok {
			t.Fatalf("%v unpublished", n)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPublishBound: a shard publishes fastPublishMax (256) hot headers and
// no more; the next hot header stays on the latched path, and the table,
// half full, still passes every invariant.
func TestPublishBound(t *testing.T) {
	m := newMgr(Config{Shards: 1})
	app := m.RegisterApp()
	for r := uint64(0); r <= fastPublishMax; r++ {
		publishRow(t, m, app, RowName(1, r))
	}
	for r := uint64(0); r < fastPublishMax; r++ {
		if _, ok := m.TryOptimisticRead(app, RowName(1, r), ModeS); !ok {
			t.Fatalf("row %d unpublished", r)
		}
	}
	if _, ok := m.TryOptimisticRead(app, RowName(1, fastPublishMax), ModeS); ok {
		t.Fatalf("header %d published past the bound", fastPublishMax+1)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsCatchesProbeGap moves a published header past a nil
// slot on its probe chain, where a lookup from its home slot stops short
// of it, and asserts the world-stopped check reports it.
func TestCheckInvariantsCatchesProbeGap(t *testing.T) {
	m := newMgr(Config{Shards: 1})
	name := RowName(1, 1)
	publishRow(t, m, m.RegisterApp(), name)
	s := m.shardFor(name)
	home := fastHome(hashName(name))
	h := s.fastSlots[home].Load()
	if h == nil || h.name != name {
		t.Fatal("only published header not in its home slot")
	}
	gap := (home + 2) & (fastSlotsPerShard - 1)
	s.fastSlots[home].Store(nil)
	s.fastSlots[gap].Store(h)
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a header past a nil slot")
	}
	s.fastSlots[gap].Store(nil)
	s.fastSlots[home].Store(h)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- Race tests: the fast path vs conversions, escalation, resize ----------

// TestFastPathRaceConversions runs fast IS/S traffic on shared hot tables
// against in-flight conversions and periodic X writers, then checks every
// invariant (grant word vs chain state included). Run under -race this is
// the memory-model check for the seal/settle protocol; the invariant pass
// is the lost/double-counted-grant check.
func TestFastPathRaceConversions(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()
	const goroutines = 8
	iters := 150
	if testing.Short() {
		iters = 40
	}

	var wg sync.WaitGroup
	st := newStopper(t, &wg)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ctx := st.ctx
			for i := 0; i < iters; i++ {
				o := m.NewOwner(app)
				table := uint32(1 + rng.Intn(3))
				name := TableName(table)
				switch rng.Intn(10) {
				case 0:
					// Writer: X fences the word and must queue fairly.
					if err := m.Acquire(ctx, o, name, ModeX, 1); err != nil {
						t.Error(err)
					}
				case 1, 2:
					// Converter: fast IS, then upgrade to S (latched).
					if err := m.Acquire(ctx, o, name, ModeIS, 1); err != nil {
						t.Error(err)
					}
					if err := m.Acquire(ctx, o, name, ModeS, 1); err != nil {
						t.Error(err)
					}
				default:
					// Reader: fast IS + a covered row re-acquire.
					if err := m.Acquire(ctx, o, name, ModeIS, 1); err != nil {
						t.Error(err)
					}
					if err := m.Acquire(ctx, o, RowName(table, uint64(i)), ModeIS, 1); err != nil {
						t.Error(err)
					}
				}
				m.ReleaseAll(o)
				m.FinishOwner(o)
			}
		}(int64(g))
	}
	wg.Wait()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.FastPathHits() == 0 {
		t.Fatal("race workload never hit the fast path")
	}
}

// TestFastPathRaceResize races the fast path against Resize (which drains
// fast credit and shrinks under per-shard latches) and the stop-the-world
// CheckInvariants gate.
func TestFastPathRaceResize(t *testing.T) {
	m := newMgr(Config{InitialPages: 32 * 8})
	app := m.RegisterApp()
	iters := 200
	if testing.Short() {
		iters = 50
	}

	var wg, resizer sync.WaitGroup
	st := newStopper(t, &wg, &resizer)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ctx := st.ctx
			for i := 0; i < iters; i++ {
				o := m.NewOwner(app)
				name := TableName(uint32(1 + rng.Intn(2)))
				mode := ModeIS
				if rng.Intn(4) == 0 {
					mode = ModeS
				}
				if err := m.Acquire(ctx, o, name, mode, 1); err != nil {
					t.Error(err)
				}
				if rng.Intn(2) == 0 {
					_ = m.Release(o, name) // fast release path
				}
				m.ReleaseAll(o)
				m.FinishOwner(o)
			}
		}(int64(g))
	}
	resizer.Add(1)
	go func() {
		defer resizer.Done()
		sizes := []int{32 * 4, 32 * 8, 32 * 2, 32 * 8}
		for i := 0; ; i++ {
			select {
			case <-st.C:
				return
			default:
			}
			m.Resize(sizes[i%len(sizes)])
			if err := m.CheckInvariants(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	st.stop()
	resizer.Wait()
	m.Resize(32 * 8)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFastPathRaceEscalation puts a tight per-application quota on a
// row-hungry workload so MAXLOCKS escalation (a runGlobal full-fence
// operation) races the latch-free admissions on the shared table intents.
func TestFastPathRaceEscalation(t *testing.T) {
	m := New(Config{InitialPages: 32, Quota: fixedQuota(10)})
	app := m.RegisterApp()
	iters := 60
	if testing.Short() {
		iters = 20
	}

	var wg sync.WaitGroup
	st := newStopper(t, &wg)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ctx := st.ctx
			for i := 0; i < iters; i++ {
				o := m.NewOwner(app)
				// Shared hot table: latch-free intent.
				if err := m.Acquire(ctx, o, TableName(1), ModeIS, 1); err != nil {
					t.Error(err)
				}
				// Private table: enough rows to trip the quota and escalate.
				priv := uint32(100 + seed)
				for r := 0; r < 8; r++ {
					if err := m.Acquire(ctx, o, RowName(priv, uint64(rng.Intn(64))), ModeS, 2); err != nil {
						t.Error(err)
					}
				}
				m.ReleaseAll(o)
				m.FinishOwner(o)
			}
		}(int64(g))
	}
	wg.Wait()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
