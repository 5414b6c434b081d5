package lockmgr

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// publishTable latches in one IS grant on a table name, which publishes
// its header (table granularity publishes at the first settle), then
// releases it so the header sits quiescent and admitting.
func publishTable(t *testing.T, m *Manager, app *App, name Name) {
	t.Helper()
	o := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(o, name, ModeIS, 1), "publishing IS")
	m.ReleaseAll(o)
}

// --- Unit tests: token issue, validation, no-op release ---------------------

func TestOptimisticTokenBasics(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()
	name := TableName(11)
	publishTable(t, m, app, name)

	hits0, fails0 := m.OptimisticHits(), m.OptimisticFailures()
	tok, ok := m.TryOptimisticRead(app, name, ModeS)
	if !ok || !tok.Valid() {
		t.Fatal("optimistic S read refused on a quiescent published header")
	}
	if got := m.OptimisticHits(); got != hits0+1 {
		t.Fatalf("optimistic hits = %d, want %d", got, hits0+1)
	}

	// A token is not a lock: an X request from another owner must be
	// granted immediately — no holder count was incremented, so there is
	// nothing to wait for. (This is exactly the "release is a no-op"
	// property: there is nothing to decrement either.)
	ox := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(ox, name, ModeX, 1), "X past an outstanding token")

	// ...and that X invalidates the token.
	if m.ValidateOptimistic(tok) {
		t.Fatal("token validated across a conflicting X grant")
	}
	if got := m.OptimisticFailures(); got != fails0+1 {
		t.Fatalf("optimistic failures = %d, want %d", got, fails0+1)
	}
	m.ReleaseAll(ox)

	// A fresh token over a quiet window validates, and validating it
	// changes nothing — CheckInvariants still balances and a second
	// validation still passes.
	tok2, ok := m.TryOptimisticRead(app, name, ModeS)
	if !ok {
		t.Fatal("optimistic S read refused after the header quiesced")
	}
	if !m.ValidateOptimistic(tok2) {
		t.Fatal("token failed over a quiet window")
	}
	if !m.ValidateOptimistic(tok2) {
		t.Fatal("validation must be repeatable (no state consumed)")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The zero token never validates.
	if m.ValidateOptimistic(OptToken{}) {
		t.Fatal("zero token validated")
	}
}

func TestOptimisticMissCases(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()

	// Unpublished name: no token.
	if _, ok := m.TryOptimisticRead(app, RowName(1, 99), ModeS); ok {
		t.Fatal("token issued for an unpublished name")
	}

	name := TableName(21)
	publishTable(t, m, app, name)

	// Non-read modes: no token.
	for _, mode := range []Mode{ModeIX, ModeU, ModeX, ModeSIX, ModeNone} {
		if _, ok := m.TryOptimisticRead(app, name, mode); ok {
			t.Fatalf("token issued for mode %v", mode)
		}
	}

	// Fenced header (X held): no token in either read mode.
	ox := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(ox, name, ModeX, 1), "fencing X")
	if _, ok := m.TryOptimisticRead(app, name, ModeS); ok {
		t.Fatal("S token issued under a granted X")
	}
	if _, ok := m.TryOptimisticRead(app, name, ModeIS); ok {
		t.Fatal("IS token issued under a granted X")
	}
	m.ReleaseAll(ox)

	// IX holder: S must be refused (S–IX conflict), IS admitted.
	oix := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(oix, name, ModeIX, 1), "IX holder")
	if _, ok := m.TryOptimisticRead(app, name, ModeS); ok {
		t.Fatal("S token issued alongside a granted IX")
	}
	tok, ok := m.TryOptimisticRead(app, name, ModeIS)
	if !ok {
		t.Fatal("IS token refused alongside a compatible IX")
	}
	if !m.ValidateOptimistic(tok) {
		t.Fatal("IS token failed with only compatible traffic")
	}
	m.ReleaseAll(oix)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOptimisticInvalidatedByFastIX pins the one invalidating transition
// that bypasses seal/settle: a fast-path CAS admission of IX must bump the
// reader epoch itself, or an S token spanning the IX's lifetime would
// validate falsely.
func TestOptimisticInvalidatedByFastIX(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()
	name := TableName(31)
	publishTable(t, m, app, name)

	tok, ok := m.TryOptimisticRead(app, name, ModeS)
	if !ok {
		t.Fatal("token refused on quiescent header")
	}

	// Fast IX admission (grant-word CAS, no latch, no seal/settle)…
	oix := m.NewOwner(app)
	hits0 := m.FastPathHits()
	mustGrant(t, m.AcquireAsync(oix, name, ModeIX, 1), "fast IX")
	if m.FastPathHits() != hits0+1 {
		t.Fatal("IX was not admitted by the fast path; test setup broken")
	}
	// …then fast release, restoring a bit-identical *count* state.
	if err := m.Release(oix, name); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(oix)

	if m.ValidateOptimistic(tok) {
		t.Fatal("S token validated across a fast-path IX admission window")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- Seq wraparound / ABA ---------------------------------------------------

// TestOptimisticSeqWraparound forces more than 2048 settle transitions
// inside one optimistic read window. The packed word's 11-bit settle seq
// wraps back to a bit-identical word — an 11-bit validator would ABA and
// accept — but the 64-bit epoch still differs, so the reader must fall
// back.
func TestOptimisticSeqWraparound(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()
	name := TableName(41)
	publishTable(t, m, app, name)

	h := m.shardFor(name).header(hashName(name), name)
	if h == nil || !h.published {
		t.Fatal("header not published")
	}

	tok, ok := m.TryOptimisticRead(app, name, ModeS)
	if !ok {
		t.Fatal("token refused on quiescent header")
	}
	w0 := h.word.Load()
	e0 := h.epoch.Load()

	// Each X acquire is one bumping settle (the grant fences the word); the
	// release settles back to an open empty word, which by design does not
	// bump (reopening invalidates nobody the grant didn't already). 2048
	// pairs are exactly 2048 epoch bumps, wrapping the 11-bit seq to its
	// starting value.
	o := m.NewOwner(app)
	ctx := context.Background()
	for i := 0; i < 2048; i++ {
		if err := m.Acquire(ctx, o, name, ModeX, 1); err != nil {
			t.Fatal(err)
		}
		if err := m.Release(o, name); err != nil {
			t.Fatal(err)
		}
	}
	m.FinishOwner(o)

	e1 := h.epoch.Load()
	if e1-e0 != 2048 {
		t.Fatalf("epoch advanced by %d, want exactly 2048 (test must wrap the 11-bit seq precisely)", e1-e0)
	}
	if w1 := h.word.Load(); w1 != w0 {
		t.Fatalf("grant word %#x differs from original %#x — the ABA this test needs did not occur", w1, w0)
	}
	// The word is bit-identical, the window was storm-free at both ends —
	// only the 64-bit epoch knows 2048 transitions happened.
	if m.ValidateOptimistic(tok) {
		t.Fatal("token validated across a wrapped settle seq (11-bit ABA)")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsCatchesEpochDesync corrupts the epoch under the
// world-stopped check and asserts the cross-check trips: the word-seq ≡
// epoch identity is load-bearing for wraparound detection.
func TestCheckInvariantsCatchesEpochDesync(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()
	name := TableName(51)
	publishTable(t, m, app, name)

	h := m.shardFor(name).header(hashName(name), name)
	h.epoch.Add(1) // desync: no matching word-seq bump
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a desynced epoch")
	}
	h.epoch.Add(^uint64(0)) // restore
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- Torn-read storm (-race) ------------------------------------------------

// TestOptimisticTornRead is the seqlock correctness storm: writers update a
// two-word payload strictly under an X lock on the guarding header while
// optimistic readers snapshot the payload and validate. A validated token
// asserts the whole read window was write-free, so the two payload halves
// must agree; observing a half-updated ("torn") pair with a validated
// token is the bug this tier must never exhibit. Run under -race this also
// proves the protocol's happens-before edges.
func TestOptimisticTornRead(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()
	name := TableName(61)
	publishTable(t, m, app, name)

	const (
		writers   = 4
		readers   = 4
		writeIter = 400
	)
	var payloadA, payloadB atomic.Uint64 // atomics: readers race by design
	var validated, torn, invalidated atomic.Int64
	var writerWg, readerWg sync.WaitGroup
	st := newStopper(t, &writerWg, &readerWg)
	ctx := st.ctx
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func() {
			defer writerWg.Done()
			o := m.NewOwner(app)
			defer m.FinishOwner(o)
			for i := 0; i < writeIter; i++ {
				if err := m.Acquire(ctx, o, name, ModeX, 1); err != nil {
					t.Error(err)
					return
				}
				payloadA.Add(1)
				payloadB.Add(1)
				if err := m.Release(o, name); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		readerWg.Add(1)
		go func() {
			defer readerWg.Done()
			for !st.stopped() {
				tok, ok := m.TryOptimisticRead(app, name, ModeS)
				if !ok {
					continue // fenced by a writer; the locking tiers would serve this read
				}
				a := payloadA.Load()
				b := payloadB.Load()
				if m.ValidateOptimistic(tok) {
					validated.Add(1)
					if a != b {
						torn.Add(1)
					}
				} else {
					invalidated.Add(1)
				}
			}
		}()
	}

	// Readers run against live writers for the whole storm; once the
	// writers drain, the header quiesces and reads must start validating —
	// so the test exercises both verdicts before stopping the readers.
	writerWg.Wait()
	for i := 0; i < 1_000_000 && validated.Load() == 0; i++ {
		runtime.Gosched()
	}
	st.stop()
	readerWg.Wait()

	if validated.Load() == 0 {
		t.Fatal("no read validated even after the writers drained")
	}
	if got := torn.Load(); got != 0 {
		t.Fatalf("%d validated reads observed a torn payload", got)
	}
	if payloadA.Load() != writers*writeIter || payloadB.Load() != writers*writeIter {
		t.Fatalf("payload = (%d,%d), want (%d,%d)", payloadA.Load(), payloadB.Load(), writers*writeIter, writers*writeIter)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("validated=%d invalidated=%d", validated.Load(), invalidated.Load())
}

// TestFunnelExactAcrossApps: three applications read published rows with
// tokens and locks and write private rows in batches, concurrently, each
// counting in its own cells. Every token and every acquisition lands in
// exactly one funnel counter (optimistic hits + fast-path hits +
// fallbacks) and every grant in Stats.Grants, and the totals stay exact
// after an application unregisters and the others carry on.
func TestFunnelExactAcrossApps(t *testing.T) {
	m := newMgr(Config{Shards: 4})
	apps := []*App{m.RegisterApp(), m.RegisterApp(), m.RegisterApp()}
	shared := []Name{TableName(1)}
	publishTable(t, m, apps[0], shared[0])
	for r := uint64(0); r < 8; r++ {
		shared = append(shared, RowName(1, r))
		publishRow(t, m, apps[0], shared[r+1])
	}
	tokens0, admits0, grants0 := m.OptimisticHits(), m.FastPathHits()+m.FastPathFallbacks(), m.Stats().Grants
	var tokens, admits atomic.Int64
	round := func(apps []*App) {
		var wg sync.WaitGroup
		for _, app := range apps {
			wg.Add(1)
			go func(app *App) {
				defer wg.Done()
				ctx := context.Background()
				for i := 0; i < 200; i++ {
					o := m.NewOwner(app)
					for j, name := range shared {
						mode := ModeS
						if j == 0 {
							mode = ModeIS
						}
						if i%2 == 0 {
							if tok, ok := m.TryOptimisticRead(app, name, mode); ok {
								tokens.Add(1)
								m.ValidateOptimistic(tok)
								continue
							}
						}
						admits.Add(1)
						if err := m.Acquire(ctx, o, name, mode, 1); err != nil {
							t.Error(err)
							return
						}
					}
					rows := []uint64{uint64(app.ID()) << 20, uint64(app.ID())<<20 | uint64(i+1)}
					admits.Add(1 + int64(len(rows)))
					if err := m.Acquire(ctx, o, TableName(2), ModeIX, 1); err != nil {
						t.Error(err)
						return
					}
					if _, err := m.AcquireRows(ctx, o, 2, rows, ModeX); err != nil {
						t.Error(err)
						return
					}
					m.FinishOwner(o)
				}
			}(app)
		}
		wg.Wait()
		if tokens.Load() == 0 {
			t.Fatal("no read token issued: the funnel's token tier is untested")
		}
		if got := m.OptimisticHits() - tokens0; got != tokens.Load() {
			t.Fatalf("optimistic hits %d, want %d tokens issued", got, tokens.Load())
		}
		if got := m.FastPathHits() + m.FastPathFallbacks() - admits0; got != admits.Load() {
			t.Fatalf("fast-path hits + fallbacks %d, want %d acquisitions", got, admits.Load())
		}
		if got := m.Stats().Grants - grants0; got != admits.Load() {
			t.Fatalf("grants %d, want %d acquisitions", got, admits.Load())
		}
	}
	round(apps)
	if err := m.UnregisterApp(apps[1]); err != nil {
		t.Fatal(err)
	}
	round([]*App{apps[0], apps[2]})
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
