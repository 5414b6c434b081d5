package lockmgr

import (
	"errors"
	"testing"
)

// TestClassicDeadlock: two owners acquire rows in opposite order and upgrade
// into each other — the detector must deny exactly one victim.
func TestClassicDeadlock(t *testing.T) {
	m := newMgr(Config{})
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())
	a, b := RowName(1, 1), RowName(1, 2)

	mustGrant(t, m.AcquireAsync(o1, a, ModeX, 1), "o1 a")
	mustGrant(t, m.AcquireAsync(o2, b, ModeX, 1), "o2 b")
	p1 := m.AcquireAsync(o1, b, ModeX, 1)
	p2 := m.AcquireAsync(o2, a, ModeX, 1)
	mustWait(t, p1, "o1 waits for b")
	mustWait(t, p2, "o2 waits for a")

	if n := m.DetectDeadlocks(); n != 1 {
		t.Fatalf("victims = %d, want 1", n)
	}
	st1, err1 := p1.Status()
	st2, err2 := p2.Status()
	denied := 0
	if st1 == StatusDenied {
		denied++
		if !errors.Is(err1, ErrDeadlock) {
			t.Fatalf("o1 err = %v", err1)
		}
	}
	if st2 == StatusDenied {
		denied++
		if !errors.Is(err2, ErrDeadlock) {
			t.Fatalf("o2 err = %v", err2)
		}
	}
	if denied != 1 {
		t.Fatalf("denied = %d, want exactly 1", denied)
	}
	// The survivor proceeds once the victim aborts.
	if st1 == StatusDenied {
		m.ReleaseAll(o1)
		mustGrant(t, p2, "o2 after o1 abort")
	} else {
		m.ReleaseAll(o2)
		mustGrant(t, p1, "o1 after o2 abort")
	}
	if got := m.Stats().Deadlocks; got != 1 {
		t.Fatalf("deadlock stat = %d", got)
	}
}

// TestConvertDeadlock: two S holders both upgrading to X deadlock through
// the converter queue.
func TestConvertDeadlock(t *testing.T) {
	m := newMgr(Config{})
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())
	row := RowName(1, 1)
	mustGrant(t, m.AcquireAsync(o1, row, ModeS, 1), "o1 S")
	mustGrant(t, m.AcquireAsync(o2, row, ModeS, 1), "o2 S")
	p1 := m.AcquireAsync(o1, row, ModeX, 1)
	p2 := m.AcquireAsync(o2, row, ModeX, 1)
	mustWait(t, p1, "o1 convert")
	mustWait(t, p2, "o2 convert")

	if n := m.DetectDeadlocks(); n == 0 {
		t.Fatal("convert deadlock not detected")
	}
	// The victim's conversion is denied but its original S lock survives.
	var victim *Owner
	if st, _ := p1.Status(); st == StatusDenied {
		victim = o1
	} else if st, _ := p2.Status(); st == StatusDenied {
		victim = o2
	} else {
		t.Fatal("no conversion denied")
	}
	if req, ok := victim.heldGet(hashName(row), row); !ok || req.mode != ModeS {
		t.Fatalf("victim's original S lock lost: %+v", req)
	}
	// After the victim commits, the survivor converts.
	m.ReleaseAll(victim)
	if victim == o1 {
		mustGrant(t, p2, "o2 convert after abort")
	} else {
		mustGrant(t, p1, "o1 convert after abort")
	}
}

// TestThreeWayDeadlock: a cycle across three owners.
func TestThreeWayDeadlock(t *testing.T) {
	m := newMgr(Config{})
	os := make([]*Owner, 3)
	rows := []Name{RowName(1, 0), RowName(1, 1), RowName(1, 2)}
	for i := range os {
		os[i] = m.NewOwner(m.RegisterApp())
		mustGrant(t, m.AcquireAsync(os[i], rows[i], ModeX, 1), "seed")
	}
	ps := make([]*Pending, 3)
	for i := range os {
		ps[i] = m.AcquireAsync(os[i], rows[(i+1)%3], ModeX, 1)
		mustWait(t, ps[i], "cycle edge")
	}
	if n := m.DetectDeadlocks(); n != 1 {
		t.Fatalf("victims = %d, want 1", n)
	}
}

// TestNoFalsePositives: plain waiting without a cycle must not be broken.
func TestNoFalsePositives(t *testing.T) {
	m := newMgr(Config{})
	o1 := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())
	o3 := m.NewOwner(m.RegisterApp())
	row := RowName(1, 1)
	mustGrant(t, m.AcquireAsync(o1, row, ModeX, 1), "o1 X")
	p2 := m.AcquireAsync(o2, row, ModeX, 1)
	p3 := m.AcquireAsync(o3, row, ModeX, 1)
	if n := m.DetectDeadlocks(); n != 0 {
		t.Fatalf("false positives: %d", n)
	}
	mustWait(t, p2, "o2")
	mustWait(t, p3, "o3")
}

// TestDeadlockVictimIsYoungest: the newest owner in the cycle is chosen.
func TestDeadlockVictimIsYoungest(t *testing.T) {
	m := newMgr(Config{})
	older := m.NewOwner(m.RegisterApp())
	younger := m.NewOwner(m.RegisterApp())
	a, b := RowName(1, 1), RowName(1, 2)
	mustGrant(t, m.AcquireAsync(older, a, ModeX, 1), "older a")
	mustGrant(t, m.AcquireAsync(younger, b, ModeX, 1), "younger b")
	pOld := m.AcquireAsync(older, b, ModeX, 1)
	pYoung := m.AcquireAsync(younger, a, ModeX, 1)
	if n := m.DetectDeadlocks(); n != 1 {
		t.Fatalf("victims = %d", n)
	}
	if st, _ := pYoung.Status(); st != StatusDenied {
		t.Fatal("younger owner should be the victim")
	}
	mustWait(t, pOld, "older survives")
}

// TestWaitEdgesPredecessorOnly pins the exported edge set: each of 64 X
// waiters behind one X holder exports at most its holder and its immediate
// predecessor, not one edge per earlier waiter.
func TestWaitEdgesPredecessorOnly(t *testing.T) {
	m := newMgr(Config{Shards: 1})
	row := RowName(1, 1)
	mustGrant(t, m.AcquireAsync(m.NewOwner(m.RegisterApp()), row, ModeX, 1), "holder X")
	for i := 0; i < 64; i++ {
		mustWait(t, m.AcquireAsync(m.NewOwner(m.RegisterApp()), row, ModeX, 1), "X waiter")
	}
	s := m.lockShard(0)
	h := s.header(hashName(row), row)
	var sizes []int
	for _, w := range h.waiters {
		sizes = append(sizes, len(m.waitEdges(w)))
	}
	m.unlockShard(s)
	if len(sizes) != 64 {
		t.Fatalf("%d waiters queued, want 64", len(sizes))
	}
	for i, n := range sizes {
		if n > 2 {
			t.Fatalf("waiter %d exports %d edges, want ≤ 2", i, n)
		}
	}
}

// TestDeadlockThroughPredecessorChain: o1 waits on row A behind its holder
// and ahead of oM and o2, and also on row C, which o2 holds. The full edge
// set had o2 → o1 directly; the predecessor edges reach o1 only through oM.
// The cycle o2 → oM → o1 → o2 must still be found in one pass, its victim
// must be on it, and nothing else may be denied.
func TestDeadlockThroughPredecessorChain(t *testing.T) {
	m := newMgr(Config{Shards: 1})
	rowA, rowC := RowName(1, 1), RowName(1, 3)
	holder := m.NewOwner(m.RegisterApp())
	o1 := m.NewOwner(m.RegisterApp())
	oM := m.NewOwner(m.RegisterApp())
	o2 := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(holder, rowA, ModeX, 1), "holder X A")
	mustGrant(t, m.AcquireAsync(o2, rowC, ModeX, 1), "o2 X C")
	p1A := m.AcquireAsync(o1, rowA, ModeX, 1)
	pM := m.AcquireAsync(oM, rowA, ModeX, 1)
	p2 := m.AcquireAsync(o2, rowA, ModeX, 1)
	p1C := m.AcquireAsync(o1, rowC, ModeX, 1)
	for _, p := range []*Pending{p1A, pM, p2, p1C} {
		mustWait(t, p, "queued")
	}

	if n := m.DetectDeadlocks(); n != 1 {
		t.Fatalf("first pass denied %d, want 1", n)
	}
	// o2 is the youngest owner on the cycle.
	if st, err := p2.Status(); st != StatusDenied || !errors.Is(err, ErrDeadlock) {
		t.Fatalf("o2: status=%v err=%v, want deadlock denial", st, err)
	}
	for _, p := range []*Pending{p1A, pM, p1C} {
		mustWait(t, p, "off-victim wait")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(o2)
	mustGrant(t, p1C, "o1 C after o2 aborts")
	m.ReleaseAll(holder)
	mustGrant(t, p1A, "o1 A after the holder commits")
}
