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
