package lockmgr

import (
	"context"
	"strings"
	"testing"

	"repro/internal/flathash"
)

// The lock table's shards and an owner's held set are both flathash tables
// keyed by hashName(name). These tests pin what the rest of the package
// relies on: CheckInvariants notices when an index and the structure it
// indexes part ways, and a finished owner keeps neither a scan-sized array
// nor a pointer to a released request. alloc_test.go pins the allocations.

// TestOwnerDropsScanSizedHeldArray: an owner that held a scan's worth of
// locks goes back to the pool with its inline segment, not the scan's array,
// so the next transaction to draw it does not clear that array at commit.
func TestOwnerDropsScanSizedHeldArray(t *testing.T) {
	m := New(Config{InitialPages: 64, Shards: 8})
	app := m.RegisterApp()
	ctx := context.Background()
	o := m.NewOwner(app)
	for i := 0; i < 1000; i++ {
		if err := m.Acquire(ctx, o, RowName(1, uint64(i)), ModeS, 1); err != nil {
			t.Fatal(err)
		}
	}
	if o.held.Slots() <= heldKeepSlots {
		t.Fatalf("1000 locks fit in %d slots?", o.held.Slots())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.FinishOwner(o)
	if o.held.Len() != 0 || o.held.Slots() != heldInlineSlots {
		t.Fatalf("finished owner keeps %d locks in %d slots, want 0 in %d", o.held.Len(), o.held.Slots(), heldInlineSlots)
	}
	// Nor the scan's commit-walk scratch.
	if b := &o.walkBatch; cap(b.rows) > heldKeepSlots || cap(b.live) > heldKeepSlots || cap(o.drain.hdrs) > heldKeepSlots {
		t.Fatalf("finished owner keeps walk scratch: rows %d, live %d, hdrs %d", cap(b.rows), cap(b.live), cap(o.drain.hdrs))
	}
	// A modest array, on the other hand, is kept.
	o = m.NewOwner(app)
	for i := 0; i < 40; i++ {
		if err := m.Acquire(ctx, o, RowName(1, uint64(i)), ModeS, 1); err != nil {
			t.Fatal(err)
		}
	}
	slots := o.held.Slots()
	m.FinishOwner(o)
	if o.held.Len() != 0 || o.held.Slots() != slots || cap(o.walkBatch.rows) == 0 {
		t.Fatalf("finished owner has %d locks in %d slots (walk scratch %d), want 0 in %d and scratch kept",
			o.held.Len(), o.held.Slots(), cap(o.walkBatch.rows), slots)
	}
}

// TestCheckInvariantsCatchesIndexDrift corrupts, one at a time, the things
// the indexes must agree on and checks that CheckInvariants names each.
func TestCheckInvariantsCatchesIndexDrift(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()
	o := m.NewOwner(app)
	mustGrant(t, m.AcquireAsync(o, TableName(3), ModeIX, 1), "table 3 IX")
	for row := uint64(0); row < 5; row++ {
		mustGrant(t, m.AcquireAsync(o, RowName(3, row), ModeX, 1), "row X")
	}
	mustGrant(t, m.AcquireAsync(o, RowName(3, 9), ModeX, 4), "weighted row X")
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ot := o.tableFor(3)
	if ot == nil || ot.nRows != 6 || ot.rowStructs != 9 || ot.tableReq == nil {
		t.Fatalf("table 3 entry = %+v, want 6 rows, 9 structs and the table lock", ot)
	}
	name := RowName(3, 2)
	h := m.shardFor(name).header(hashName(name), name)
	req, _ := o.heldGet(hashName(name), name)
	if h == nil || req == nil {
		t.Fatal("row (3,2) not indexed")
	}

	expect := func(what, want string) {
		t.Helper()
		err := m.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: CheckInvariants = %v, want an error containing %q", what, err, want)
		}
	}
	ot.nRows--
	expect("row count one short", "held says")
	ot.nRows++
	ot.rowStructs += 2
	expect("structure total two over", "held says")
	ot.rowStructs -= 2
	saved := ot.tableReq
	ot.tableReq = nil
	expect("table lock forgotten", "held says")
	ot.tableReq = saved
	o.tables = o.tables[:0]
	expect("tables entry missing", "without a tables entry")
	o.tables = o.tables[:1]
	h.name.Row += 100
	expect("header renamed under its table entry", "not where its name hashes to")
	h.name.Row -= 100
	req.hash++
	expect("request carries a stale hash", "not where its name hashes to")
	req.hash--

	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("after undoing every corruption: %v", err)
	}
	m.ReleaseAll(o)
}

// TestFinishedOwnerScratchHoldsNoRequests: a pooled owner's commit-walk
// scratch and the inline segment its held index grew out of must not keep
// pointers to the requests it released. Boxes are recycled; a stale pointer
// to one ends up pointing at some later transaction's request and keeps it,
// and through it its owner and that owner's scratch, from the collector.
func TestFinishedOwnerScratchHoldsNoRequests(t *testing.T) {
	m := newMgr(Config{})
	app := m.RegisterApp()
	o := m.NewOwner(app)
	for i := 0; i < 20; i++ {
		mustGrant(t, m.AcquireAsync(o, TableName(uint32(i%3)), ModeIX, 1), "table IX")
		mustGrant(t, m.AcquireAsync(o, RowName(uint32(i%3), uint64(i)), ModeX, 1), "row X")
	}
	m.FinishOwner(o)
	// 23 locks outgrew the held index's inline segment mid-transaction;
	// the segment stays with the owner and must have been emptied then.
	if o.held.Len() != 0 || o.heldSeg != [heldInlineSlots]flathash.Slot[*request]{} {
		t.Fatal("finished owner's inline held segment still points at requests")
	}
	b := &o.walkBatch
	for _, lst := range [][]releaseEntry{b.rows[:cap(b.rows)], b.tables[:cap(b.tables)]} {
		for _, e := range lst {
			if e.req != nil {
				t.Fatalf("walk batch still points at the request for %v", e.name)
			}
		}
	}
	for _, r := range b.live[:cap(b.live)] {
		if r != nil {
			t.Fatal("walk batch live list still points at a request")
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
