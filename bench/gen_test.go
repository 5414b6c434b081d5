package main

import (
	"math"
	"testing"

	"repro/internal/engine"
)

func testTables(t *testing.T) *tableSet {
	t.Helper()
	db, err := engine.Open(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := lookupTables(db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	return &ts
}

func TestSameSeedSameRing(t *testing.T) {
	ts := testTables(t)
	for _, w := range workloads {
		a := genRing(w, ts, 7, 1, 1<<12).hash()
		if b := genRing(w, ts, 7, 1, 1<<12).hash(); a != b {
			t.Errorf("%s: seed 7 gave ring hashes %x and %x", w.name, a, b)
		}
		if b := genRing(w, ts, 8, 1, 1<<12).hash(); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same ring", w.name)
		}
		if b := genRing(w, ts, 7, 2, 1<<12).hash(); a == b {
			t.Errorf("%s: sessions 1 and 2 gave the same ring", w.name)
		}
	}
}

func TestTPCCMix(t *testing.T) {
	r := genRing(workloadByName("tpcc"), testTables(t), 1, 0, 1<<16)
	var count [nKinds]float64
	for _, tx := range r.txns {
		count[tx.kind]++
	}
	want := map[int]float64{kNewOrder: 45, kPayment: 43, kOrderStatus: 4, kDelivery: 4, kStockLevel: 4}
	for kind, pct := range want {
		if got := 100 * count[kind] / float64(len(r.txns)); math.Abs(got-pct) > 1 {
			t.Errorf("%s is %.2f%% of the ring, want %g±1", kindNames[kind], got, pct)
		}
	}
}

// Every session locks in one global order — tables ascending, rows
// ascending — which is why no workload can deadlock.
func TestLockOrder(t *testing.T) {
	ts := testTables(t)
	for _, w := range workloads {
		r := genRing(w, ts, 3, 1, 1<<10)
		for i, tx := range r.txns {
			last := -1
			for _, g := range r.stmtsOf(tx) {
				if int(g.table) <= last {
					t.Fatalf("%s txn %d: table %s after table %s", w.name, i, tableNames[g.table], tableNames[last])
				}
				last = int(g.table)
				rows := r.rowsOf(g)
				for j := 1; j < len(rows); j++ {
					if rows[j] < rows[j-1] {
						t.Fatalf("%s txn %d: rows of %s not ascending", w.name, i, tableNames[g.table])
					}
				}
				for _, row := range rows {
					if row >= ts[g.table].Rows {
						t.Fatalf("%s txn %d: row %d beyond %s", w.name, i, row, tableNames[g.table])
					}
				}
			}
		}
	}
}
