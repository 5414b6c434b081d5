package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/lockmgr"
)

// TestCompilerStabilityPreventsPlanFlip demonstrates section 3.6: a
// compiler that looked at the *instantaneous* lock memory at a low-memory
// moment would bake table locking into the plan, pre-empting the runtime
// tuner; the stable sqlCompilerLockMem view keeps the plan on row locking,
// and the runtime then grows to accommodate it without escalation.
func TestCompilerStabilityPreventsPlanFlip(t *testing.T) {
	db := openAdaptive(t)
	const stmtRows = 200_000 // the statement's lock footprint

	// Naive alternative: a compiler seeded with the instantaneous
	// allocation (512 pages = 32768 structures) would reject row locking.
	naive := NewCompiler(db.Locks().Pages(), false)
	if naive.ChooseRowLocking("report", stmtRows) {
		t.Fatal("naive compiler should have chosen table locking")
	}

	// The stable 10% view (13107 pages = 838k structures) chooses row
	// locking.
	if !db.Compiler().ChooseRowLocking("report", stmtRows) {
		t.Fatal("stable compiler should choose row locking")
	}

	// And the runtime honours that plan: the tuner grows lock memory
	// synchronously, no escalation occurs.
	conn := db.Connect()
	tx := conn.Begin()
	fact := db.Catalog().ByName("lineitem")
	for i := 0; i < stmtRows/64; i++ {
		if err := tx.LockRow(context.Background(), fact.ID, uint64(i*64), lockmgr.ModeS); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	if got := db.Locks().Stats().Escalations; got != 0 {
		t.Fatalf("escalations = %d; the stable view should leave runtime room", got)
	}
	db.Compiler().Observe("report", stmtRows)
	tx.Commit()
}

// TestRealTimeSoak runs goroutine-per-connection clients against the wall
// clock with the STMM controller's Run loop — the deployment mode, as
// opposed to the discrete simulation.
func TestRealTimeSoak(t *testing.T) {
	db, err := Open(Config{
		TuningInterval: 30 * time.Second, // Run's first pass fires after this; TuneOnce is also called inline below
		LockTimeout:    2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	go db.Controller().Run(ctx)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			conn := db.Connect()
			table := db.Catalog().ByName("stock")
			for i := 0; i < 300; i++ {
				tx := conn.Begin()
				for r := 0; r < 20; r++ {
					row := uint64((seed*31 + i*20 + r) % 100000)
					if err := tx.LockRow(ctx, table.ID, row, lockmgr.ModeX); err != nil {
						break
					}
				}
				tx.Commit()
			}
		}(g)
	}
	// Tuning passes interleave with the running clients.
	for i := 0; i < 5; i++ {
		db.TuneOnce()
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()
	<-ctx.Done()

	if err := db.Locks().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := db.Set().CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if got := db.Locks().UsedStructs(); got != 0 {
		t.Fatalf("structs leaked: %d", got)
	}
	commits, _, _ := db.Txns().Stats()
	if commits == 0 {
		t.Fatal("no transactions committed")
	}
}

// TestCompilerConcurrentObserve runs Observe against ChooseRowLocking and
// Learned from several goroutines: under -race it checks the lock-free
// snapshot, and in any mode that no observation is lost — every class ends
// with an average inside the range of the values it was fed.
func TestCompilerConcurrentObserve(t *testing.T) {
	c := NewCompiler(100, true)
	classes := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Observe(classes[(g+i)%len(classes)], 1000+i%500)
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				class := classes[(g+i)%len(classes)]
				rowLocking := c.ChooseRowLocking(class, 1)
				if v, ok := c.Learned(class); ok && (v < 1000 || v >= 1500) {
					t.Errorf("class %s learned %v, outside every observation", class, v)
					return
				} else if ok && !rowLocking && v <= 100*structsPerPage {
					// A footprint learned between the two calls can only
					// have made the answer true, never false.
					t.Errorf("class %s: table locking chosen with footprint %v in view", class, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, class := range classes {
		if v, ok := c.Learned(class); !ok || v < 1000 || v >= 1500 {
			t.Fatalf("class %s: learned %v, %v", class, v, ok)
		}
	}
}

// TestSyncSetConcurrent checks the escalation-preference set's snapshot
// reads against concurrent adds and removes.
func TestSyncSetConcurrent(t *testing.T) {
	var s syncSet
	if s.has(1) {
		t.Fatal("empty set has 1")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.add(g)
				if !s.has(g) {
					t.Errorf("id %d missing right after add", g)
					return
				}
				s.remove(g)
				if s.has(g) {
					t.Errorf("id %d present right after remove", g)
					return
				}
			}
			s.add(100 + g)
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s.has(i % 8)
			}
		}()
	}
	wg.Wait()
	for g := 0; g < 4; g++ {
		if s.has(g) || !s.has(100+g) {
			t.Fatalf("after the run: has(%d)=%v has(%d)=%v", g, s.has(g), 100+g, s.has(100+g))
		}
	}
}
