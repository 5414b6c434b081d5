package bufferpool

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func TestColdMissThenHit(t *testing.T) {
	p := New(4)
	if p.Access(1) {
		t.Fatal("cold access must miss")
	}
	if !p.Access(1) {
		t.Fatal("second access must hit")
	}
	hits, misses, _ := p.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	if got := p.HitRatio(); got != 0.5 {
		t.Fatalf("hit ratio = %g, want 0.5", got)
	}
}

func TestWorkingSetFits(t *testing.T) {
	p := New(10)
	for round := 0; round < 5; round++ {
		for pg := uint64(0); pg < 10; pg++ {
			p.Access(pg)
		}
	}
	hits, misses, _ := p.Stats()
	if misses != 10 {
		t.Fatalf("misses = %d, want 10 (cold only)", misses)
	}
	if hits != 40 {
		t.Fatalf("hits = %d, want 40", hits)
	}
}

func TestEvictionWhenOversubscribed(t *testing.T) {
	p := New(4)
	for pg := uint64(0); pg < 8; pg++ {
		p.Access(pg)
	}
	_, _, ev := p.Stats()
	if ev != 4 {
		t.Fatalf("evictions = %d, want 4", ev)
	}
	if got := p.Pages(); got != 4 {
		t.Fatalf("pages = %d", got)
	}
}

func TestClockSecondChance(t *testing.T) {
	p := New(3)
	p.Access(1)
	p.Access(2)
	p.Access(3)
	// Re-reference page 1 so it gets a second chance.
	p.Access(1)
	// A new page evicts 2 or 3 (first unreferenced), not 1.
	p.Access(4)
	if !p.Access(1) {
		t.Fatal("referenced page 1 was evicted despite second chance")
	}
}

func TestZeroSizedPool(t *testing.T) {
	p := New(0)
	if p.Access(1) || p.Access(1) {
		t.Fatal("zero pool can never hit")
	}
	if p.Benefit() <= 0 {
		t.Fatal("starved zero pool must report demand")
	}
}

func TestResizeShrinkEvicts(t *testing.T) {
	p := New(8)
	for pg := uint64(0); pg < 8; pg++ {
		p.Access(pg)
	}
	p.Resize(4)
	if got := p.Pages(); got != 4 {
		t.Fatalf("pages = %d, want 4", got)
	}
	// The surviving prefix still hits.
	if !p.Access(0) {
		t.Fatal("page 0 must survive the shrink")
	}
	// Negative size clamps to zero.
	p.Resize(-5)
	if got := p.Pages(); got != 0 {
		t.Fatalf("pages = %d, want 0", got)
	}
}

func TestResizeGrowPreservesContents(t *testing.T) {
	p := New(4)
	for pg := uint64(0); pg < 4; pg++ {
		p.Access(pg)
	}
	p.Resize(16)
	for pg := uint64(0); pg < 4; pg++ {
		if !p.Access(pg) {
			t.Fatalf("page %d lost on grow", pg)
		}
	}
}

func TestBenefitReflectsPressure(t *testing.T) {
	calm := New(100)
	for pg := uint64(0); pg < 50; pg++ {
		calm.Access(pg)
	}
	thrash := New(10)
	for i := 0; i < 500; i++ {
		thrash.Access(uint64(i % 100))
	}
	if calm.Benefit() >= thrash.Benefit() {
		t.Fatalf("benefit ordering wrong: calm=%g thrash=%g", calm.Benefit(), thrash.Benefit())
	}
	thrash.ResetInterval()
	if got := thrash.Benefit(); got != 0 {
		t.Fatalf("benefit after reset = %g", got)
	}
}

func TestApplySizeAndName(t *testing.T) {
	p := New(4)
	p.ApplySize(8)
	if p.Pages() != 8 {
		t.Fatal("ApplySize did not resize")
	}
	if p.Name() != "bufferpool" {
		t.Fatal("name wrong")
	}
}

func TestConcurrentAccess(t *testing.T) {
	p := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				p.Access(uint64(rng.Intn(200)))
				if i%500 == 0 {
					p.Resize(32 + rng.Intn(64))
				}
			}
		}(int64(g))
	}
	wg.Wait()
	hits, misses, _ := p.Stats()
	if hits+misses != 16000 {
		t.Fatalf("accesses = %d, want 16000", hits+misses)
	}
}

// stripedPool returns a pool of 65 536 pages built at GOMAXPROCS ≥ 2, large
// enough to stripe.
func stripedPool(t *testing.T) *Pool {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	p := New(65536)
	if len(p.stripes) < 2 {
		t.Fatalf("stripes = %d, want > 1", len(p.stripes))
	}
	return p
}

// checkShares asserts the pool holds pages frames split evenly: stripe
// shares differ by at most one.
func checkShares(t *testing.T, p *Pool, pages int) {
	t.Helper()
	if got := p.Pages(); got != pages {
		t.Fatalf("pages = %d, want %d", got, pages)
	}
	lo, hi, sum := len(p.stripes[0].frames), 0, 0
	for i := range p.stripes {
		n := len(p.stripes[i].frames)
		lo, hi, sum = min(lo, n), max(hi, n), sum+n
	}
	if sum != pages || hi-lo > 1 {
		t.Fatalf("stripe shares %d..%d sum %d, want even split of %d", lo, hi, sum, pages)
	}
}

func TestStripedResizeSplitsEvenly(t *testing.T) {
	p := stripedPool(t)
	checkShares(t, p, 65536)
	for _, pages := range []int{70001, 40003, 7, 0, 65536} {
		p.Resize(pages)
		checkShares(t, p, pages)
	}
}

func TestStripedWorkingSetFits(t *testing.T) {
	p := stripedPool(t)
	for round := 0; round < 3; round++ {
		for pg := uint64(0); pg < 4096; pg++ {
			p.Access(pg)
		}
	}
	hits, misses, ev := p.Stats()
	if misses != 4096 || hits != 2*4096 || ev != 0 {
		t.Fatalf("hits=%d misses=%d evictions=%d, want %d cold misses only", hits, misses, ev, 4096)
	}
}

func TestStripedConcurrentAccessResize(t *testing.T) {
	p := stripedPool(t)
	const goroutines, accesses = 8, 4000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < accesses; i++ {
				p.Access(uint64(rng.Intn(100000)))
				if i%500 == 0 {
					p.Resize(16384 + rng.Intn(65536))
				}
			}
		}(int64(g))
	}
	wg.Wait()
	hits, misses, _ := p.Stats()
	if hits+misses != goroutines*accesses {
		t.Fatalf("accesses = %d, want %d", hits+misses, goroutines*accesses)
	}
	checkShares(t, p, p.Pages())
}
