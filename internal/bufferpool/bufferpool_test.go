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
	lo, hi, sum := p.stripes[0].size, 0, 0
	for i := range p.stripes {
		n := p.stripes[i].size
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

// refClock is the clock sweep the pool must reproduce, written the plain
// way: one frame array, one map, one hand, no stripes.
type refClock struct {
	frames    []refFrame
	at        map[uint64]int
	hand      int
	evictions int64
}

type refFrame struct {
	page      uint64
	ref, used bool
}

func (c *refClock) access(page uint64) bool {
	if pos, ok := c.at[page]; ok {
		c.frames[pos].ref = true
		return true
	}
	for len(c.frames) > 0 {
		pos := c.hand
		f := &c.frames[pos]
		c.hand = (c.hand + 1) % len(c.frames)
		if f.used && f.ref {
			f.ref = false
			continue
		}
		if f.used {
			delete(c.at, f.page)
			c.evictions++
		}
		*f = refFrame{page: page, used: true}
		c.at[page] = pos
		break
	}
	return false
}

func (c *refClock) resize(pages int) {
	for pos := pages; pos < len(c.frames); pos++ {
		if c.frames[pos].used {
			delete(c.at, c.frames[pos].page)
			c.evictions++
		}
	}
	if pages <= len(c.frames) {
		c.frames = c.frames[:pages]
	} else {
		c.frames = append(c.frames, make([]refFrame, pages-len(c.frames))...)
	}
	if c.hand >= pages {
		c.hand = 0
	}
}

// TestPoolMatchesReferenceClock replays seeded single-goroutine traces —
// a hot set, a cold tail, and resizes that shrink, grow past the frames
// allocated so far and grow within them — through a one-stripe pool and
// the reference clock, and requires the same hit or miss on every access
// and the same eviction count after every step.
func TestPoolMatchesReferenceClock(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := rng.Intn(300)
		p := New(size)
		if len(p.stripes) != 1 {
			t.Fatalf("stripes = %d, want 1", len(p.stripes))
		}
		ref := &refClock{at: map[uint64]int{}}
		ref.resize(size)
		var hits, misses int64
		for step := 0; step < 5000; step++ {
			if rng.Intn(200) == 0 {
				size = rng.Intn(400)
				p.Resize(size)
				ref.resize(size)
			} else {
				page := uint64(rng.Intn(64))
				if rng.Intn(5) == 0 {
					page = uint64(rng.Intn(4 * (size + 1)))
				}
				got, want := p.Access(page), ref.access(page)
				if got != want {
					t.Fatalf("seed %d step %d: Access(%d) = %v, reference %v", seed, step, page, got, want)
				}
				if want {
					hits++
				} else {
					misses++
				}
			}
			if h, m, ev := p.Stats(); h != hits || m != misses || ev != ref.evictions {
				t.Fatalf("seed %d step %d: hits/misses/evictions %d/%d/%d, reference %d/%d/%d",
					seed, step, h, m, ev, hits, misses, ref.evictions)
			}
		}
	}
}

// checkIndex asserts, for a quiescent pool, that every stripe's index and
// frames agree: each used frame is found at its own position, each index
// slot names a used frame whose hash it carries, and no frame past the
// stripe's size is used.
func checkIndex(t *testing.T, p *Pool) {
	t.Helper()
	for i := range p.stripes {
		s := &p.stripes[i]
		tab, used := s.tab.Load(), 0
		for pos := range tab.frames {
			f := &tab.frames[pos]
			if !f.used {
				continue
			}
			if pos >= s.size {
				t.Fatalf("stripe %d: frame %d used past size %d", i, pos, s.size)
			}
			used++
			if page := f.page.Load(); tab.find(pageHash(page), page) != pos {
				t.Fatalf("stripe %d: page %d in frame %d not found there", i, page, pos)
			}
		}
		slots := 0
		for j := range tab.slots {
			v := tab.slots[j].Load()
			if v == 0 {
				continue
			}
			slots++
			f := &tab.frames[int(uint32(v))-1]
			if !f.used || pageHash(f.page.Load())>>32 != v>>32 {
				t.Fatalf("stripe %d: slot %d names frame %d, which does not hold its page", i, j, int(uint32(v))-1)
			}
		}
		if slots != used {
			t.Fatalf("stripe %d: %d index slots for %d used frames", i, slots, used)
		}
	}
}

// TestPoolHitHammer runs lock-free hits on a hot set beside misses,
// evictions and resizes, on a one-stripe pool (every access on one stripe)
// and a striped one. Every access must be counted exactly once, and the
// index must agree with the frames afterwards.
func TestPoolHitHammer(t *testing.T) {
	for _, striped := range []bool{false, true} {
		p, lo := New(256), 128
		if striped {
			p, lo = stripedPool(t), 16384
		}
		const goroutines, accesses = 6, 20000
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < accesses; i++ {
					page := uint64(rng.Intn(64))
					if i%8 == 0 {
						page = uint64(rng.Intn(8 * lo))
					}
					p.AccessBy(g, page)
					if g == 0 && i%1000 == 0 {
						p.Resize(lo + rng.Intn(3*lo))
					}
				}
			}(g)
		}
		wg.Wait()
		if hits, misses, _ := p.Stats(); hits+misses != goroutines*accesses {
			t.Fatalf("striped=%v: hits %d + misses %d, want %d accesses", striped, hits, misses, goroutines*accesses)
		}
		checkIndex(t, p)
		checkShares(t, p, p.Pages())
	}
}
