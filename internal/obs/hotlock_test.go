package obs

import (
	"math/rand"
	"sync"
	"testing"
)

func TestHotSketchExactWithinSlots(t *testing.T) {
	h := NewHotSketch[string](1, 4)
	truth := map[string]int64{"a": 100, "b": 250, "c": 30}
	for k, v := range truth {
		for i := int64(0); i < v; i += 10 {
			h.Observe(0, k, 10, HotWaitNs, 10)
		}
	}
	es := h.Entries()
	if len(es) != len(truth) {
		t.Fatalf("tracked %d keys, want %d", len(es), len(truth))
	}
	for _, e := range es {
		if e.Score != truth[e.Key] {
			t.Errorf("%s score %d, want %d (must be exact within slot budget)", e.Key, e.Score, truth[e.Key])
		}
		if e.Err != 0 {
			t.Errorf("%s err %d, want 0", e.Key, e.Err)
		}
		if e.Vals[HotWaitNs] != truth[e.Key] {
			t.Errorf("%s wait %d, want %d", e.Key, e.Vals[HotWaitNs], truth[e.Key])
		}
	}
}

// TestHotSketchBoundUnderEviction overflows a stripe with many distinct
// keys and checks the space-saving accuracy contract for every tracked
// key: true ≤ Score and Score − Err ≤ true.
func TestHotSketchBoundUnderEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := NewHotSketch[int](1, 8)
	truth := make(map[int]int64)
	// Zipf-ish: a few heavy keys, a long tail of light ones.
	for i := 0; i < 50000; i++ {
		var k int
		if rng.Intn(4) > 0 {
			k = rng.Intn(5) // heavy
		} else {
			k = 5 + rng.Intn(200) // tail
		}
		d := int64(1 + rng.Intn(100))
		truth[k] += d
		h.Observe(0, k, d, HotWaitNs, d)
	}
	es := h.Entries()
	if len(es) != 8 {
		t.Fatalf("tracked %d keys, want the full 8 slots", len(es))
	}
	var sum int64
	for _, e := range es {
		tr := truth[e.Key]
		if tr > e.Score {
			t.Errorf("key %d: true %d > score %d (overcount contract broken)", e.Key, tr, e.Score)
		}
		if e.Score-e.Err > tr {
			t.Errorf("key %d: score %d − err %d > true %d (error bound broken)", e.Key, e.Score, e.Err, tr)
		}
		sum += e.Score
	}
	// Σ Score never exceeds the stripe's lifetime observed blame.
	if obs := h.StripeObserved(0); sum > obs {
		t.Fatalf("Σ score %d > observed %d", sum, obs)
	}
	// The heavy keys must have survived the tail's churn.
	tracked := make(map[int]bool)
	for _, e := range es {
		tracked[e.Key] = true
	}
	for k := 0; k < 5; k++ {
		if !tracked[k] {
			t.Errorf("heavy key %d evicted by the tail", k)
		}
	}
}

func TestHotSketchZeroScoreRideAlong(t *testing.T) {
	h := NewHotSketch[string](1, 2)
	// Untracked key + zero blame: dropped entirely.
	h.Observe(0, "cold", 0, HotOptFailures, 1)
	if got := len(h.Entries()); got != 0 {
		t.Fatalf("zero-blame observation installed %d entries", got)
	}
	if got := h.StripeObserved(0); got != 0 {
		t.Fatalf("zero-blame observation bumped observed to %d", got)
	}
	// Tracked key: the attribute rides along without adding blame.
	h.Observe(0, "hot", 500, HotWaitNs, 500)
	h.Observe(0, "hot", 0, HotOptFailures, 3)
	e := h.Entries()[0]
	if e.Score != 500 || e.Vals[HotOptFailures] != 3 {
		t.Fatalf("ride-along: score %d vals %v", e.Score, e.Vals)
	}
}

// TestHotSketchZeroScoreTouchesOnlyItsAttribute fills a stripe, then makes
// zero-score observations: one of an untracked key must leave every slot
// and counter as it was (no takeover of the minimum), one of a tracked key
// must bump that key's attribute and nothing else.
func TestHotSketchZeroScoreTouchesOnlyItsAttribute(t *testing.T) {
	h := NewHotSketch[string](1, 3)
	h.Observe(0, "a", 300, HotWaitNs, 300)
	h.Observe(0, "b", 100, HotWaitNs, 100)
	h.Observe(0, "c", 200, HotQueueMax, 4)
	slots := func() (ps []*hotEntry[string]) {
		for i := range h.stripes[0].slots {
			ps = append(ps, h.stripes[0].slots[i].Load())
		}
		return ps
	}
	byKey := func() map[string]HotEntry[string] {
		out := make(map[string]HotEntry[string])
		for _, e := range h.Entries() {
			out[e.Key] = e
		}
		return out
	}
	slots0, before := slots(), byKey()

	h.Observe(0, "cold", 0, HotOptFailures, 1)
	for i, p := range slots() {
		if p != slots0[i] {
			t.Fatalf("untracked zero-score observation replaced slot %d", i)
		}
	}
	if got := byKey(); len(got) != 3 || got["a"] != before["a"] || got["b"] != before["b"] || got["c"] != before["c"] {
		t.Fatalf("untracked zero-score observation changed entries: %v, was %v", got, before)
	}
	if got := h.StripeObserved(0); got != 600 {
		t.Fatalf("observed = %d after a zero-score observation, want 600", got)
	}

	h.Observe(0, "b", 0, HotOptFailures, 2)
	h.Observe(0, "c", 0, HotQueueMax, 9)
	got := byKey()
	wantB, wantC := before["b"], before["c"]
	wantB.Vals[HotOptFailures] += 2
	wantC.Vals[HotQueueMax] = 9
	if got["a"] != before["a"] || got["b"] != wantB || got["c"] != wantC {
		t.Fatalf("tracked zero-score observations: got %v, want a %v, b %v, c %v", got, before["a"], wantB, wantC)
	}
}

func TestHotSketchQueueMaxAndDecay(t *testing.T) {
	h := NewHotSketch[string](1, 2)
	h.Observe(0, "k", 1000, HotQueueMax, 7)
	h.Observe(0, "k", 1000, HotQueueMax, 3) // below the high-water: ignored
	h.Observe(0, "k", 1000, HotWaitNs, 2000)
	e := h.Entries()[0]
	if e.Vals[HotQueueMax] != 7 {
		t.Fatalf("queue max %d, want 7", e.Vals[HotQueueMax])
	}
	h.Decay()
	e = h.Entries()[0]
	if e.Score != 1500 || e.Vals[HotWaitNs] != 1000 {
		t.Fatalf("after decay: score %d wait %d, want 1500/1000", e.Score, e.Vals[HotWaitNs])
	}
	if e.Vals[HotQueueMax] != 7 {
		t.Fatalf("decay touched the high-water mark: %d", e.Vals[HotQueueMax])
	}
	// observed is lifetime: never decayed.
	if got := h.StripeObserved(0); got != 3000 {
		t.Fatalf("observed %d, want 3000", got)
	}
}

func TestHotSketchStriping(t *testing.T) {
	h := NewHotSketch[string](4, 2)
	if h.Stripes() != 4 {
		t.Fatalf("stripes = %d", h.Stripes())
	}
	h.Observe(0, "same", 10, HotWaitNs, 10)
	h.Observe(2, "same", 20, HotWaitNs, 20)
	es := h.TopK(0)
	if len(es) != 2 {
		t.Fatalf("striped key tracked %d times, want 2 (one per stripe)", len(es))
	}
	if es[0].Score != 20 || es[0].Stripe != 2 || es[1].Stripe != 0 {
		t.Fatalf("TopK order wrong: %+v", es)
	}
	if got := h.TotalScore(); got != 30 {
		t.Fatalf("total score %d, want 30", got)
	}
	if got := len(h.TopK(1)); got != 1 {
		t.Fatalf("TopK(1) len %d", got)
	}
}

func TestHotSketchNilSafe(t *testing.T) {
	var h *HotSketch[string]
	h.Observe(0, "x", 1, HotWaitNs, 1)
	h.Decay()
	if h.Entries() != nil || h.TopK(3) != nil || h.TotalScore() != 0 ||
		h.Stripes() != 0 || h.StripeObserved(0) != 0 {
		t.Fatal("nil sketch must no-op")
	}
}

// TestHotSketchConcurrent hammers one stripe from many goroutines under
// -race and checks the invariants that must hold even for a lossy sketch:
// Σ Score ≤ observed, and a key observed on every goroutine is tracked
// with at most the true total.
func TestHotSketchConcurrent(t *testing.T) {
	h := NewHotSketch[int](2, 8)
	const workers = 8
	const perWorker = 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				k := rng.Intn(64)
				h.Observe(k%2, k, int64(1+rng.Intn(10)), HotWaitNs, 1)
			}
		}(w)
	}
	wg.Wait()
	for s := 0; s < 2; s++ {
		var sum int64
		for _, e := range h.Entries() {
			if e.Stripe == s {
				sum += e.Score
			}
		}
		if obs := h.StripeObserved(s); sum > obs {
			t.Fatalf("stripe %d: Σ score %d > observed %d", s, sum, obs)
		}
	}
}
