// hotlock.go is the top-K heavy-hitter sketch behind the contention
// profiler: a striped, lock-free variant of the space-saving algorithm
// (Metwally et al., "Efficient Computation of Frequent and Top-k Elements
// in Data Streams") that attributes "blame" — cumulative wait time plus a
// fixed charge per contention event — to individual keys (lock names).
//
// Each stripe owns a small fixed array of entry slots. Recording against a
// tracked key is one or two uncontended atomic adds; an untracked key with
// non-zero blame takes over the stripe's minimum-score slot by pointer CAS,
// inheriting the evicted score as both its starting count and its error
// bound (the classic space-saving takeover). Zero-blame observations on
// untracked keys are dropped — attribute counters ride along only for keys
// the blame ranking already tracks.
//
// Accuracy contract (asserted by tests): for any tracked key,
//
//	true blame ≤ Score  and  Score − Err ≤ true blame
//
// and a stripe observing at most its slot count of distinct keys is exact
// (Err == 0, attribute counters equal their true sums). Σ Score over a
// stripe's entries never exceeds the stripe's lifetime observed blame —
// the cross-check CheckInvariants runs under the stopped world.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Hot-metric indexes: the per-key attribute counters a HotSketch entry
// carries alongside its blame score.
const (
	// HotWaitNs is cumulative attributed wait time in nanoseconds (sum).
	HotWaitNs = iota
	// HotQueueMax is the queue-depth high-water mark (max, never decayed).
	HotQueueMax
	// HotOptFailures counts optimistic-read validation failures (sum).
	HotOptFailures
	// NumHotMetrics sizes the per-entry attribute array.
	NumHotMetrics
)

// hotEntry is one tracked key. The key is immutable after publication;
// score, err and vals advance atomically under concurrent recording.
type hotEntry[K comparable] struct {
	key   K
	score atomic.Int64
	err   atomic.Int64 // overestimate inherited at takeover
	vals  [NumHotMetrics]atomic.Int64
}

// hotStripe is one stripe: a slot array plus the lifetime observed-blame
// total (never decayed), the right-hand side of the Σ Score invariant.
type hotStripe[K comparable] struct {
	slots    []atomic.Pointer[hotEntry[K]]
	observed atomic.Int64
	_        [40]byte // keep adjacent stripes' counters off one line
}

// HotSketch is the striped top-K sketch. The zero value is unusable; a nil
// *HotSketch is a valid disabled sketch (every method no-ops).
type HotSketch[K comparable] struct {
	mask    uint64
	stripes []hotStripe[K]
}

// NewHotSketch creates a sketch with the given stripe count (rounded up to
// a power of two, minimum 1) and slots per stripe (minimum 1). Callers
// stripe by a stable key→stripe mapping (the lock table stripes by home
// shard), so one key's counts are never split across stripes.
func NewHotSketch[K comparable](stripes, slots int) *HotSketch[K] {
	if stripes < 1 {
		stripes = 1
	}
	n := 1
	for n < stripes {
		n <<= 1
	}
	if slots < 1 {
		slots = 1
	}
	h := &HotSketch[K]{mask: uint64(n - 1), stripes: make([]hotStripe[K], n)}
	for i := range h.stripes {
		h.stripes[i].slots = make([]atomic.Pointer[hotEntry[K]], slots)
	}
	return h
}

// Stripes returns the stripe count (a power of two).
func (h *HotSketch[K]) Stripes() int {
	if h == nil {
		return 0
	}
	return len(h.stripes)
}

// StripeObserved returns stripe i's lifetime observed blame — every
// scoreDelta ever passed to Observe for that stripe, never decayed.
func (h *HotSketch[K]) StripeObserved(i int) int64 {
	if h == nil {
		return 0
	}
	return h.stripes[uint64(i)&h.mask].observed.Load()
}

// Observe attributes scoreDelta blame and one attribute delta to key on
// the given stripe. metric selects the attribute counter; HotQueueMax
// updates by max, every other metric by sum. A zero scoreDelta on an
// untracked key is dropped (attributes ride along, they do not rank).
// Lock-free: tracked keys cost one or two atomic adds; takeovers a bounded
// CAS retry loop (a lost race drops the observation — the sketch is lossy
// by construction and the error bound already covers it).
func (h *HotSketch[K]) Observe(stripe int, key K, scoreDelta int64, metric int, delta int64) {
	if h == nil {
		return
	}
	st := &h.stripes[uint64(stripe)&h.mask]
	if scoreDelta == 0 {
		// Attribute-only: no takeover can follow, so look for the key and
		// track no minimum. The lock table sends one of these per latched
		// admission.
		for i := range st.slots {
			if e := st.slots[i].Load(); e != nil && e.key == key {
				e.addVal(metric, delta)
				return
			}
		}
		return
	}
	st.observed.Add(scoreDelta)
	for attempt := 0; attempt < 4; attempt++ {
		var (
			minE     *hotEntry[K]
			minSlot  int
			minScore int64 = math.MaxInt64
			empty          = -1
		)
		for i := range st.slots {
			e := st.slots[i].Load()
			if e == nil {
				if empty < 0 {
					empty = i
				}
				continue
			}
			if e.key == key {
				e.score.Add(scoreDelta)
				e.addVal(metric, delta)
				return
			}
			if s := e.score.Load(); s < minScore {
				minScore, minSlot, minE = s, i, e
			}
		}
		ne := &hotEntry[K]{key: key}
		ne.vals[metric].Store(delta)
		if empty >= 0 {
			ne.score.Store(scoreDelta)
			if st.slots[empty].CompareAndSwap(nil, ne) {
				return
			}
			continue
		}
		// Space-saving takeover: the new key inherits the evicted minimum
		// as both its starting score and its error bound.
		ne.score.Store(minScore + scoreDelta)
		ne.err.Store(minScore)
		if st.slots[minSlot].CompareAndSwap(minE, ne) {
			return
		}
	}
}

// addVal applies delta to the entry's metric attribute: by max for
// HotQueueMax, by sum otherwise.
func (e *hotEntry[K]) addVal(metric int, delta int64) {
	if metric == HotQueueMax {
		storeMax(&e.vals[metric], delta)
	} else {
		e.vals[metric].Add(delta)
	}
}

// storeMax lifts v to at least x.
func storeMax(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// Decay halves every entry's score, error bound and summed attributes —
// the epoch step that ages old storms out of the ranking. High-water marks
// (HotQueueMax) are left alone. Concurrent observations may race a halving
// and land on either side of it; both outcomes respect the accuracy
// contract (Decay only ever shrinks counters).
func (h *HotSketch[K]) Decay() {
	if h == nil {
		return
	}
	for s := range h.stripes {
		for i := range h.stripes[s].slots {
			e := h.stripes[s].slots[i].Load()
			if e == nil {
				continue
			}
			halve(&e.score)
			halve(&e.err)
			for mIdx := range e.vals {
				if mIdx != HotQueueMax {
					halve(&e.vals[mIdx])
				}
			}
		}
	}
}

func halve(v *atomic.Int64) {
	for {
		cur := v.Load()
		if v.CompareAndSwap(cur, cur/2) {
			return
		}
	}
}

// HotEntry is a point-in-time copy of one tracked key.
type HotEntry[K comparable] struct {
	Key    K
	Stripe int
	Score  int64 // decayed blame, the ranking metric
	Err    int64 // worst-case overestimate of Score
	Vals   [NumHotMetrics]int64
}

// Entries returns a copy of every tracked entry, unordered. Lock-free; the
// copy of one entry is not atomic across its counters (fine for the
// monotone ≤-style checks and displays it feeds).
func (h *HotSketch[K]) Entries() []HotEntry[K] {
	if h == nil {
		return nil
	}
	var out []HotEntry[K]
	for s := range h.stripes {
		for i := range h.stripes[s].slots {
			e := h.stripes[s].slots[i].Load()
			if e == nil {
				continue
			}
			he := HotEntry[K]{Key: e.key, Stripe: s, Score: e.score.Load(), Err: e.err.Load()}
			for mIdx := range e.vals {
				he.Vals[mIdx] = e.vals[mIdx].Load()
			}
			out = append(out, he)
		}
	}
	return out
}

// TopK returns the n highest-blame entries across all stripes, highest
// first (ties broken by stripe for a stable order).
func (h *HotSketch[K]) TopK(n int) []HotEntry[K] {
	all := h.Entries()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Stripe < all[j].Stripe
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// TotalScore sums the current (decayed) blame of every tracked entry —
// the deterministic aggregate the sim records as a byte-compared series.
func (h *HotSketch[K]) TotalScore() int64 {
	var t int64
	for _, e := range h.Entries() {
		t += e.Score
	}
	return t
}
