// latchprof.go is the per-shard latch profile behind the contention
// profiler: one histogram pair per shard — sampled latch hold time, and
// the blocking-acquire wait time paid after a failed TryLock. The lock
// manager owns the sampling decision (its per-shard counter advances under
// the latch, so sampling costs no shared cache line); this type owns the
// storage and the merged views /metrics exposes: hold-time tails say how
// long a shard's critical sections run, wait-time tails how much time its
// contenders lose.
package obs

import "fmt"

// LatchProf holds one (hold, wait) histogram pair per shard. A nil
// *LatchProf is a valid disabled profile: every method no-ops or returns
// zero values.
type LatchProf struct {
	hold []*Histogram
	wait []*Histogram
}

// NewLatchProf creates a profile for the given shard count. Each histogram
// is single-striped: recordings into one shard's pair happen under (hold)
// or immediately before (wait) that shard's latch, so striping would buy
// nothing.
func NewLatchProf(shards int) *LatchProf {
	if shards < 1 {
		shards = 1
	}
	lp := &LatchProf{
		hold: make([]*Histogram, shards),
		wait: make([]*Histogram, shards),
	}
	for i := range lp.hold {
		lp.hold[i] = NewHistogram(fmt.Sprintf("latch_hold_%d", i), "ns", 1)
		lp.wait[i] = NewHistogram(fmt.Sprintf("latch_wait_%d", i), "ns", 1)
	}
	return lp
}

// Shards returns the shard count the profile was sized for.
func (lp *LatchProf) Shards() int {
	if lp == nil {
		return 0
	}
	return len(lp.hold)
}

// RecordHold records one sampled latch hold duration for shard i.
func (lp *LatchProf) RecordHold(i int, ns int64) {
	if lp == nil {
		return
	}
	lp.hold[i%len(lp.hold)].Record(ns)
}

// RecordWait records one contended latch acquire (post-TryLock-failure
// blocking time) for shard i.
func (lp *LatchProf) RecordWait(i int, ns int64) {
	if lp == nil {
		return
	}
	lp.wait[i%len(lp.wait)].Record(ns)
}

// Hold returns shard i's hold-time snapshot.
func (lp *LatchProf) Hold(i int) Snapshot {
	if lp == nil {
		return Snapshot{}
	}
	return lp.hold[i%len(lp.hold)].Snapshot()
}

// Wait returns shard i's contended-acquire snapshot.
func (lp *LatchProf) Wait(i int) Snapshot {
	if lp == nil {
		return Snapshot{}
	}
	return lp.wait[i%len(lp.wait)].Snapshot()
}

// MergedHold merges every shard's hold-time histogram — the /metrics view.
func (lp *LatchProf) MergedHold() Snapshot {
	var out Snapshot
	if lp == nil {
		return out
	}
	for _, h := range lp.hold {
		out = out.Merge(h.Snapshot())
	}
	return out
}

// MergedWait merges every shard's contended-acquire histogram.
func (lp *LatchProf) MergedWait() Snapshot {
	var out Snapshot
	if lp == nil {
		return out
	}
	for _, h := range lp.wait {
		out = out.Merge(h.Snapshot())
	}
	return out
}
