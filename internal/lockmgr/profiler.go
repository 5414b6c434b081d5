// profiler.go is the lock manager's contention profiler: the hot-lock
// blame sketch, the blocked-on blame export behind /debug/waiters, the
// per-shard flight recorder, and the latch hold/wait profile. Everything
// here rides existing hot-path state — the sketch records with one or two
// uncontended atomic adds, the blame export reuses the deadlock detector's
// per-shard edge walk (one shard latch at a time, GlobalRuns unchanged),
// and latch hold times are sampled on a per-shard counter that advances
// under the latch it measures, so the profiler adds no shared cache line
// to any fast path.
//
// The flight recorder stores what happened, not how it reads: each event
// is one fixed-size, pointer-free flightRec (clock ns, kind, app, lock
// name, mode, owner, one int64 for depth / waited ns / held ns) copied
// into its shard's ring under a leaf mutex. No string is built, nothing
// is boxed and nothing allocates on the wait, grant or release path —
// most of which runs under the shard latch. A record becomes
// trace.Event.Detail text only when FlightEvents returns it.
package lockmgr

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

const (
	// hotSlotsPerStripe sizes each shard's space-saving slot array. Eight
	// slots per shard tracks 8×shards keys exactly and keeps the scan in
	// one cache line pair.
	hotSlotsPerStripe = 8
	// hotEventBlameNs is the fixed blame (1 µs) charged per contention
	// event that has no duration of its own: an enqueue or an
	// optimistic-validation failure. It ranks "lots of cheap friction"
	// against "few long waits" on one nanosecond scale.
	hotEventBlameNs = 1000
	// flightRingCap is each shard's flight-recorder capacity (a power of
	// two, so the ring's modulo compiles to a mask). 256 events of recent
	// grant/wait/release history per shard is an incident window, not an
	// archive.
	flightRingCap = 256
	// latchSampleStride samples one in 64 latch holds (power of two; the
	// mask is stride−1).
	latchSampleStride = 64
)

// initProfiler wires the contention profiler into a freshly built manager.
// The sketch and flight recorder run on the manager's clock (deterministic
// under the simulated clock) and stay on unless ProfileDisabled; the latch
// profile is wall-clock and additionally obeys the ObsSampleStride switch
// (negative = wall-clock sampling off), like the hold/admission
// histograms.
func (m *Manager) initProfiler(cfg Config, ns int, wallStride int) {
	if cfg.ProfileDisabled {
		return
	}
	m.hot = obs.NewHotSketch[Name](ns, hotSlotsPerStripe)
	m.flight = &flightRecorder{
		loc:   m.clk.Now().Location(),
		rings: make([]flightRing, ns),
	}
	if wallStride > 0 {
		m.latchProf = obs.NewLatchProf(ns)
		m.latchSampleMask = latchSampleStride - 1
	}
}

// hotObserve charges blame to a lock name on its home stripe. Nil-safe and
// lock-free; see obs.HotSketch.
func (m *Manager) hotObserve(si int, name Name, scoreDelta int64, metric int, delta int64) {
	m.hot.Observe(si, name, scoreDelta, metric, delta)
}

// flightKind is what a flight record logs. Each kind renders one fixed
// detail format (flightRec.detail) and maps to one trace.Kind.
type flightKind uint8

const (
	flightWait        flightKind = iota // queued; val = queue depth
	flightConvert                       // queued conversion; mode = target, val = depth
	flightGrant                         // granted after a wait; val = waited ns
	flightRelease                       // sampled latched release; val = held ns
	flightFastRelease                   // sampled fast-path release; val = held ns
	flightEscalation                    // table escalation; mode = target
)

var flightTraceKind = [...]trace.Kind{
	flightWait:        trace.KindWait,
	flightConvert:     trace.KindWait,
	flightGrant:       trace.KindGrant,
	flightRelease:     trace.KindRelease,
	flightFastRelease: trace.KindRelease,
	flightEscalation:  trace.KindEscalation,
}

// flightRec is one flight-recorder event as stored. It holds no pointers,
// so recording is a struct copy the garbage collector never scans.
type flightRec struct {
	ns    int64 // manager-clock timestamp, Unix ns
	val   int64 // queue depth, waited ns or held ns, by kind
	owner uint64
	app   int
	name  Name
	kind  flightKind
	mode  Mode
}

// detail renders r exactly as the event's Detail text.
func (r *flightRec) detail() string {
	switch r.kind {
	case flightWait:
		return fmt.Sprintf("%s mode=%s owner=%d depth=%d", r.name, r.mode, r.owner, r.val)
	case flightConvert:
		return fmt.Sprintf("%s convert=%s owner=%d depth=%d", r.name, r.mode, r.owner, r.val)
	case flightGrant:
		return fmt.Sprintf("%s mode=%s owner=%d waited=%s", r.name, r.mode, r.owner, time.Duration(r.val))
	case flightRelease:
		return fmt.Sprintf("%s mode=%s owner=%d held=%s", r.name, r.mode, r.owner, time.Duration(r.val))
	case flightFastRelease:
		return fmt.Sprintf("%s mode=%s owner=%d held=%s (fast)", r.name, r.mode, r.owner, time.Duration(r.val))
	default: // flightEscalation
		return fmt.Sprintf("%s to=%s owner=%d", r.name, r.mode, r.owner)
	}
}

// flightRecorder is the per-shard flight recorder. loc is the manager
// clock's location, so timestamps read back as the clock reported them.
type flightRecorder struct {
	loc   *time.Location
	rings []flightRing
}

// flightRing is one shard's ring of the last flightRingCap records. mu is
// a leaf lock, uncontended in practice: every writer but the fast release
// already holds the shard latch, and readers copy the ring out under mu
// alone.
type flightRing struct {
	mu  sync.Mutex
	n   uint64 // records ever added; the newest is buf[(n-1)%flightRingCap]
	buf [flightRingCap]flightRec
}

// flightRecord stamps r with now (manager clock) and appends it to shard
// si's ring, evicting the oldest record when full. Callers guard with
// m.flight != nil, so a disabled profiler does not even read the clock.
func (m *Manager) flightRecord(si int, now time.Time, r flightRec) {
	r.ns = now.UnixNano()
	ring := &m.flight.rings[si]
	ring.mu.Lock()
	ring.buf[ring.n%flightRingCap] = r
	ring.n++
	ring.mu.Unlock()
}

// appendTo appends the ring's retained records to dst, oldest first.
func (ring *flightRing) appendTo(dst []flightRec) []flightRec {
	ring.mu.Lock()
	defer ring.mu.Unlock()
	kept := min(ring.n, flightRingCap)
	for i := ring.n - kept; i < ring.n; i++ {
		dst = append(dst, ring.buf[i%flightRingCap])
	}
	return dst
}

// FlightEvents returns flight-recorder events, oldest first. shard ≥ 0
// selects one shard's ring; negative merges every shard's retained window
// into one time-ordered stream. last > 0 keeps only the most recent that
// many events. Only the returned events are rendered to text. Returns nil
// when the profiler is disabled.
func (m *Manager) FlightEvents(shard, last int) []trace.Event {
	f := m.flight
	if f == nil {
		return nil
	}
	var recs []flightRec
	if shard >= 0 {
		recs = f.rings[uint64(shard)&m.shardMask].appendTo(nil)
	} else {
		for i := range f.rings {
			recs = f.rings[i].appendTo(recs)
		}
		if recs == nil {
			return nil // an empty merged view serves JSON null, a shard's []
		}
		slices.SortStableFunc(recs, func(a, b flightRec) int { return cmp.Compare(a.ns, b.ns) })
	}
	if last > 0 && len(recs) > last {
		recs = recs[len(recs)-last:]
	}
	evs := make([]trace.Event, len(recs))
	for i := range recs {
		r := &recs[i]
		evs[i] = trace.Event{
			Time:   time.Unix(0, r.ns).In(f.loc),
			Kind:   flightTraceKind[r.kind],
			AppID:  r.app,
			Detail: r.detail(),
		}
	}
	return evs
}

// HotLock is one entry of the hot-lock ranking, shaped for
// /debug/hotlocks.
type HotLock struct {
	// Name is the lock name; Shard its home shard (the sketch stripe).
	Name  string `json:"name"`
	Shard int    `json:"shard"`
	// BlameNs is the decayed blame score ranking this lock; ErrNs its
	// worst-case overestimate (true blame is within [BlameNs−ErrNs,
	// BlameNs]).
	BlameNs int64 `json:"blame_ns"`
	ErrNs   int64 `json:"err_ns"`
	// WaitNs is cumulative attributed wait time; QueueDepthMax the
	// queue-depth high-water mark; OptFailures the
	// optimistic-validation-failure count.
	WaitNs        int64 `json:"wait_ns"`
	QueueDepthMax int64 `json:"queue_depth_max"`
	OptFailures   int64 `json:"optimistic_failures"`
}

// HotLocks returns the current top-n hot locks, highest blame first.
// Lock-free; nil when the profiler is disabled.
func (m *Manager) HotLocks(n int) []HotLock {
	if m.hot == nil {
		return nil
	}
	var out []HotLock
	for _, e := range m.hot.TopK(n) {
		out = append(out, HotLock{
			Name:          e.Key.String(),
			Shard:         e.Stripe,
			BlameNs:       e.Score,
			ErrNs:         e.Err,
			WaitNs:        e.Vals[obs.HotWaitNs],
			QueueDepthMax: e.Vals[obs.HotQueueMax],
			OptFailures:   e.Vals[obs.HotOptFailures],
		})
	}
	return out
}

// DecayHotLocks halves every sketch entry's blame — the epoch step that
// ages past storms out of the ranking. The engine calls it every 64 ticks;
// tests may call it directly. Lock-free, nil-safe.
func (m *Manager) DecayHotLocks() { m.hot.Decay() }

// HotLockBlameNs sums the current (decayed) blame across every tracked
// lock — a deterministic aggregate under the simulated clock, recorded by
// the sim as a byte-compared series. Lock-free; 0 when disabled.
func (m *Manager) HotLockBlameNs() int64 {
	if m.hot == nil {
		return 0
	}
	return m.hot.TotalScore()
}

// LatchProfile returns the per-shard latch hold/wait profile (nil when
// wall-clock sampling or the profiler is disabled).
func (m *Manager) LatchProfile() *obs.LatchProf { return m.latchProf }

// DumpWaiters exports the live wait-for edges as a blocked-on blame
// report: who is blocked on which lock, held by whom, for how long —
// convoys and the longest blocked-on chain included. It is the deadlock
// detector's phase-1 walk (walkWaitEdges) pointed at a different consumer:
// one shard latch at a time, idle shards skipped by their nWaiting mirror,
// each queue walked once from its head, GlobalRuns unchanged. Like any
// per-shard snapshot the edge set is fuzzy across shards; it is
// diagnostics, not a correctness surface.
func (m *Manager) DumpWaiters() obs.BlameReport {
	now := m.clk.Now()
	var edges []obs.BlameEdge
	m.walkWaitEdges(func(req *request, _ int, blockers []*Owner) {
		for _, to := range blockers {
			edges = append(edges, obs.BlameEdge{
				WaiterID:  req.owner.id,
				WaiterApp: req.owner.app.id,
				HolderID:  to.id,
				HolderApp: to.app.id,
				Lock:      req.name.String(),
				Mode:      req.effectiveMode().String(),
				WaitNs:    now.Sub(req.waitStart).Nanoseconds(),
			})
		}
	})
	return obs.BuildBlame(edges)
}

// ContentionReport renders the profiler's end-of-run summary: the top-K
// hot locks, the current blocked-on picture, and the per-shard latch
// profile. Both CLIs print it under -profile.
func (m *Manager) ContentionReport(topK int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "contention profile (top %d hot locks)\n", topK)
	hot := m.HotLocks(topK)
	if len(hot) == 0 {
		b.WriteString("  no contention recorded\n")
	}
	for i, hl := range hot {
		fmt.Fprintf(&b, "  %2d. %-24s blame=%-12s wait=%-12s qmax=%-3d optfail=%-6d (shard %d, err ≤ %s)\n",
			i+1, hl.Name, time.Duration(hl.BlameNs), time.Duration(hl.WaitNs),
			hl.QueueDepthMax, hl.OptFailures, hl.Shard, time.Duration(hl.ErrNs))
	}
	rep := m.DumpWaiters()
	fmt.Fprintf(&b, "blocked-on blame: %d waiting owner(s), %d convoy(s), longest chain %d\n",
		rep.Waiters, len(rep.Convoys), rep.LongestChainLen)
	for _, c := range rep.Convoys {
		fmt.Fprintf(&b, "  convoy: %d waiters behind owner %d on %s\n", c.Waiters, c.HolderID, c.Lock)
	}
	for _, row := range rep.Rows {
		fmt.Fprintf(&b, "  %s\n", row)
	}
	if lp := m.latchProf; lp != nil {
		hold, wait := lp.MergedHold(), lp.MergedWait()
		fmt.Fprintf(&b, "latch profile: %d sampled holds (p50 %s, p99 %s), %d contended acquires (p50 %s, p99 %s)\n",
			hold.Total, time.Duration(int64(hold.Quantile(0.5))), time.Duration(int64(hold.Quantile(0.99))),
			wait.Total, time.Duration(int64(wait.Quantile(0.5))), time.Duration(int64(wait.Quantile(0.99))))
		worst, worstN := -1, uint64(0)
		for i := 0; i < lp.Shards(); i++ {
			if n := lp.Wait(i).Total; n > worstN {
				worst, worstN = i, n
			}
		}
		if worst >= 0 {
			w := lp.Wait(worst)
			fmt.Fprintf(&b, "  most contended shard: %d (%d contended acquires, p99 wait %s)\n",
				worst, w.Total, time.Duration(int64(w.Quantile(0.99))))
		}
	}
	return b.String()
}
