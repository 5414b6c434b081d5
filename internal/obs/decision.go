package obs

import (
	"sync"
	"time"
)

// Decision kinds. A tuning pass whose escalation-recovery doubling fired is
// recorded as KindEscalationDoubling so distress intervals are queryable on
// their own; ordinary passes are KindTuningPass; synchronous overflow
// growth admitted by the lock manager between passes is KindSyncGrowth.
// KindThrottleTune records a shard's admission-throttle ceiling change
// (the saturation-aware concurrency limiter): engage, hill-climb step,
// reverse, latency relief, or disengage, with the queue-depth high-water
// mark, grant-throughput delta, and lock-wait p99 the controller saw.
const (
	KindTuningPass         = "tuning-pass"
	KindEscalationDoubling = "escalation-doubling"
	KindSyncGrowth         = "sync-growth"
	KindThrottleTune       = "throttle-tune"
)

// Decision is one explainable tuning action: the inputs the tuner saw, the
// parameters that bound it, and the action it chose. Every field needed to
// replay the decision is present — "why did the tuner do that" is
// answerable by re-running the recorded inputs through the algorithm (see
// the stmm replay test).
type Decision struct {
	// Seq is the log-assigned sequence number (monotone, never reused).
	Seq int64 `json:"seq"`
	// Time is the engine clock at the decision (virtual time under the
	// simulated clock, wall time in real deployments).
	Time time.Time `json:"time"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`

	// Inputs: the tuner's view of the system when it decided.
	DatabasePages   int     `json:"database_pages,omitempty"`
	LockPagesBefore int     `json:"lock_pages_before"`
	UsedStructs     int     `json:"used_structs,omitempty"`
	CapacityStructs int     `json:"capacity_structs,omitempty"`
	FreeFrac        float64 `json:"free_frac"`
	NumApps         int     `json:"num_apps,omitempty"`
	Escalations     int64   `json:"escalations,omitempty"`
	PrevTarget      int     `json:"prev_target,omitempty"`

	// Parameters that bounded the decision (Table 1 excerpts).
	MinFreeFrac float64 `json:"min_free_frac,omitempty"`
	MaxFreeFrac float64 `json:"max_free_frac,omitempty"`
	DeltaReduce float64 `json:"delta_reduce,omitempty"`
	C1          float64 `json:"c1,omitempty"`
	MinPages    int     `json:"min_pages,omitempty"`
	MaxPages    int     `json:"max_pages,omitempty"`
	// QuotaCurveX is x of the lockPercentPerApplication curve: the
	// percentage of maxLockMemory in use after the pass.
	QuotaCurveX float64 `json:"quota_curve_x,omitempty"`

	// Sync-growth inputs (KindSyncGrowth only).
	NeedPages     int `json:"need_pages,omitempty"`
	AllowedPages  int `json:"allowed_pages,omitempty"`
	LMOPages      int `json:"lmo_pages,omitempty"`
	OverflowPages int `json:"overflow_pages,omitempty"`

	// Throttle-tune inputs/outputs (KindThrottleTune only): the shard
	// whose ceiling changed, the concurrency ceiling before/after (0 =
	// disengaged) and the window signals the controller decided from —
	// the queue-depth high-water mark, the grant-throughput delta, and
	// the lock-wait p99.
	Shard         int   `json:"shard,omitempty"`
	CeilingBefore int   `json:"ceiling_before,omitempty"`
	CeilingAfter  int   `json:"ceiling_after,omitempty"`
	QueueDepthHW  int64 `json:"queue_depth_hw,omitempty"`
	GrantsDelta   int64 `json:"grants_delta,omitempty"`
	WaitP99Ns     int64 `json:"wait_p99_ns,omitempty"`

	// Action: what the tuner chose and what actually happened.
	Action         string  `json:"action"`
	TargetPages    int     `json:"target_pages,omitempty"`
	LockPagesAfter int     `json:"lock_pages_after"`
	GrantedPages   int     `json:"granted_pages,omitempty"`
	Doubled        bool    `json:"doubled,omitempty"`
	QuotaPercent   float64 `json:"quota_percent,omitempty"`
	DurationNS     int64   `json:"duration_ns,omitempty"`
	Reason         string  `json:"reason,omitempty"`
}

// DecisionLog is a fixed-capacity ring of Decisions, safe for concurrent
// use, with lifetime per-kind totals that survive eviction. The lock
// manager appends sync-growth records while holding shard latches, so Add
// must stay a leaf: it takes only the log's own mutex.
type DecisionLog struct {
	mu     sync.Mutex
	buf    []Decision
	next   int
	count  int
	seq    int64
	byKind map[string]int64
}

// NewDecisionLog creates a log retaining up to n decisions (minimum 16).
func NewDecisionLog(n int) *DecisionLog {
	if n < 16 {
		n = 16
	}
	return &DecisionLog{buf: make([]Decision, n), byKind: make(map[string]int64)}
}

// Add records a decision, assigning its Seq, and returns the stored value.
// The oldest retained decision is evicted when the ring is full.
func (l *DecisionLog) Add(d Decision) Decision {
	l.mu.Lock()
	l.seq++
	d.Seq = l.seq
	l.buf[l.next] = d
	l.next = (l.next + 1) % len(l.buf)
	if l.count < len(l.buf) {
		l.count++
	}
	l.byKind[d.Kind]++
	l.mu.Unlock()
	return d
}

// Decisions returns the retained decisions, oldest first.
func (l *DecisionLog) Decisions() []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.copyLocked(l.count, "")
}

// Tail returns up to n of the most recent decisions, oldest first.
func (l *DecisionLog) Tail(n int) []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > l.count {
		n = l.count
	}
	return l.copyLocked(n, "")
}

// Query returns up to n of the most recent decisions of the given kind
// (empty kind matches all), oldest first. n ≤ 0 means no limit.
func (l *DecisionLog) Query(kind string, n int) []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > l.count {
		n = l.count
	}
	return l.copyLocked(n, kind)
}

// copyLocked copies the newest n retained decisions matching kind, oldest
// first. Caller holds l.mu.
func (l *DecisionLog) copyLocked(n int, kind string) []Decision {
	out := make([]Decision, 0, n)
	start := l.next - l.count
	if start < 0 {
		start += len(l.buf)
	}
	for i := 0; i < l.count; i++ {
		d := l.buf[(start+i)%len(l.buf)]
		if kind == "" || d.Kind == kind {
			out = append(out, d)
		}
	}
	if len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Get returns the decision with the given sequence number, if retained.
func (l *DecisionLog) Get(seq int64) (Decision, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := l.next - l.count
	if start < 0 {
		start += len(l.buf)
	}
	for i := 0; i < l.count; i++ {
		if d := l.buf[(start+i)%len(l.buf)]; d.Seq == seq {
			return d, true
		}
	}
	return Decision{}, false
}

// Total returns the number of decisions ever added, including evicted ones.
func (l *DecisionLog) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Evicted returns how many decisions have aged out of the ring.
func (l *DecisionLog) Evicted() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq - int64(l.count)
}

// TotalByKind returns lifetime per-kind totals (a copy), unaffected by
// eviction.
func (l *DecisionLog) TotalByKind() map[string]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]int64, len(l.byKind))
	for k, v := range l.byKind {
		out[k] = v
	}
	return out
}
