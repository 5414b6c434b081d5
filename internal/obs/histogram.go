// Package obs is the engine's live observability layer: lock-free latency
// histograms, the structured tuning-decision log, and the HTTP exposition
// surface (/metrics in Prometheus text format plus the /debug endpoints).
//
// The paper's evaluation — and the latch/lock studies it builds on — hinge
// on *distributions* of wait behaviour, not means: a lock manager whose
// p50 wait is microseconds can still be strangling its tail. The
// histograms here make tails observable at full production rates:
//
//   - power-of-two buckets: a recorded value v lands in bucket
//     ⌈log2 v⌉, so the bucket index is one bits.Len64 instruction and the
//     65 buckets cover the full int64 nanosecond range with ≤2× relative
//     quantile error;
//   - per-stripe counters: recorders pick a stripe (lock-table shards use
//     their shard index), so concurrent recording does not serialize on a
//     shared cache line; a record is exactly one atomic add;
//   - mergeable snapshots: stripes sum into a Snapshot, Snapshots merge
//     associatively, and quantiles are estimated from the merged buckets —
//     the shape a multi-node aggregation needs.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the number of power-of-two buckets. Bucket 0 holds
// non-positive values; bucket i (1 ≤ i ≤ 64) holds v with
// 2^(i-1) ≤ v < 2^i. Values are conventionally nanoseconds, but the
// histogram is unit-agnostic; Unit records the convention for renderers.
const NumBuckets = 65

// maxStripes bounds the stripe array (memory: ~0.5 KB per stripe).
const maxStripes = 256

// BucketOf returns the bucket index for a value.
func BucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketUpper returns the exclusive upper bound of bucket i as a float
// (+Inf for the last bucket, which holds v ≥ 2^63).
func BucketUpper(i int) float64 {
	switch {
	case i <= 0:
		return 1 // bucket 0 ∪ bucket boundary: v < 1
	case i >= NumBuckets-1:
		return math.Inf(1)
	default:
		return float64(uint64(1) << uint(i))
	}
}

// stripe is one recorder lane. The trailing pad keeps hot stripes from
// sharing a cache line across their boundary counters.
type stripe struct {
	counts [NumBuckets]atomic.Uint64
	_      [56]byte
}

// Histogram is a lock-free, striped, power-of-two bucketed latency
// histogram. Record is one atomic add; Snapshot merges the stripes without
// stopping recorders (the result is a fuzzy-but-complete cut, like every
// other latch-free observer in this codebase).
type Histogram struct {
	name   string
	unit   string
	mask   uint64
	stripe []stripe
}

// NewHistogram creates a histogram with the given number of stripes
// (rounded up to a power of two, clamped to [1, 256]). name/unit label the
// exposition ("lock wait", "ns").
func NewHistogram(name, unit string, stripes int) *Histogram {
	n := 1
	for n < stripes && n < maxStripes {
		n <<= 1
	}
	return &Histogram{name: name, unit: unit, mask: uint64(n - 1), stripe: make([]stripe, n)}
}

// Name returns the histogram's name.
func (h *Histogram) Name() string { return h.name }

// Unit returns the recording unit label (conventionally "ns").
func (h *Histogram) Unit() string { return h.unit }

// Stripes returns the number of recorder lanes.
func (h *Histogram) Stripes() int { return len(h.stripe) }

// Record adds one observation on stripe 0. Use RecordStripe from striped
// hot paths.
func (h *Histogram) Record(v int64) { h.RecordStripe(0, v) }

// RecordStripe adds one observation on the given stripe (masked into
// range, so callers may pass any non-negative lane id — e.g. a lock-table
// shard index). It is exactly one atomic add.
func (h *Histogram) RecordStripe(stripe int, v int64) {
	h.stripe[uint64(stripe)&h.mask].counts[BucketOf(v)].Add(1)
}

// Snapshot is an immutable, mergeable view of a histogram's buckets.
type Snapshot struct {
	// Counts holds per-bucket observation counts.
	Counts [NumBuckets]uint64
	// Total is the sum of Counts.
	Total uint64
}

// Snapshot merges all stripes into one view. Recording continues while the
// stripes are read; the snapshot is complete but not a single atomic cut,
// which monitoring tolerates.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.stripe {
		st := &h.stripe[i]
		for b := 0; b < NumBuckets; b++ {
			c := st.counts[b].Load()
			s.Counts[b] += c
			s.Total += c
		}
	}
	return s
}

// Merge returns the bucket-wise sum of s and o. Merging is commutative and
// associative, so snapshots from any number of histograms (or the same
// histogram over time, since counts are monotone) aggregate in any order.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := s
	for i := range out.Counts {
		out.Counts[i] += o.Counts[i]
	}
	out.Total += o.Total
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the recorded values by
// rank-walking the buckets and interpolating linearly within the landing
// bucket. Because bucket i spans [2^(i-1), 2^i), the estimate is within a
// factor of two of the true value: estimate/true ∈ (1/2, 2]. Returns 0 for
// an empty snapshot.
func (s Snapshot) Quantile(q float64) float64 {
	if s.Total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(s.Total)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			if i == 0 {
				return 0
			}
			lo := float64(uint64(1) << uint(i-1))
			hi := lo * 2
			within := float64(target-cum) / float64(c)
			return lo + (hi-lo)*within
		}
		cum += c
	}
	return 0 // unreachable: target ≤ Total
}

// Mean estimates the arithmetic mean using each bucket's geometric
// location (1.5 × lower bound). Like Quantile it is a bucketed estimate,
// not an exact sum.
func (s Snapshot) Mean() float64 {
	if s.Total == 0 {
		return 0
	}
	sum := 0.0
	for i, c := range s.Counts {
		if c == 0 || i == 0 {
			continue
		}
		lo := float64(uint64(1) << uint(i-1))
		sum += 1.5 * lo * float64(c)
	}
	return sum / float64(s.Total)
}

// ApproxSum estimates the sum of all recorded values (Mean × Total).
func (s Snapshot) ApproxSum() float64 {
	return s.Mean() * float64(s.Total)
}

// Sampler admits one event in every stride — the cheap way to put
// wall-clock timestamping on a hot path without paying for two time.Now
// calls per operation. The caller numbers its events (an owner-local
// counter, an owner id), so no sampling counter is shared between the
// cores that record; the stride is a power of two so the admit test is a
// mask. The zero Sampler admits nothing (stride 0 = disabled).
type Sampler struct {
	stride uint64
}

// NewSampler returns a sampler admitting one in stride events (rounded up
// to a power of two). stride ≤ 0 disables the sampler.
func NewSampler(stride int) Sampler {
	if stride <= 0 {
		return Sampler{}
	}
	n := uint64(1)
	for n < uint64(stride) {
		n <<= 1
	}
	return Sampler{stride: n}
}

// Stride returns the effective stride (0 = disabled).
func (s *Sampler) Stride() int { return int(s.stride) }

// Admit reports whether event number n is sampled: every n that is a
// multiple of the stride.
func (s *Sampler) Admit(n uint64) bool {
	return s.stride != 0 && n&(s.stride-1) == 0
}
