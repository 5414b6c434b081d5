package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Invariant: 2^(i-1) <= v < 2^i for bucket i >= 1.
	for _, v := range []int64{1, 5, 100, 1e6, 1e12, math.MaxInt64 / 3} {
		i := BucketOf(v)
		lo := int64(1) << uint(i-1)
		if v < lo {
			t.Errorf("v=%d below bucket %d lower bound %d", v, i, lo)
		}
		if i < 63 && v >= lo*2 {
			t.Errorf("v=%d above bucket %d upper bound %d", v, i, lo*2)
		}
	}
}

func TestHistogramRecordAndSnapshot(t *testing.T) {
	h := NewHistogram("t", "ns", 4)
	for i := 0; i < 100; i++ {
		h.RecordStripe(i, 1000) // spreads across stripes, same bucket
	}
	s := h.Snapshot()
	if s.Total != 100 {
		t.Fatalf("Total = %d, want 100", s.Total)
	}
	if got := s.Counts[BucketOf(1000)]; got != 100 {
		t.Fatalf("bucket count = %d, want 100", got)
	}
}

func TestStripesRoundUpAndClamp(t *testing.T) {
	if got := NewHistogram("t", "ns", 3).Stripes(); got != 4 {
		t.Errorf("3 stripes rounded to %d, want 4", got)
	}
	if got := NewHistogram("t", "ns", 0).Stripes(); got != 1 {
		t.Errorf("0 stripes gave %d, want 1", got)
	}
	if got := NewHistogram("t", "ns", 100000).Stripes(); got != maxStripes {
		t.Errorf("huge stripes gave %d, want %d", got, maxStripes)
	}
}

func TestMergeAssociativeAndCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func() Snapshot {
		h := NewHistogram("t", "ns", 2)
		for i := 0; i < 500; i++ {
			h.RecordStripe(i, rng.Int63n(1<<40)+1)
		}
		return h.Snapshot()
	}
	a, b, c := mk(), mk(), mk()
	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	if left != right {
		t.Fatal("merge is not associative")
	}
	if a.Merge(b) != b.Merge(a) {
		t.Fatal("merge is not commutative")
	}
	if left.Total != a.Total+b.Total+c.Total {
		t.Fatalf("merged total %d != %d", left.Total, a.Total+b.Total+c.Total)
	}
}

// TestQuantileBoundSurvivesMergeOrder is the merge-order property test:
// one value stream split across many histograms (as the per-shard latch
// profiles and per-stripe wait histograms split theirs), whose snapshots
// are then merged in random orders. Every merge order must produce the
// identical snapshot, and that snapshot's quantiles must satisfy the same
// factor-of-two bound as a single histogram fed the whole stream.
func TestQuantileBoundSurvivesMergeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const parts = 9
	hs := make([]*Histogram, parts)
	for i := range hs {
		hs[i] = NewHistogram("t", "ns", 2)
	}
	vals := make([]int64, 0, 30000)
	for i := 0; i < 30000; i++ {
		v := int64(math.Exp(rng.Float64()*14)) + 1
		vals = append(vals, v)
		// Skewed split: part 0 sees half the stream, the rest share it.
		p := 0
		if rng.Intn(2) == 0 {
			p = 1 + rng.Intn(parts-1)
		}
		hs[p].RecordStripe(i, v)
	}
	snaps := make([]Snapshot, parts)
	for i, h := range hs {
		snaps[i] = h.Snapshot()
	}

	var ref Snapshot
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(parts)
		var merged Snapshot
		for _, i := range order {
			merged = merged.Merge(snaps[i])
		}
		if trial == 0 {
			ref = merged
			continue
		}
		if merged != ref {
			t.Fatalf("merge order %v produced a different snapshot", order)
		}
	}
	if ref.Total != uint64(len(vals)) {
		t.Fatalf("merged total %d, want %d", ref.Total, len(vals))
	}
	sortInt64(vals)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(math.Ceil(q*float64(len(vals)))) - 1
		if rank < 0 {
			rank = 0
		}
		truth := float64(vals[rank])
		est := ref.Quantile(q)
		if ratio := est / truth; ratio <= 0.5 || ratio > 2.0 {
			t.Errorf("q=%g: merged estimate %g vs truth %g (ratio %g) outside (1/2, 2]", q, est, truth, ratio)
		}
	}
}

// TestQuantileAccuracyBound checks the documented factor-of-two bound:
// for values recorded from a known distribution, the estimated quantile
// must satisfy estimate/true ∈ (1/2, 2].
func TestQuantileAccuracyBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram("t", "ns", 1)
	vals := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform across ~6 decades, the shape of latency data.
		v := int64(math.Exp(rng.Float64()*14)) + 1
		vals = append(vals, v)
		h.Record(v)
	}
	s := h.Snapshot()
	sortInt64(vals)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		rank := int(math.Ceil(q*float64(len(vals)))) - 1
		if rank < 0 {
			rank = 0
		}
		truth := float64(vals[rank])
		est := s.Quantile(q)
		if ratio := est / truth; ratio <= 0.5 || ratio > 2.0 {
			t.Errorf("q=%g: estimate %g vs truth %g (ratio %g) outside (1/2, 2]", q, est, truth, ratio)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty Snapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
	h := NewHistogram("t", "ns", 1)
	h.Record(0) // bucket 0
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Errorf("bucket-0 quantile = %g, want 0", got)
	}
	h2 := NewHistogram("t", "ns", 1)
	h2.Record(100)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		got := h2.Snapshot().Quantile(q)
		if got < 64 || got > 128 {
			t.Errorf("single-value quantile(%g) = %g, want within bucket [64,128)", q, got)
		}
	}
}

func TestMeanAndApproxSum(t *testing.T) {
	h := NewHistogram("t", "ns", 1)
	for i := 0; i < 1000; i++ {
		h.Record(1000) // bucket [512, 1024): estimate 768
	}
	s := h.Snapshot()
	if m := s.Mean(); m != 768 {
		t.Errorf("Mean = %g, want 768", m)
	}
	if sum := s.ApproxSum(); sum != 768000 {
		t.Errorf("ApproxSum = %g, want 768000", sum)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram("t", "ns", 8)
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.RecordStripe(w, int64(i%4096)+1)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Total; got != workers*perWorker {
		t.Fatalf("Total = %d, want %d (lost updates)", got, workers*perWorker)
	}
}

func TestSampler(t *testing.T) {
	var off Sampler
	for i := uint64(0); i < 10; i++ {
		if off.Admit(i) {
			t.Fatal("zero Sampler admitted an event")
		}
	}
	s := NewSampler(5) // rounds up to 8
	if s.Stride() != 8 {
		t.Fatalf("stride = %d, want 8", s.Stride())
	}
	admitted := 0
	for i := uint64(1); i <= 800; i++ {
		if s.Admit(i) {
			admitted++
		}
	}
	if admitted != 100 {
		t.Fatalf("admitted %d of 800 at stride 8, want 100", admitted)
	}
	dis := NewSampler(-1)
	if dis.Stride() != 0 {
		t.Fatal("negative stride should disable")
	}
}

func sortInt64(v []int64) {
	// insertion-free: simple sort via sort.Slice is fine in tests, but
	// avoid the import churn — shell sort.
	for gap := len(v) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(v); i++ {
			for j := i; j >= gap && v[j-gap] > v[j]; j -= gap {
				v[j-gap], v[j] = v[j], v[j-gap]
			}
		}
	}
}
