package main

import (
	"strings"
	"testing"
)

// An exposition as the engine writes it, but without the throttle's culled
// counter and without the lock-wait histogram.
const expositionBefore = `# HELP lockmem_waits_total lock requests that waited
# TYPE lockmem_waits_total counter
lockmem_waits_total 10
# TYPE lockmem_latch_parks_total counter
lockmem_latch_parks_total{shard="0"} 3
lockmem_latch_parks_total{shard="1"} 4
# TYPE lockmem_lock_pages gauge
lockmem_lock_pages 512
# TYPE lockmem_lock_release_seconds histogram
lockmem_lock_release_seconds_bucket{le="1.024e-06"} 10
lockmem_lock_release_seconds_bucket{le="+Inf"} 10
lockmem_lock_release_seconds_sum 8e-06
lockmem_lock_release_seconds_count 10
`

const expositionAfter = `# TYPE lockmem_waits_total counter
lockmem_waits_total 25
# TYPE lockmem_latch_parks_total counter
lockmem_latch_parks_total{shard="0"} 5
lockmem_latch_parks_total{shard="1"} 9
# TYPE lockmem_lock_pages gauge
lockmem_lock_pages 544
# TYPE lockmem_lock_release_seconds histogram
lockmem_lock_release_seconds_bucket{le="1.024e-06"} 60
lockmem_lock_release_seconds_bucket{le="4.096e-06"} 109
lockmem_lock_release_seconds_bucket{le="+Inf"} 110
lockmem_lock_release_seconds_sum 0.000208
lockmem_lock_release_seconds_count 110
`

func TestScrapeByName(t *testing.T) {
	before, after := parseMetrics(expositionBefore), parseMetrics(expositionAfter)

	if d := delta(before, after, "lockmem_waits_total"); !d.ok || d.v != 15 {
		t.Errorf("waits delta = %v, want 15", d)
	}
	if d := delta(before, after, "lockmem_latch_parks_total"); !d.ok || d.v != 7 {
		t.Errorf("per-shard parks delta = %v, want 7", d)
	}
	if m := after.max("lockmem_latch_parks_total"); !m.ok || m.v != 9 {
		t.Errorf("max parks = %v, want 9", m)
	}
	if d := delta(before, after, "lockmem_throttle_culled_total"); d.ok {
		t.Errorf("absent counter family gave %v, want missing", d)
	}

	// Histogram quantiles come from the _bucket lines; a bound the earlier
	// scrape did not print carries the count below it.
	h := histDelta(before, after, "lockmem_lock_release_seconds")
	if n := h.n(); !n.ok || n.v != 100 {
		t.Fatalf("release histogram delta count = %v, want 100", n)
	}
	if q := h.quantile(0.5); !q.ok || q.v != 1.024e-06 {
		t.Errorf("release p50 = %v, want 1.024e-06", q)
	}
	if q := h.quantile(0.99); !q.ok || q.v != 4.096e-06 {
		t.Errorf("release p99 = %v, want 4.096e-06", q)
	}
	if q := h.quantile(1); !q.ok || q.v != 4.096e-06 {
		t.Errorf("release max = %v, want the last finite bound", q)
	}
	if q := histDelta(before, after, "lockmem_lock_wait_seconds").quantile(0.5); q.ok {
		t.Errorf("absent histogram family gave %v, want missing", q)
	}
}

// A metric computed from an absent family is null; its neighbours are not.
func TestAbsentFamilyIsNull(t *testing.T) {
	p := &phase{before: parseMetrics(expositionBefore), after: parseMetrics(expositionAfter)}
	r := &run{ctl: &control{}, env: &env{}}
	res := &result{Metrics: map[string]metric{}}
	r.collectCounters(res, p, some(5))

	for _, name := range []string{"lockmgr.culled_per_txn", "lockmgr.wait_p50_us", "lockmgr.wait_p99_us"} {
		if m, ok := res.Metrics[name]; !ok || m.Value != nil {
			t.Errorf("%s = %v, want null", name, m.Value)
		}
	}
	for name, want := range map[string]float64{
		"lockmgr.waits_per_txn":  3,
		"latch.parks_per_txn":    1.4,
		"lockmgr.release_p99_ns": 4096,
		"memblock.pages_end":     544,
	} {
		if got := res.get(name); !got.ok || got.v < want*0.999 || got.v > want*1.001 {
			t.Errorf("%s = %v, want %g", name, got, want)
		}
	}
	line, err := contractLine(&result{Trace: true, Metrics: res.Metrics})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, `"lockmgr.culled_per_txn":{"value":-1,`) {
		t.Errorf("contract line does not mark the null metric as not measured: %s", line)
	}
}
