package main

import (
	"runtime"
	"testing"
	"time"
)

// TestSmoke runs every workload briefly with every check on, so that a
// change to the engine's public surface, to a counter family the checks
// need, or to BENCHMARK.json shows up under `go test` and not first in a
// benchmark run. It asserts correctness only, never a time.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine for a few seconds")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	reported := map[string]bool{}
	for _, w := range workloads {
		opt := options{
			w: w, seed: 1, warmup: 50 * time.Millisecond, seconds: 200 * time.Millisecond,
			trace: true, setups: 1, seam: 64, outDir: t.TempDir(), nproc: runtime.NumCPU(),
		}
		if w.name == "dss_surge" {
			// Two whole scan cycles (a scan and its 12 tuning passes take
			// about 1.5 s), untraced so that both fall in the timed phase.
			opt.seconds, opt.trace = 3*time.Second, false
		}
		res, err := runWorkload(opt)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, c := range res.Checks {
			if !c.OK {
				t.Errorf("%s: check %q failed: %s", w.name, c.Name, c.Detail)
			}
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d transactions failed", w.name, res.Failed, res.Attempted)
		}
		for name := range res.Metrics {
			reported[name] = true
		}
		if _, err := contractLine(res); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}

	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		if workloadByName(sw.Name) == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", sw.Name)
		}
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !reported[m.Name] {
			t.Errorf("BENCHMARK.json lists %s, which no workload reports", m.Name)
		}
	}
}

func TestVerdict(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	lower := bound{rel: 0.10}
	higher := bound{higherBetter: true, rel: 0.10}
	for _, c := range []struct {
		name string
		a, b metric
		bd   bound
		want string
	}{
		{"within the bound", metric{Value: f(100)}, metric{Value: f(105)}, lower, "unchanged"},
		{"slower", metric{Value: f(100)}, metric{Value: f(120)}, lower, "regressed"},
		{"faster", metric{Value: f(100)}, metric{Value: f(80)}, lower, "improved"},
		{"fewer commits", metric{Value: f(100)}, metric{Value: f(80)}, higher, "regressed"},
		{"noisier than the bound", metric{Value: f(100), Q1: f(90), Q3: f(110)}, metric{Value: f(150)}, lower, "unresolved"},
		{"absolute, none allowed", metric{Value: f(0)}, metric{Value: f(1)}, bound{abs: 0}, "regressed"},
		{"absolute, still zero", metric{Value: f(0)}, metric{Value: f(0)}, bound{abs: 0}, "unchanged"},
		{"missing on one side", metric{}, metric{Value: f(1)}, lower, "unresolved"},
		{"missing on both", metric{}, metric{}, lower, ""},
	} {
		if got := verdict(c.a, c.b, c.bd); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
