package metrics

import (
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(5)
	if got := c.Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Add(-2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3 (negative Add must be ignored)", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Fatalf("counter = %d, want 16000", got)
	}
}

// TestShardCountersOwnCacheLines pins the layout the type's comment
// promises: neighbouring shards' counters are a cache line apart, while a
// bare Counter stays eight bytes.
func TestShardCountersOwnCacheLines(t *testing.T) {
	sc := NewShardCounters("x", 8)
	for i := 0; i < sc.Len(); i++ {
		sc.Shard(i).Add(int64(i + 1))
	}
	if got := sc.Total(); got != 36 {
		t.Fatalf("Total = %d, want 36", got)
	}
	if vals := sc.Values(); vals[0] != 1 || vals[7] != 8 {
		t.Fatalf("Values = %v", vals)
	}
	a, b := uintptr(unsafe.Pointer(sc.Shard(0))), uintptr(unsafe.Pointer(sc.Shard(1)))
	if b-a != 64 {
		t.Fatalf("adjacent shard counters %d bytes apart, want a 64-byte cache line", b-a)
	}
	if sz := unsafe.Sizeof(Counter{}); sz != 8 {
		t.Fatalf("Counter is %d bytes, want 8", sz)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestSeriesRecordAndStats(t *testing.T) {
	s := NewSeries("lock memory", "pages")
	if s.Name() != "lock memory" || s.Unit() != "pages" {
		t.Fatalf("name/unit round trip failed: %q %q", s.Name(), s.Unit())
	}
	for i := 0; i < 5; i++ {
		s.Record(float64(i), float64(i*10))
	}
	if got := s.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	if got := s.Max(); got != 40 {
		t.Fatalf("Max = %g, want 40", got)
	}
	if got := s.Min(); got != 0 {
		t.Fatalf("Min = %g, want 0", got)
	}
	if got := s.Mean(); got != 20 {
		t.Fatalf("Mean = %g, want 20", got)
	}
	if got := s.Last(); got.Seconds != 4 || got.Value != 40 {
		t.Fatalf("Last = %+v, want {4 40}", got)
	}
}

func TestSeriesEmptyStats(t *testing.T) {
	s := NewSeries("x", "")
	if s.Max() != 0 || s.Min() != 0 || s.Mean() != 0 {
		t.Fatal("empty series stats must all be 0")
	}
	if got := s.Last(); got != (Sample{}) {
		t.Fatalf("Last of empty = %+v, want zero", got)
	}
}

func TestSeriesMeanAfterAndBetween(t *testing.T) {
	s := NewSeries("x", "")
	for i := 0; i < 10; i++ {
		s.Record(float64(i), float64(i))
	}
	if got := s.MeanAfter(5); got != 7 { // mean of 5..9
		t.Fatalf("MeanAfter(5) = %g, want 7", got)
	}
	if got := s.MeanBetween(2, 5); got != 3 { // mean of 2,3,4
		t.Fatalf("MeanBetween(2,5) = %g, want 3", got)
	}
	if got := s.MeanAfter(100); got != 0 {
		t.Fatalf("MeanAfter past end = %g, want 0", got)
	}
}

func TestSeriesValueAt(t *testing.T) {
	s := NewSeries("x", "")
	s.Record(0, 1)
	s.Record(10, 2)
	s.Record(20, 3)
	if got := s.ValueAt(15); got != 2 {
		t.Fatalf("ValueAt(15) = %g, want 2 (step interpolation)", got)
	}
	if got := s.ValueAt(-1); got != 0 {
		t.Fatalf("ValueAt before first = %g, want 0", got)
	}
	if got := s.ValueAt(100); got != 3 {
		t.Fatalf("ValueAt after last = %g, want 3", got)
	}
}

func TestSetCreatesAndReuses(t *testing.T) {
	st := NewSet()
	a := st.Series("throughput", "tx/s")
	b := st.Series("throughput", "ignored")
	if a != b {
		t.Fatal("Series must return the same instance for the same name")
	}
	if b.Unit() != "tx/s" {
		t.Fatalf("unit changed on reuse: %q", b.Unit())
	}
	if st.Get("missing") != nil {
		t.Fatal("Get of unknown series must be nil")
	}
	st.Series("lock pages", "pages")
	names := st.Names()
	if len(names) != 2 || names[0] != "throughput" || names[1] != "lock pages" {
		t.Fatalf("Names = %v, want creation order", names)
	}
}

func TestSetCSV(t *testing.T) {
	st := NewSet()
	a := st.Series("a", "u1")
	b := st.Series("b", "u2")
	a.Record(0, 1)
	a.Record(2, 3)
	b.Record(1, 5)
	csv := st.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV lines = %d, want 4 (header + 3 times):\n%s", len(lines), csv)
	}
	if lines[0] != "seconds,a (u1),b (u2)" {
		t.Fatalf("header = %q", lines[0])
	}
	// At t=1 a repeats its previous value (step interpolation).
	if lines[2] != "1,1,5" {
		t.Fatalf("t=1 row = %q, want 1,1,5", lines[2])
	}
	if lines[3] != "2,3,5" {
		t.Fatalf("t=2 row = %q, want 2,3,5", lines[3])
	}
}

func TestChartRendersShape(t *testing.T) {
	s := NewSeries("ramp", "pages")
	for i := 0; i <= 100; i++ {
		s.Record(float64(i), float64(i))
	}
	out := Chart(s, 40, 10)
	if !strings.Contains(out, "ramp (pages)") {
		t.Fatalf("chart missing title:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatalf("chart has no points:\n%s", out)
	}
}

func TestChartEmptySeries(t *testing.T) {
	s := NewSeries("empty", "")
	out := Chart(s, 40, 10)
	if !strings.Contains(out, "no samples") {
		t.Fatalf("empty chart = %q", out)
	}
}

func TestChartConstantSeries(t *testing.T) {
	s := NewSeries("flat", "")
	s.Record(0, 5)
	s.Record(1, 5)
	out := Chart(s, 10, 4) // must not divide by zero
	if !strings.Contains(out, "*") {
		t.Fatalf("flat chart has no points:\n%s", out)
	}
}

// TestChartFooterAlignment pins the time-axis footer geometry: for every
// width (including the narrow ones that used to overflow with the fixed
// width-22 padding) no line may extend past the plot area, and the end-time
// label must end flush under the last dash of the axis.
func TestChartFooterAlignment(t *testing.T) {
	s := NewSeries("narrow", "pages")
	for i := 0; i <= 300; i++ {
		s.Record(float64(i), float64(i%7))
	}
	for _, width := range []int{8, 10, 12, 16, 21, 22, 30, 40, 72} {
		out := Chart(s, width, 4)
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		// Line layout: title, height plot rows, axis, footer.
		axisLine := lines[len(lines)-2]
		footer := lines[len(lines)-1]
		if len(footer) > len(axisLine) {
			t.Errorf("width=%d: footer %d chars overflows axis %d chars:\n%s",
				width, len(footer), len(axisLine), out)
		}
		if len(footer) != len(axisLine) {
			t.Errorf("width=%d: end-time label not flush with axis end (footer %d, axis %d):\n%s",
				width, len(footer), len(axisLine), out)
		}
		if !strings.HasSuffix(footer, "s") {
			t.Errorf("width=%d: footer missing time label: %q", width, footer)
		}
	}
	// Wide charts keep both endpoint labels.
	wide := Chart(s, 72, 4)
	footer := strings.Split(strings.TrimRight(wide, "\n"), "\n")
	last := footer[len(footer)-1]
	if !strings.Contains(last, "0s") || !strings.HasSuffix(last, "300s") {
		t.Errorf("wide footer lost endpoint labels: %q", last)
	}
}
