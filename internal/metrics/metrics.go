// Package metrics provides the lightweight telemetry used to regenerate the
// paper's figures: named time series sampled on the simulation tick, plus
// monotonic counters and instantaneous gauges for engine statistics such as
// lock escalations and lock-structure requests.
//
// Everything here is safe for concurrent use; the simulation driver samples
// single-threaded, but the real-time engine updates counters from many
// connection goroutines.
package metrics

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Negative n is a programming error and is
// ignored so a counter can never decrease.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can move in both directions.
type Gauge struct {
	v atomic.Int64
}

// Set stores v as the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// MaxGauge records the maximum value ever observed — a high-watermark
// gauge, e.g. the longest all-shard latch hold of the lock manager's
// control plane. Observe is lock-free (CAS loop) and safe for concurrent
// use; Reset lets samplers read per-interval maxima.
type MaxGauge struct {
	v atomic.Int64
}

// Observe records v if it exceeds the current maximum.
func (g *MaxGauge) Observe(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the maximum observed since creation (or the last Reset).
func (g *MaxGauge) Value() int64 { return g.v.Load() }

// Reset clears the gauge and returns the maximum it held.
func (g *MaxGauge) Reset() int64 { return g.v.Swap(0) }

// ShardCounters is a fixed-width array of counters, one cell per writer.
// A writer is whoever adds to a cell: an application, by its id (Writer),
// or a lock shard, whose latch the adder holds (Shard). Each cell is padded
// to a cache line of its own, so writers on different cores never write
// the same line; readers aggregate with Total, exact once the writers are
// quiescent, or inspect the distribution with Values. All methods are safe
// for concurrent use.
type ShardCounters struct {
	name string
	cs   []paddedCounter
}

// paddedCounter is a Counter alone on a 64-byte cache line. Counter itself
// stays eight bytes for users that embed one next to the data it counts.
type paddedCounter struct {
	Counter
	_ [56]byte
}

// NewShardCounters creates n cells. n must be positive.
func NewShardCounters(name string, n int) *ShardCounters {
	if n < 1 {
		n = 1
	}
	return &ShardCounters{name: name, cs: make([]paddedCounter, n)}
}

// NewWriterCounters creates cells for Writer: a power of two of them, four
// per GOMAXPROCS between 8 and 64, so sessions with consecutive ids running
// at once write distinct cells.
func NewWriterCounters(name string) *ShardCounters {
	n := 8
	for n < 4*runtime.GOMAXPROCS(0) && n < 64 {
		n *= 2
	}
	return NewShardCounters(name, n)
}

// Name returns the collection's name.
func (s *ShardCounters) Name() string { return s.name }

// Len returns the number of cells.
func (s *ShardCounters) Len() int { return len(s.cs) }

// Shard returns cell i, for the writer that holds shard i's latch.
func (s *ShardCounters) Shard(i int) *Counter { return &s.cs[i].Counter }

// Writer returns the cell of the writer with the given id: the id's low
// bits, so the cell count must be a power of two (NewWriterCounters).
func (s *ShardCounters) Writer(id int) *Counter { return &s.cs[id&(len(s.cs)-1)].Counter }

// Total returns the sum across all cells.
func (s *ShardCounters) Total() int64 {
	var t int64
	for i := range s.cs {
		t += s.cs[i].Value()
	}
	return t
}

// Values returns a snapshot of every cell's count.
func (s *ShardCounters) Values() []int64 {
	out := make([]int64, len(s.cs))
	for i := range s.cs {
		out[i] = s.cs[i].Value()
	}
	return out
}

// Sample is one observation of a series: a value at a simulation time
// expressed in seconds since the start of the run.
type Sample struct {
	Seconds float64
	Value   float64
}

// Series is an append-only sequence of samples for one measured quantity,
// e.g. "lock memory (pages)" or "throughput (tx/s)".
type Series struct {
	mu      sync.Mutex
	name    string
	unit    string
	samples []Sample
}

// NewSeries creates an empty series. The unit is free text used by renderers
// ("pages", "tx/s", "%").
func NewSeries(name, unit string) *Series {
	return &Series{name: name, unit: unit}
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Unit returns the series unit label.
func (s *Series) Unit() string { return s.unit }

// Record appends one observation. Out-of-order times are permitted but the
// renderers assume samples were appended in time order, which the simulation
// driver guarantees.
func (s *Series) Record(seconds, value float64) {
	s.mu.Lock()
	s.samples = append(s.samples, Sample{Seconds: seconds, Value: value})
	s.mu.Unlock()
}

// Samples returns a copy of all recorded samples.
func (s *Series) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, len(s.samples))
	copy(out, s.samples)
	return out
}

// Len returns the number of recorded samples.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Last returns the most recent sample, or a zero Sample if empty.
func (s *Series) Last() Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return Sample{}
	}
	return s.samples[len(s.samples)-1]
}

// Max returns the maximum recorded value, or 0 for an empty series.
func (s *Series) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	max := 0.0
	for i, smp := range s.samples {
		if i == 0 || smp.Value > max {
			max = smp.Value
		}
	}
	return max
}

// Min returns the minimum recorded value, or 0 for an empty series.
func (s *Series) Min() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	min := s.samples[0].Value
	for _, smp := range s.samples[1:] {
		if smp.Value < min {
			min = smp.Value
		}
	}
	return min
}

// Mean returns the arithmetic mean of all values, or 0 for an empty series.
func (s *Series) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, smp := range s.samples {
		sum += smp.Value
	}
	return sum / float64(len(s.samples))
}

// MeanAfter returns the mean of values at or after the given time, or 0 if
// no samples qualify. Useful for "steady state after the surge" summaries.
func (s *Series) MeanAfter(seconds float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum, n := 0.0, 0
	for _, smp := range s.samples {
		if smp.Seconds >= seconds {
			sum += smp.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanBetween returns the mean of values with time in [from, to), or 0 if no
// samples qualify.
func (s *Series) MeanBetween(from, to float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum, n := 0.0, 0
	for _, smp := range s.samples {
		if smp.Seconds >= from && smp.Seconds < to {
			sum += smp.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ValueAt returns the value of the latest sample at or before the given
// time, or 0 if none exists.
func (s *Series) ValueAt(seconds float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := 0.0
	for _, smp := range s.samples {
		if smp.Seconds > seconds {
			break
		}
		v = smp.Value
	}
	return v
}

// Set is a named collection of series captured by one experiment run.
type Set struct {
	mu     sync.Mutex
	order  []string
	series map[string]*Series
}

// NewSet returns an empty series set.
func NewSet() *Set {
	return &Set{series: make(map[string]*Series)}
}

// Series returns the series with the given name, creating it (with the given
// unit) on first use. The unit of an existing series is not changed.
func (st *Set) Series(name, unit string) *Series {
	st.mu.Lock()
	defer st.mu.Unlock()
	if s, ok := st.series[name]; ok {
		return s
	}
	s := NewSeries(name, unit)
	st.series[name] = s
	st.order = append(st.order, name)
	return s
}

// Get returns the named series or nil if it was never created.
func (st *Set) Get(name string) *Series {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.series[name]
}

// Names returns series names in creation order.
func (st *Set) Names() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, len(st.order))
	copy(out, st.order)
	return out
}

// CSV renders the set as a comma-separated table with a shared time column.
// Series are sampled at the union of all observation times; a series without
// an observation at a given time repeats its previous value (step
// interpolation), matching how the simulation captures state per tick.
func (st *Set) CSV() string {
	return st.CSVExcluding()
}

// CSVExcluding renders the set as CSV like CSV, omitting the named series.
// Determinism tests use it to drop wall-clock-derived series (e.g. latch
// hold times) from byte-identical comparisons while every simulated-time
// series stays covered.
func (st *Set) CSVExcluding(exclude ...string) string {
	skip := make(map[string]bool, len(exclude))
	for _, n := range exclude {
		skip[n] = true
	}
	st.mu.Lock()
	names := make([]string, 0, len(st.order))
	for _, n := range st.order {
		if !skip[n] {
			names = append(names, n)
		}
	}
	sers := make([]*Series, len(names))
	for i, n := range names {
		sers[i] = st.series[n]
	}
	st.mu.Unlock()

	timeSet := make(map[float64]struct{})
	samplesBy := make([][]Sample, len(sers))
	for i, s := range sers {
		samplesBy[i] = s.Samples()
		for _, smp := range samplesBy[i] {
			timeSet[smp.Seconds] = struct{}{}
		}
	}
	times := make([]float64, 0, len(timeSet))
	for t := range timeSet {
		times = append(times, t)
	}
	sort.Float64s(times)

	var b strings.Builder
	b.WriteString("seconds")
	for i, n := range names {
		fmt.Fprintf(&b, ",%s (%s)", n, sers[i].Unit())
	}
	b.WriteByte('\n')

	idx := make([]int, len(sers))
	last := make([]float64, len(sers))
	for _, t := range times {
		fmt.Fprintf(&b, "%g", t)
		for i := range sers {
			for idx[i] < len(samplesBy[i]) && samplesBy[i][idx[i]].Seconds <= t {
				last[i] = samplesBy[i][idx[i]].Value
				idx[i]++
			}
			fmt.Fprintf(&b, ",%g", last[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Chart renders an ASCII line chart of the series, width x height characters
// for the plot area. It is deliberately simple — good enough to eyeball the
// shape of each reproduced figure in a terminal.
func Chart(s *Series, width, height int) string {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	samples := s.Samples()
	if len(samples) == 0 {
		return fmt.Sprintf("%s: (no samples)\n", s.Name())
	}
	minT, maxT := samples[0].Seconds, samples[0].Seconds
	minV, maxV := samples[0].Value, samples[0].Value
	for _, smp := range samples {
		minT = math.Min(minT, smp.Seconds)
		maxT = math.Max(maxT, smp.Seconds)
		minV = math.Min(minV, smp.Value)
		maxV = math.Max(maxV, smp.Value)
	}
	if maxT == minT {
		maxT = minT + 1
	}
	if maxV == minV {
		maxV = minV + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for _, smp := range samples {
		col := int(float64(width-1) * (smp.Seconds - minT) / (maxT - minT))
		row := int(float64(height-1) * (smp.Value - minV) / (maxV - minV))
		grid[height-1-row][col] = '*'
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)  min=%.4g max=%.4g\n", s.Name(), s.Unit(), minV, maxV)
	for r, line := range grid {
		label := "        "
		if r == 0 {
			label = fmt.Sprintf("%8.3g", maxV)
		} else if r == height-1 {
			label = fmt.Sprintf("%8.3g", minV)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(line))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", 8), strings.Repeat("-", width))
	// Time-axis footer: the two endpoint labels sit under the axis, the
	// first flush left under the '+', the second flush right under the last
	// dash. The padding between them is derived from the label widths, so
	// the footer never extends past the plot area — a fixed width-22 pad
	// used to push the right label out of alignment for widths below ~22.
	leftLbl := fmt.Sprintf("%.4gs", minT)
	rightLbl := fmt.Sprintf("%.4gs", maxT)
	axis := width + 1 // '+' column plus the dashes
	if pad := axis - len(leftLbl) - len(rightLbl); pad >= 1 {
		fmt.Fprintf(&b, "%s %s%s%s\n", strings.Repeat(" ", 8),
			leftLbl, strings.Repeat(" ", pad), rightLbl)
	} else {
		// Too narrow for both endpoints: keep only the end time,
		// right-aligned (and truncated from the left as a last resort).
		if len(rightLbl) > axis {
			rightLbl = rightLbl[len(rightLbl)-axis:]
		}
		fmt.Fprintf(&b, "%s %*s\n", strings.Repeat(" ", 8), axis, rightLbl)
	}
	return b.String()
}
