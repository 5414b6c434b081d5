package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// samples holds one session's transaction latencies in issue order, plus
// the sample count at the end of every measurement window, so that any
// window's transactions can be cut out afterwards. Chunks are allocated as
// the run proceeds: appending to one slice would copy megabytes mid-run.
type samples struct {
	chunks  [][]uint32
	n       int
	commits int64
	marks   []int // sample count at the end of window k
	winEnd  int64
	window  int64
}

const (
	chunkLen    = 1 << 16
	sampleFail  = math.MaxUint32 // an aborted transaction: slower than any limit
	sampleFlag  = 1 << 31        // writer (readmostly) or during a scan (dss_surge)
	sampleNsMax = sampleFlag - 1
)

func (l *samples) init(window int64) { l.window, l.winEnd = window, window }

func (l *samples) record(now, lat int64, ok, flag bool) {
	for now >= l.winEnd {
		l.marks = append(l.marks, l.n)
		l.winEnd += l.window
	}
	v := uint32(sampleFail)
	if ok {
		l.commits++
		if lat > sampleNsMax {
			lat = sampleNsMax
		}
		v = uint32(lat)
		if flag {
			v |= sampleFlag
		}
	}
	if l.n%chunkLen == 0 {
		l.chunks = append(l.chunks, make([]uint32, chunkLen))
	}
	l.chunks[l.n/chunkLen][l.n%chunkLen] = v
	l.n++
}

// finish closes the windows the session did not live to see.
func (l *samples) finish(windows int) {
	for len(l.marks) < windows {
		l.marks = append(l.marks, l.n)
	}
}

// window appends the samples of window k to dst.
func (l *samples) windowInto(dst []uint32, k int) []uint32 {
	lo := 0
	if k > 0 {
		lo = l.marks[k-1]
	}
	for i := lo; i < l.marks[k]; i++ {
		dst = append(dst, l.chunks[i/chunkLen][i%chunkLen])
	}
	return dst
}

// control is the engine's control plane: one sleeping goroutine that calls
// Tick every 10 ms and TuneOnce every 100 ms (the 30 s STMM interval,
// scaled), timing both. After each tuning pass it samples the gauges whose
// extremes the metrics and the dss_surge checks report.
type control struct {
	r    *run
	quit chan struct{}
	done chan struct{}

	mu       sync.Mutex
	cond     *sync.Cond
	tunes    int
	pagesMax num // most lock pages sampled since resetPagesMax

	ticks    []call
	tuneRuns []call
	gauges   []gaugeSample
}

type call struct{ start, end int64 }

type gaugeSample struct {
	at                                          int64
	pages, used, quotaPct, overflow, ceilingMax num
}

const (
	tickEvery  = 10 * time.Millisecond
	tuneTicks  = 10
	maxControl = 1 << 16 // calls kept; a 60 s run makes 6 600
)

func startControl(r *run) *control {
	c := &control{r: r, quit: make(chan struct{}), done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	c.ticks = make([]call, 0, maxControl)
	c.tuneRuns = make([]call, 0, maxControl/tuneTicks)
	go c.loop()
	return c
}

func (c *control) loop() {
	defer close(c.done)
	db := c.r.env.db
	tk := time.NewTicker(tickEvery)
	defer tk.Stop()
	for n := 1; ; n++ {
		select {
		case <-c.quit:
			return
		case <-tk.C:
		}
		t0 := c.r.now()
		db.Tick()
		t1 := c.r.now()
		if len(c.ticks) < cap(c.ticks) {
			c.ticks = append(c.ticks, call{t0, t1})
		}
		if n%tuneTicks != 0 {
			continue
		}
		db.TuneOnce()
		t2 := c.r.now()
		if len(c.tuneRuns) < cap(c.tuneRuns) {
			c.tuneRuns = append(c.tuneRuns, call{t1, t2})
		}
		sc := scrapeDB(db)
		g := gaugeSample{
			at:         t2,
			pages:      sc.sum("lockmem_lock_pages"),
			used:       sc.sum("lockmem_lock_structs_used"),
			quotaPct:   sc.sum("lockmem_quota_percent"),
			overflow:   sc.sum("lockmem_overflow_pages"),
			ceilingMax: sc.max("lockmem_throttle_ceiling"),
		}
		c.gauges = append(c.gauges, g)
		c.mu.Lock()
		c.pagesMax = maxNum(c.pagesMax, g.pages)
		c.tunes++
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// waitTunes blocks for n more tuning passes; false if the run ended first.
func (c *control) waitTunes(n int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	target := c.tunes + n
	for c.tunes < target && !c.r.stop.Load() {
		c.cond.Wait()
	}
	return c.tunes >= target
}

// resetPagesMax starts a new high-water mark of lock pages; pagesSince
// reads it.
func (c *control) resetPagesMax() {
	c.mu.Lock()
	c.pagesMax = none
	c.mu.Unlock()
}

func (c *control) pagesSince() num {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pagesMax
}

// wake releases a scanner idling between scans once stop is set.
func (c *control) wake() {
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *control) stopAndWait() {
	close(c.quit)
	<-c.done
}

// options of one workload run.
type options struct {
	w       *workload
	seed    int64
	warmup  time.Duration
	seconds time.Duration // measured time: the timed phase, or reference + traced phases
	trace   bool
	setups  int // set-ups timed for setup_s (the last one is used)
	seam    int // transactions per session per seam replay; 0 = the workload's
	outDir  string
	nproc   int
}

// run is the state of one workload run.
type run struct {
	opt  options
	env  *env
	ctl  *control
	base time.Time

	stop     atomic.Bool
	tracing  atomic.Bool
	scanning atomic.Bool

	window       int64
	totalWindows int
	warmEnd      int64 // dss_surge's first scan starts here, inside the timed phase
}

func (r *run) now() int64 { return time.Since(r.base).Nanoseconds() }

func (r *run) sleepUntil(ns int64) {
	if d := ns - r.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// phase is a span of measurement windows with the engine's counters read at
// both ends.
type phase struct {
	lo, hi        int // windows [lo, hi)
	start, end    int64
	before, after *scrape
	memBefore     runtime.MemStats
	memAfter      runtime.MemStats
}

func (p *phase) seconds() float64 { return float64(p.end-p.start) / 1e9 }

func (r *run) measure(p *phase) {
	r.sleepUntil(int64(p.lo) * r.window)
	p.start = r.now()
	p.before = scrapeDB(r.env.db)
	runtime.ReadMemStats(&p.memBefore)
	r.sleepUntil(int64(p.hi) * r.window)
	p.end = r.now()
	p.after = scrapeDB(r.env.db)
	runtime.ReadMemStats(&p.memAfter)
}

// runWorkload sets up, warms up, measures and checks one workload.
func runWorkload(opt options) (*result, error) {
	if opt.nproc > runtime.GOMAXPROCS(0) {
		opt.nproc = runtime.GOMAXPROCS(0)
	}
	res := newResult(opt)

	// Set-up, several times over: one set-up is too short to time steadily.
	var setupS []float64
	var e *env
	for i := 0; i < opt.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			e = nil
			runtime.GC() // or the high-water RSS would be five set-ups' worth
		}
		t0 := time.Now()
		var err error
		if e, err = setupEnv(opt.w, opt.seed, opt.nproc); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	res.setQuartiles("setup_s", "s", setupS)
	res.set("driver.gen_ns_per_txn", "ns", some(float64(e.genNs)).div(some(float64(e.genTxns))), e.genTxns)

	r := &run{opt: opt, env: e, base: time.Now()}
	r.window = int64(time.Second)
	if w := int64(opt.seconds) / 4; w < r.window {
		r.window = w
	}
	warm := int((int64(opt.warmup) + r.window - 1) / r.window)
	measured := int(int64(opt.seconds) / r.window)
	timed := phase{lo: warm, hi: warm + measured}
	traced := phase{lo: timed.hi, hi: timed.hi}
	if opt.trace {
		// Two fifths of the time untraced as the reference, two fifths
		// traced; the seam replays take about the rest.
		timed.hi = warm + max(1, measured*2/5)
		traced = phase{lo: timed.hi, hi: timed.hi + max(1, measured*2/5)}
	}
	r.totalWindows = traced.hi
	r.warmEnd = int64(warm) * r.window

	first := scrapeDB(e.db)
	r.ctl = startControl(r)
	var wg sync.WaitGroup
	for _, s := range e.sessions {
		s.lat.init(r.window)
		if opt.trace {
			s.spans.init(s.id, spanBudget/len(e.sessions))
		}
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			if s.scanner {
				s.scanLoop(r)
			} else {
				s.loop(r)
			}
		}(s)
	}
	r.measure(&timed)
	if opt.trace {
		r.tracing.Store(true)
		r.measure(&traced)
		r.tracing.Store(false)
	}
	r.stop.Store(true)
	r.ctl.wake()
	wg.Wait()

	var seams *seamSet
	if opt.trace {
		seams = r.replaySeams()
	}
	r.ctl.stopAndWait()

	r.collect(res, &timed, &traced, seams)
	r.check(res, first, seams)
	if opt.trace {
		if err := r.writeTrace(&traced); err != nil {
			return nil, err
		}
	}
	if err := e.close(); err != nil {
		res.fail("sessions disconnect", err.Error())
	}
	return res, nil
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() num {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return none
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return some(kb / 1024)
				}
			}
		}
	}
	return none
}

// Percentiles and quartiles.

// quantileU32 is the q-quantile of sorted v (nearest rank).
func quantileU32(v []uint32, q float64) float64 {
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(v[i])
}

func quantileF(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// quartiles returns the median and the first and third quartile.
func quartiles(v []float64) (med, q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileF(s, 0.5), quantileF(s, 0.25), quantileF(s, 0.75)
}

// supported lowers a tail percentile until at least ten samples lie beyond
// it, as a short run cannot resolve p99.9.
func supported(q float64, n int) float64 {
	if q >= 1 {
		return q // the maximum is what it is
	}
	for _, lower := range []float64{0.99, 0.9, 0.5} {
		if (1-q)*float64(n) >= 10 {
			break
		}
		q = lower
	}
	return q
}

func maxNum(a, b num) num {
	if !a.ok || (b.ok && b.v > a.v) {
		return b
	}
	return a
}

func minNum(a, b num) num {
	if !a.ok || (b.ok && b.v < a.v) {
		return b
	}
	return a
}

func fmtNum(v num) string {
	if !v.ok {
		return "null"
	}
	return fmt.Sprintf("%.6g", v.v)
}
