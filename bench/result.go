package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one reported number. Value is null when the engine no longer
// exports what it is computed from, or the workload does not exercise it.
type metric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	N     int64    `json:"n"`
	// Q1 and Q3 are the quartiles of the metric over the run's own
	// windows (or set-ups), where it has them.
	Q1 *float64 `json:"q1,omitempty"`
	Q3 *float64 `json:"q3,omitempty"`
	// Percentile is set when a tail percentile was lowered to one the
	// sample supports.
	Percentile float64 `json:"percentile,omitempty"`
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

type budgetRow struct {
	Row   string   `json:"row"`
	Ns    *float64 `json:"ns_per_txn"`
	Inner bool     `json:"informational,omitempty"` // a sub-row of lockmgr, not summed
}

type budget struct {
	Sessions int         `json:"sessions"`
	Measured *float64    `json:"measured_ns_per_txn"`
	Rows     []budgetRow `json:"rows"`
	Residual *float64    `json:"residual_frac"`
}

// result is one workload's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Sessions  int               `json:"sessions"`
	Trace     bool              `json:"trace"`
	Seed      int64             `json:"seed"`
	WarmupS   float64           `json:"warmup_s"`
	TimedS    float64           `json:"timed_s"`
	TracedS   float64           `json:"traced_s"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Checks    []checkResult     `json:"checks"`
	Metrics   map[string]metric `json:"metrics"`
	Budgets   []budget          `json:"budget,omitempty"`
}

func newResult(opt options) *result {
	return &result{
		Workload: opt.w.name,
		Sessions: opt.w.sessions(opt.nproc),
		Trace:    opt.trace,
		Seed:     opt.seed,
		WarmupS:  opt.warmup.Seconds(),
		Correct:  true,
		Metrics:  map[string]metric{},
	}
}

func ptr(v num) *float64 {
	if !v.ok {
		return nil
	}
	return &v.v
}

func (res *result) set(name, unit string, v num, n int64) {
	res.Metrics[name] = metric{Value: ptr(v), Unit: unit, N: n}
}

// setQuartiles reports the median of vs with its quartiles.
func (res *result) setQuartiles(name, unit string, vs []float64) {
	if len(vs) == 0 {
		res.set(name, unit, none, 0)
		return
	}
	med, q1, q3 := quartiles(vs)
	res.Metrics[name] = metric{Value: &med, Unit: unit, N: int64(len(vs)), Q1: &q1, Q3: &q3}
}

func (res *result) get(name string) num {
	if m, ok := res.Metrics[name]; ok && m.Value != nil {
		return some(*m.Value)
	}
	return none
}

func (res *result) check(name string, ok bool, detail string) {
	res.Checks = append(res.Checks, checkResult{name, ok, detail})
	if !ok {
		res.Correct = false
	}
}

func (res *result) fail(name, detail string) { res.check(name, false, detail) }

// windowSamples gathers the OLTP sessions' samples of window k.
func (r *run) windowSamples(k int) []uint32 {
	var v []uint32
	for _, s := range r.env.sessions {
		if !s.scanner {
			v = s.lat.windowInto(v, k)
		}
	}
	return v
}

// latencyStats is what one phase's samples say.
type latencyStats struct {
	commitsPerWindow []float64
	commits, failed  int64
	all, flagged     []uint32 // committed latencies in ns, sorted
	perWindow        [3][]float64
}

var latencyQuantiles = [3]float64{0.5, 0.99, 0.999}

func (r *run) latencies(p *phase) latencyStats {
	var st latencyStats
	for k := p.lo; k < p.hi; k++ {
		var ok []uint32
		for _, v := range r.windowSamples(k) {
			if v == sampleFail {
				st.failed++
				continue
			}
			ns := v &^ sampleFlag
			ok = append(ok, ns)
			if v&sampleFlag != 0 {
				st.flagged = append(st.flagged, ns)
			}
		}
		st.commits += int64(len(ok))
		st.commitsPerWindow = append(st.commitsPerWindow, float64(len(ok))/(float64(r.window)/1e9))
		slices.Sort(ok)
		for i, q := range latencyQuantiles {
			if len(ok) > 0 && supported(q, len(ok)) == q {
				st.perWindow[i] = append(st.perWindow[i], quantileU32(ok, q)/1e3)
			}
		}
		st.all = append(st.all, ok...)
	}
	slices.Sort(st.all)
	slices.Sort(st.flagged)
	return st
}

// tail reports the q-quantile of sorted latencies in µs, lowered to a
// percentile the sample supports.
func (res *result) tail(name string, sorted []uint32, q float64) {
	if len(sorted) == 0 {
		res.set(name, "us", none, 0)
		return
	}
	use := supported(q, len(sorted))
	v := quantileU32(sorted, use) / 1e3
	m := metric{Value: &v, Unit: "us", N: int64(len(sorted))}
	if use != q {
		m.Percentile = use
	}
	res.Metrics[name] = m
}

// collect turns what the run recorded into named metrics.
func (r *run) collect(res *result, timed, traced *phase, seams *seamSet) {
	res.TimedS, res.TracedS = timed.seconds(), traced.seconds()
	lat := r.latencies(timed)
	commits := some(float64(lat.commits))

	// End to end, from the tracing-off phase.
	res.setQuartiles("commits_per_s", "1/s", lat.commitsPerWindow)
	for i, name := range []string{"txn_p50_us", "txn_p99_us", "txn_p999_us"} {
		res.tail(name, lat.all, latencyQuantiles[i])
		if pw := lat.perWindow[i]; len(pw) > 1 {
			m := res.Metrics[name]
			_, q1, q3 := quartiles(pw)
			m.Q1, m.Q3 = &q1, &q3
			res.Metrics[name] = m
		}
	}
	res.Attempted, res.Failed = lat.commits+lat.failed, lat.failed
	res.set("failed_frac", "frac", some(float64(lat.failed)).div(some(float64(lat.commits+lat.failed))), lat.commits+lat.failed)
	res.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	res.set("escalations", "count", delta(timed.before, timed.after, "lockmem_escalations_total"), 1)
	r.collectScans(res, timed)
	switch r.opt.w.name {
	case "readmostly":
		res.tail("driver.writer_p99_us", lat.flagged, 0.99)
	case "dss_surge":
		res.tail("driver.oltp_p99_during_scan_us", lat.flagged, 0.99)
		res.tail("driver.oltp_max_during_scan_us", lat.flagged, 1)
	}

	if !r.opt.trace {
		return
	}
	tl := r.latencies(traced)
	res.Attempted += tl.commits + tl.failed
	res.Failed += tl.failed
	r.collectDriver(res, &lat, &tl, seams)
	r.collectSpans(res, timed)
	r.collectSeams(res, seams)
	r.collectCounters(res, timed, commits)
	r.collectRuntime(res, timed, commits)
	res.Budgets = r.budgets(res, seams)
	for _, b := range res.Budgets {
		if b.Sessions == 1 {
			res.set("driver.budget_residual_frac_s1", "frac", numOf(b.Residual), 1)
		}
		if b.Sessions == res.Sessions {
			res.set("driver.budget_residual_frac_sN", "frac", numOf(b.Residual), 1)
		}
	}
}

func numOf(p *float64) num {
	if p == nil {
		return none
	}
	return some(*p)
}

// collectScans reports the dss_surge scanner's cycles that ran inside p.
func (r *run) collectScans(res *result, p *phase) {
	var rates, shrink []float64
	peak := none
	for _, s := range r.env.sessions {
		for _, c := range s.cycles {
			if c.start < p.start || c.end > p.end {
				continue
			}
			res.Attempted++
			if !c.ok {
				res.Failed++
				continue
			}
			rates = append(rates, scanRows/(float64(c.end-c.start)/1e9))
			peak = maxNum(peak, c.pagesPeak)
			if ratio := c.pagesAfter.div(c.pagesPeak); ratio.ok {
				shrink = append(shrink, ratio.v)
			}
		}
	}
	res.setQuartiles("scan_rows_per_s", "1/s", rates)
	res.Metrics["engine.scan_rows_per_s"] = res.Metrics["scan_rows_per_s"]
	res.setQuartiles("stmm.shrink_ratio_12", "frac", shrink)
	res.set("stmm.peak_frac_of_db", "frac", peak.div(p.after.sum("lockmem_database_pages")), int64(len(rates)))
}

func (r *run) collectDriver(res *result, timed, traced *latencyStats, seams *seamSet) {
	if len(traced.commitsPerWindow) > 0 {
		tracedRate, _, _ := quartiles(traced.commitsPerWindow)
		res.set("driver.trace_overhead_frac", "frac",
			some(1).sub(some(tracedRate).div(res.get("commits_per_s"))), int64(len(traced.commitsPerWindow)))
	}
	var calls, retried, fellBack int64
	for _, s := range r.env.sessions {
		for runs, n := range s.roHist {
			calls += n
			if runs > 1 {
				retried += n
			}
			if runs > 3 {
				fellBack += n
			}
		}
	}
	if calls > 0 {
		res.set("txn.readonly_retry_frac", "frac", some(float64(retried)/float64(calls)), calls)
		res.set("txn.readonly_fallback_frac", "frac", some(float64(fellBack)/float64(calls)), calls)
	}
}

// collectSpans reports the traced phase's span sums and the control plane's
// calls during the timed phase.
func (r *run) collectSpans(res *result, timed *phase) {
	var sum, count [nSpanKinds]int64
	for _, s := range r.env.sessions {
		for k := range sum {
			sum[k] += s.spans.sumNs[k]
			count[k] += s.spans.count[k]
		}
	}
	txns := some(float64(count[spanTxn]))
	for k, name := range map[int]string{spanBegin: "engine.begin_ns_per_txn", spanExec: "engine.exec_ns_per_txn", spanCommit: "engine.commit_ns_per_txn"} {
		res.set(name, "ns", some(float64(sum[k])).div(txns), count[k])
	}
	within := func(calls []call) (us []float64, busy int64) {
		for _, c := range calls {
			if c.start >= timed.start && c.end <= timed.end {
				us = append(us, float64(c.end-c.start)/1e3)
				busy += c.end - c.start
			}
		}
		sort.Float64s(us)
		return
	}
	ticks, tickBusy := within(r.ctl.ticks)
	tunes, _ := within(r.ctl.tuneRuns)
	// quantile of sorted v; null when the phase was too short to hold a call.
	quantile := func(name string, v []float64, q float64) {
		val := none
		if len(v) > 0 {
			val = some(quantileF(v, supported(q, len(v))))
		}
		res.set(name, "us", val, int64(len(v)))
	}
	quantile("engine.tick_p50_us", ticks, 0.5)
	quantile("engine.tick_p99_us", ticks, 0.99)
	res.set("engine.tick_busy_frac", "frac", some(float64(tickBusy)/float64(timed.end-timed.start)), int64(len(ticks)))
	quantile("engine.tune_p50_us", tunes, 0.5)
	quantile("engine.tune_max_us", tunes, 1)
	res.set("engine.tunes", "count", some(float64(len(tunes))), int64(len(tunes)))
}

// seamSuffixes names the replayed session counts: _s1 is one session, _sN
// the workload's own count.
func (r *run) seamSuffixes(seams *seamSet) map[string]*seamsAt {
	out := map[string]*seamsAt{}
	if seams == nil {
		return out
	}
	if at := seams.find(1); at != nil {
		out["_s1"] = at
	}
	if len(seams.at) > 0 {
		out["_sN"] = &seams.at[len(seams.at)-1]
	}
	return out
}

func (r *run) collectSeams(res *result, seams *seamSet) {
	for suffix, at := range r.seamSuffixes(seams) {
		poolPerTxn := some(float64(at.pool.ns)).div(some(float64(at.pool.txns)))
		res.set("engine.seam_ns_per_txn"+suffix, "ns", at.engine.nsPerTxn(), at.engine.txns)
		res.set("engine.self_ns_per_txn"+suffix, "ns", at.engine.nsPerTxn().sub(at.txn.nsPerTxn()).sub(poolPerTxn), at.engine.txns)
		res.set("txn.seam_ns_per_txn"+suffix, "ns", at.txn.nsPerTxn(), at.txn.txns)
		res.set("txn.self_ns_per_txn"+suffix, "ns", at.txn.nsPerTxn().sub(at.lockmgr.nsPerTxn()), at.txn.txns)
		res.set("lockmgr.seam_ns_per_txn"+suffix, "ns", at.lockmgr.nsPerTxn(), at.lockmgr.txns)
		res.set("lockmgr.acquire_ns_per_req"+suffix, "ns", some(float64(at.lockmgr.acqNs)).div(some(float64(at.lockmgr.requests))), at.lockmgr.requests)
		res.set("lockmgr.release_ns_per_txn"+suffix, "ns", some(float64(at.lockmgr.relNs)).div(some(float64(at.lockmgr.txns))), at.lockmgr.txns)
		res.set("bufferpool.access_ns_per_row"+suffix, "ns", some(float64(at.pool.ns)).div(some(float64(at.pool.rows))), at.pool.rows)
		res.Attempted += at.engine.txns + at.txn.txns + at.lockmgr.txns
		res.Failed += at.engine.failed + at.txn.failed + at.lockmgr.failed
		if suffix == "_sN" {
			res.set("bufferpool.hit_frac", "frac", some(float64(at.pool.hits)).div(some(float64(at.pool.rows))), at.pool.rows)
		}
		if suffix == "_s1" {
			res.set("driver.speedup_vs_1session", "ratio",
				res.get("commits_per_s").mul(at.engine.nsPerTxn()).div(some(1e9)), at.engine.txns)
		}
	}
	if seams != nil && len(seams.at) > 0 {
		res.Attempted += seams.solo.txns
		res.Failed += seams.solo.failed
		first := seams.at[0]
		res.set("driver.self_ns_per_txn", "ns", first.noop.nsPerTxn(), first.noop.txns)
		res.set("memblock.alloc_free_ns_per_struct", "ns", some(float64(first.mem.ns)).div(some(float64(first.mem.rows))), first.mem.rows)
	}
}

// collectCounters reports the engine's own counters over the timed phase,
// looked up in its /metrics text by family name.
func (r *run) collectCounters(res *result, p *phase, commits num) {
	d := func(name string) num { return delta(p.before, p.after, name) }
	perTxn := func(metric, family string) { res.set(metric, "1/txn", d(family).div(commits), int64(commits.v)) }
	count := func(metric, family string) { res.set(metric, "count", d(family), 1) }

	tokens, fast, latched := d("lockmem_optimistic_hits_total"), d("lockmem_fastpath_hits_total"), d("lockmem_fastpath_fallbacks_total")
	admits := tokens.add(fast).add(latched)
	res.set("lockmgr.requests_per_txn", "1/txn", admits.div(commits), int64(commits.v))
	res.set("lockmgr.token_admit_frac", "frac", tokens.div(admits), int64(admits.v))
	res.set("lockmgr.fastpath_admit_frac", "frac", fast.div(admits), int64(admits.v))
	res.set("lockmgr.latched_admit_frac", "frac", latched.div(admits), int64(admits.v))
	res.set("lockmgr.token_fail_frac", "frac", d("lockmem_optimistic_failures_total").div(tokens), int64(tokens.v))

	perTxn("lockmgr.waits_per_txn", "lockmem_waits_total")
	quant := func(metric, family string, q, scale float64, unit string) {
		h := histDelta(p.before, p.after, family)
		res.set(metric, unit, h.quantile(q).mul(some(scale)), int64(h.n().v))
	}
	quant("lockmgr.wait_p50_us", "lockmem_lock_wait_seconds", 0.5, 1e6, "us")
	quant("lockmgr.wait_p99_us", "lockmem_lock_wait_seconds", 0.99, 1e6, "us")
	quant("lockmgr.admission_p99_ns", "lockmem_lock_admission_seconds", 0.99, 1e9, "ns")
	quant("lockmgr.release_p99_ns", "lockmem_lock_release_seconds", 0.99, 1e9, "ns")

	perTxn("lockmgr.culled_per_txn", "lockmem_throttle_culled_total")
	perTxn("lockmgr.reactivated_per_txn", "lockmem_throttle_reactivated_total")
	perTxn("lockmgr.release_batches_per_txn", "lockmem_release_batches_total")
	perTxn("lockmgr.wakeups_coalesced_per_txn", "lockmem_wakeups_coalesced_total")
	perTxn("lockmgr.flush_follower_waits_per_txn", "lockmem_flush_follower_waits_total")
	count("lockmgr.deadlocks", "lockmem_deadlocks_total")
	count("lockmgr.timeouts", "lockmem_timeouts_total")
	count("lockmgr.memory_denials", "lockmem_memory_denials_total")
	count("lockmgr.quota_denials", "lockmem_quota_denials_total")
	count("lockmgr.global_runs", "lockmem_global_runs_total")
	res.set("lockmgr.global_hold_max_us", "us", p.after.sum("lockmem_global_hold_max_seconds").mul(some(1e6)), 1)

	acq := d("lockmem_latch_acquisitions_total")
	spins, parks := d("lockmem_latch_spins_total"), d("lockmem_latch_parks_total")
	res.set("latch.acq_per_txn", "1/txn", acq.div(commits), int64(commits.v))
	res.set("latch.contended_frac", "frac", spins.add(parks).div(acq), int64(acq.v))
	perTxn("latch.spins_per_txn", "lockmem_latch_spins_total")
	perTxn("latch.parks_per_txn", "lockmem_latch_parks_total")
	perTxn("latch.handoffs_per_txn", "lockmem_latch_handoffs_total")
	// Every contended acquire is timed, so the wait sum is a total; holds
	// are sampled, so their mean is scaled by the acquisition count.
	wait, hold := histDelta(p.before, p.after, "lockmem_latch_wait_seconds"), histDelta(p.before, p.after, "lockmem_latch_hold_seconds")
	res.set("latch.wait_ns_per_txn", "ns", wait.total().mul(some(1e9)).div(commits), int64(wait.n().v))
	res.set("latch.hold_ns_per_txn", "ns", hold.total().mul(some(1e9)).div(hold.n()).mul(acq).div(commits), int64(hold.n().v))

	count("stmm.sync_growths", "lockmem_sync_growths_total")
	count("stmm.sync_growth_pages", "lockmem_sync_growth_pages_total")
	res.Metrics["stmm.escalations"] = res.Metrics["escalations"]

	// Gauges: the ends of the phase and the extremes sampled after each
	// tuning pass (and, on dss_surge, at the end of each scan).
	pages0, pages1 := p.before.sum("lockmem_lock_pages"), p.after.sum("lockmem_lock_pages")
	peakPages, peakUsed := pages0, p.before.sum("lockmem_lock_structs_used")
	quotaMin, overflowMin, ceiling := p.after.sum("lockmem_quota_percent"), p.after.sum("lockmem_overflow_pages"), p.after.max("lockmem_throttle_ceiling")
	n := int64(2)
	for _, g := range r.ctl.gauges {
		if g.at < p.start || g.at > p.end {
			continue
		}
		n++
		peakPages, peakUsed = maxNum(peakPages, g.pages), maxNum(peakUsed, g.used)
		ceiling = maxNum(ceiling, g.ceilingMax)
		quotaMin, overflowMin = minNum(quotaMin, g.quotaPct), minNum(overflowMin, g.overflow)
	}
	peakPages = maxNum(peakPages, pages1)
	for _, s := range r.env.sessions {
		for _, c := range s.cycles {
			if c.start >= p.start && c.end <= p.end {
				peakPages, peakUsed = maxNum(peakPages, c.pagesPeak), maxNum(peakUsed, c.usedStructs)
			}
		}
	}
	if !res.get("stmm.peak_frac_of_db").ok {
		res.set("stmm.peak_frac_of_db", "frac", peakPages.div(p.after.sum("lockmem_database_pages")), n)
	}
	res.set("memblock.pages_start", "pages", pages0, 1)
	res.set("memblock.pages_peak", "pages", peakPages, n)
	res.set("memblock.pages_end", "pages", pages1, 1)
	res.set("memblock.used_structs_peak", "count", peakUsed, n)
	res.set("stmm.quota_pct_min", "%", quotaMin, n)
	res.set("stmm.overflow_pages_min", "pages", overflowMin, n)
	res.set("lockmgr.throttle_ceiling_max", "count", ceiling, n)
}

func (r *run) collectRuntime(res *result, p *phase, commits num) {
	a, b := &p.memBefore, &p.memAfter
	res.set("runtime.mallocs_per_txn", "1/txn", some(float64(b.Mallocs-a.Mallocs)).div(commits), int64(commits.v))
	res.set("runtime.alloc_bytes_per_txn", "B/txn", some(float64(b.TotalAlloc-a.TotalAlloc)).div(commits), int64(commits.v))
	res.set("runtime.gc_cycles", "count", some(float64(b.NumGC-a.NumGC)), 1)
	res.set("runtime.gc_pause_total_ms", "ms", some(float64(b.PauseTotalNs-a.PauseTotalNs)/1e6), int64(b.NumGC-a.NumGC))
}

// budgets is the where-the-time-goes table: each layer's self time per
// transaction against the measured session time per transaction.
func (r *run) budgets(res *result, seams *seamSet) []budget {
	var out []budget
	if seams == nil || r.opt.w.name != "tpcc" {
		// readmostly reads with tokens the Acquire seam cannot take, and
		// hotrow's time is queueing: their seams are reported, not summed.
		return nil
	}
	for i := range seams.at {
		at := &seams.at[i]
		// One session is measured by the live loop run alone; the workload's
		// own session count by the timed phase.
		suffix, measured := "_sN", at.engine.nsPerTxn()
		if at.sessions == 1 {
			suffix, measured = "_s1", seams.solo.nsPerTxn()
		}
		if at.sessions == res.Sessions {
			measured = some(1e9 * float64(at.sessions)).div(res.get("commits_per_s"))
		}
		self := at.noop.nsPerTxn()
		rows := []budgetRow{
			{Row: "driver.self", Ns: ptr(self)},
			{Row: "engine.self", Ns: ptr(res.get("engine.self_ns_per_txn" + suffix))},
			{Row: "bufferpool", Ns: ptr(some(float64(at.pool.ns)).div(some(float64(at.pool.txns))))},
			{Row: "txn.self", Ns: ptr(res.get("txn.self_ns_per_txn" + suffix))},
			// The replay loop itself runs inside the acquire timing.
			{Row: "lockmgr.acquire", Ns: ptr(some(float64(at.lockmgr.acqNs)).div(some(float64(at.lockmgr.txns))).sub(self))},
			{Row: "lockmgr.release", Ns: ptr(res.get("lockmgr.release_ns_per_txn" + suffix))},
		}
		sum := some(0)
		for _, row := range rows {
			sum = sum.add(numOf(row.Ns))
		}
		rows = append(rows, budgetRow{Row: "memblock (probe)", Inner: true,
			Ns: ptr(res.get("memblock.alloc_free_ns_per_struct").mul(some(float64(at.lockmgr.requests) / 2)).div(some(float64(at.lockmgr.txns))))})
		if at.sessions == res.Sessions {
			rows = append(rows, budgetRow{Row: "latch.wait", Inner: true, Ns: ptr(res.get("latch.wait_ns_per_txn"))})
		}
		out = append(out, budget{
			Sessions: at.sessions,
			Measured: ptr(measured),
			Rows:     rows,
			Residual: ptr(measured.sub(sum).div(measured)),
		})
	}
	return out
}

// check verifies the engine's state once the sessions have stopped.
func (r *run) check(res *result, first *scrape, seams *seamSet) {
	db := r.env.db
	if err := db.SelfCheck(); err != nil {
		res.fail("SelfCheck", err.Error())
	} else {
		res.check("SelfCheck", true, "")
	}

	// Releases staged for a flush leader land shortly after Commit returns.
	last := scrapeDB(db)
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); last = scrapeDB(db) {
		if used := last.sum("lockmem_lock_structs_used"); !used.ok || used.v == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if used := last.sum("lockmem_lock_structs_used"); used.ok {
		res.check("lock structures released", used.v == 0, fmt.Sprintf("%g in use after the sessions stopped", used.v))
	}

	var driverCommits int64
	for _, s := range r.env.sessions {
		driverCommits += s.lat.commits + s.scanCommits
	}
	if seams != nil {
		driverCommits += seams.solo.commits
		for _, at := range seams.at {
			driverCommits += at.engine.commits + at.txn.commits
		}
	}
	if d := delta(first, last, "lockmem_commits_total"); d.ok {
		res.check("commit count", d.v == float64(driverCommits),
			fmt.Sprintf("driver committed %d, lockmem_commits_total grew by %g", driverCommits, d.v))
	}

	if r.opt.w.name != "dss_surge" {
		return
	}
	scans := 0
	for _, s := range r.env.sessions {
		for i, c := range s.cycles {
			scans++
			// Everything the scan locked is still held when Exec returns;
			// the bystanders hold a few dozen structures besides.
			slack := float64(64 * len(r.env.sessions))
			if !c.ok {
				res.fail("scan", fmt.Sprintf("scan %d failed or fell back to a table lock", i))
			} else if c.usedStructs.ok && (c.usedStructs.v < scanRows || c.usedStructs.v > scanRows+slack) {
				res.fail("scan rows", fmt.Sprintf("scan %d held %g structures, want %d", i, c.usedStructs.v, scanRows))
			}
		}
	}
	res.check("scans ran", scans > 0, fmt.Sprintf("%d scans", scans))
	if esc := delta(first, last, "lockmem_escalations_total"); esc.ok {
		res.check("no escalations", esc.v == 0, fmt.Sprintf("%g escalations", esc.v))
	}
	within := func(name string, lo, hi float64) {
		if v := res.get(name); v.ok {
			res.check(name, v.v >= lo && v.v <= hi, fmt.Sprintf("%.4g, want [%g, %g]", v.v, lo, hi))
		}
	}
	// The peak is a maximum over scans: whether a tuning pass lands inside
	// a given scan is chance, so a handful of scans cannot show it.
	if res.Metrics["stmm.peak_frac_of_db"].N >= 5 {
		within("stmm.peak_frac_of_db", 0.08, 0.12) // paper: ≈10 % of database memory
	}
	within("stmm.shrink_ratio_12", 0.40, 0.70) // δreduce: 0.95^12 ≈ 0.54 plus block rounding
}

// names returns the result's metric names, end-to-end first.
func (res *result) names() []string {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	layered := func(n string) bool { return strings.Contains(n, ".") }
	sort.Slice(names, func(i, j int) bool {
		if li, lj := layered(names[i]), layered(names[j]); li != lj {
			return !li
		}
		return names[i] < names[j]
	})
	return names
}
