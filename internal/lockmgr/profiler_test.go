package lockmgr

import (
	"encoding/json"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/trace"
)

// TestHotLockBlameDeterministic drives contention single-threaded on the
// simulated clock and checks the sketch against exactly computed blame.
// With fewer distinct contended locks than slots per stripe the sketch's
// documented bound collapses to exactness (Err == 0): blame is the sum of
// clock-measured wait time plus hotEventBlameNs per enqueue.
func TestHotLockBlameDeterministic(t *testing.T) {
	clk := clock.NewSim()
	m := New(Config{InitialPages: 64, Clock: clk})

	rowA, rowB := RowName(1, 1), RowName(2, 2)
	expect := map[Name]struct{ blame, wait int64 }{}

	// rowA: one 5ms wait, one 7ms wait (sequential, so each is one
	// enqueue charging hotEventBlameNs plus its measured duration).
	for _, d := range []time.Duration{5 * time.Millisecond, 7 * time.Millisecond} {
		h := m.NewOwner(m.RegisterApp())
		w := m.NewOwner(m.RegisterApp())
		mustGrant(t, m.AcquireAsync(h, rowA, ModeX, 1), "holder X")
		p := m.AcquireAsync(w, rowA, ModeS, 1)
		mustWait(t, p, "waiter S")
		clk.Advance(d)
		m.ReleaseAll(h)
		mustGrant(t, p, "waiter granted on release")
		m.ReleaseAll(w)
		e := expect[rowA]
		e.blame += hotEventBlameNs + d.Nanoseconds()
		e.wait += d.Nanoseconds()
		expect[rowA] = e
	}

	// rowB: one 3ms wait.
	h := m.NewOwner(m.RegisterApp())
	w := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(h, rowB, ModeX, 1), "holder X")
	p := m.AcquireAsync(w, rowB, ModeS, 1)
	mustWait(t, p, "waiter S")
	clk.Advance(3 * time.Millisecond)
	m.ReleaseAll(h)
	mustGrant(t, p, "waiter granted on release")
	m.ReleaseAll(w)
	expect[rowB] = struct{ blame, wait int64 }{hotEventBlameNs + 3e6, 3e6}

	hot := m.HotLocks(10)
	if len(hot) != 2 {
		t.Fatalf("tracked %d locks, want 2: %+v", len(hot), hot)
	}
	// Highest blame first: rowA (12ms + 2µs) over rowB (3ms + 1µs).
	if hot[0].Name != rowA.String() {
		t.Fatalf("top lock %s, want %s", hot[0].Name, rowA.String())
	}
	for _, hl := range hot {
		var want struct{ blame, wait int64 }
		switch hl.Name {
		case rowA.String():
			want = expect[rowA]
		case rowB.String():
			want = expect[rowB]
		default:
			t.Fatalf("unexpected lock %q", hl.Name)
		}
		if hl.BlameNs != want.blame || hl.ErrNs != 0 {
			t.Errorf("%s: blame %d err %d, want exactly %d err 0", hl.Name, hl.BlameNs, hl.ErrNs, want.blame)
		}
		if hl.WaitNs != want.wait {
			t.Errorf("%s: wait %d, want %d", hl.Name, hl.WaitNs, want.wait)
		}
		if hl.QueueDepthMax != 1 {
			t.Errorf("%s: queue max %d, want 1 (one waiter at a time)", hl.Name, hl.QueueDepthMax)
		}
	}

	wantTotal := expect[rowA].blame + expect[rowB].blame
	if got := m.HotLockBlameNs(); got != wantTotal {
		t.Fatalf("total blame %d, want %d", got, wantTotal)
	}
	// Decay halves the ranking; the total follows deterministically.
	m.DecayHotLocks()
	if got := m.HotLockBlameNs(); got != expect[rowA].blame/2+expect[rowB].blame/2 {
		t.Fatalf("decayed total %d", got)
	}

	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants with populated sketch: %v", err)
	}
}

// TestDumpWaitersConvoy parks four waiters behind one X holder and checks
// the blocked-on report sees the convoy — holder, every blocked owner, the
// lock — without ever taking the all-shard latch.
func TestDumpWaitersConvoy(t *testing.T) {
	clk := clock.NewSim()
	m := New(Config{InitialPages: 64, Clock: clk})
	row := RowName(4, 8)
	holder := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(holder, row, ModeX, 1), "holder X")

	const nWaiters = 4
	waiters := make([]*Owner, nWaiters)
	pending := make([]*Pending, nWaiters)
	for i := range waiters {
		waiters[i] = m.NewOwner(m.RegisterApp())
		pending[i] = m.AcquireAsync(waiters[i], row, ModeS, 1)
		mustWait(t, pending[i], "convoy waiter")
	}
	clk.Advance(2 * time.Millisecond)

	g0 := m.GlobalRuns()
	rep := m.DumpWaiters()
	if got := m.GlobalRuns(); got != g0 {
		t.Fatalf("DumpWaiters took the all-shard latch: GlobalRuns %d → %d", g0, got)
	}

	if rep.Waiters != nWaiters {
		t.Fatalf("waiters = %d, want %d", rep.Waiters, nWaiters)
	}
	// Queue predecessors block too, so earlier waiters head their own
	// smaller convoys; the most crowded — the holder with every waiter
	// behind it — sorts first.
	if len(rep.Convoys) == 0 || rep.Convoys[0].HolderID != holder.id ||
		rep.Convoys[0].Waiters != nWaiters || rep.Convoys[0].Lock != row.String() {
		t.Fatalf("convoys = %+v", rep.Convoys)
	}
	// Every waiter appears blocked behind the holder with the advanced
	// clock's wait duration.
	behindHolder := 0
	for _, e := range rep.Edges {
		if e.HolderID == holder.id {
			behindHolder++
			if e.WaitNs != (2 * time.Millisecond).Nanoseconds() {
				t.Errorf("edge wait %d, want 2ms", e.WaitNs)
			}
			if e.Mode != "S" || e.Lock != row.String() {
				t.Errorf("edge %+v", e)
			}
		}
	}
	if behindHolder != nWaiters {
		t.Fatalf("%d edges behind holder, want %d", behindHolder, nWaiters)
	}
	if rep.LongestChainLen != nWaiters+1 {
		t.Fatalf("chain len %d, want %d (last waiter through the queue to the holder)",
			rep.LongestChainLen, nWaiters+1)
	}

	// The rendered report carries the same picture.
	report := m.ContentionReport(5)
	if !strings.Contains(report, "convoy: 4 waiters") || !strings.Contains(report, row.String()) {
		t.Fatalf("report missing convoy:\n%s", report)
	}

	m.ReleaseAll(holder)
	for i, p := range pending {
		mustGrant(t, p, "waiter after release")
		m.ReleaseAll(waiters[i])
	}
	if rep := m.DumpWaiters(); rep.Waiters != 0 {
		t.Fatalf("waiters after drain = %d", rep.Waiters)
	}
}

// TestFlightRecorder checks the per-shard flight rings capture the
// wait → grant → (sampled) release lifecycle with manager-clock
// timestamps, and that the shard/last query knobs work.
func TestFlightRecorder(t *testing.T) {
	clk := clock.NewSim()
	m := New(Config{InitialPages: 64, Clock: clk})
	row := RowName(3, 3)
	h := m.NewOwner(m.RegisterApp())
	w := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(h, row, ModeX, 1), "holder X")
	p := m.AcquireAsync(w, row, ModeS, 1)
	mustWait(t, p, "waiter")
	clk.Advance(time.Millisecond)
	m.ReleaseAll(h)
	mustGrant(t, p, "granted")

	evs := m.FlightEvents(-1, 0)
	var sawWait, sawGrant bool
	for _, e := range evs {
		switch e.Kind {
		case trace.KindWait:
			sawWait = true
			if !strings.Contains(e.Detail, row.String()) || !strings.Contains(e.Detail, "depth=1") {
				t.Errorf("wait detail %q", e.Detail)
			}
		case trace.KindGrant:
			sawGrant = true
			if !strings.Contains(e.Detail, "waited=1ms") {
				t.Errorf("grant detail %q", e.Detail)
			}
		}
	}
	if !sawWait || !sawGrant {
		t.Fatalf("lifecycle missing (wait=%v grant=%v): %v", sawWait, sawGrant, evs)
	}

	// last=1 returns only the newest event of the merged view.
	if got := m.FlightEvents(-1, 1); len(got) != 1 {
		t.Fatalf("last=1 returned %d events", len(got))
	}
	// Selecting the row's home shard keeps the events; every other shard's
	// ring is empty of this lock's lifecycle.
	home := int(uint64(m.shardOf(row)))
	homeEvs := m.FlightEvents(home, 0)
	if len(homeEvs) == 0 {
		t.Fatalf("home shard %d has no events", home)
	}
	total := 0
	for i := 0; i < int(m.shardMask)+1; i++ {
		total += len(m.FlightEvents(i, 0))
	}
	if total != len(evs) {
		t.Fatalf("per-shard sum %d != merged %d", total, len(evs))
	}
}

// TestFlightDetailFormats pins the Detail text each flight kind renders:
// the records are formatted on read, and the text must stay exactly what
// /debug/flight has always served.
func TestFlightDetailFormats(t *testing.T) {
	row, tbl := RowName(3, 7), TableName(5)
	cases := []struct {
		rec  flightRec
		kind trace.Kind
		want string
	}{
		{flightRec{kind: flightWait, name: row, mode: ModeS, owner: 7, val: 3},
			trace.KindWait, "row(3.7) mode=S owner=7 depth=3"},
		{flightRec{kind: flightConvert, name: row, mode: ModeX, owner: 7, val: 2},
			trace.KindWait, "row(3.7) convert=X owner=7 depth=2"},
		{flightRec{kind: flightGrant, name: row, mode: ModeX, owner: 7, val: int64(2500 * time.Microsecond)},
			trace.KindGrant, "row(3.7) mode=X owner=7 waited=2.5ms"},
		{flightRec{kind: flightRelease, name: tbl, mode: ModeIX, owner: 11, val: 1234},
			trace.KindRelease, "table(5) mode=IX owner=11 held=1.234µs"},
		{flightRec{kind: flightFastRelease, name: row, mode: ModeIS, owner: 11, val: 40},
			trace.KindRelease, "row(3.7) mode=IS owner=11 held=40ns (fast)"},
		{flightRec{kind: flightEscalation, name: tbl, mode: ModeSIX, owner: 4},
			trace.KindEscalation, "table(5) to=SIX owner=4"},
	}
	for _, c := range cases {
		if got := c.rec.detail(); got != c.want {
			t.Errorf("kind %d: detail %q, want %q", c.rec.kind, got, c.want)
		}
		if got := flightTraceKind[c.rec.kind]; got != c.kind {
			t.Errorf("kind %d: trace kind %v, want %v", c.rec.kind, got, c.kind)
		}
	}
}

// TestFlightRecordNoAllocs checks that recording — the part that runs on
// the wait and grant path, mostly under the shard latch — allocates
// nothing once the ring is warm.
func TestFlightRecordNoAllocs(t *testing.T) {
	m := New(Config{InitialPages: 64, Clock: clock.NewSim()})
	row := RowName(1, 1)
	si := m.shardOf(row)
	wait := flightRec{kind: flightWait, app: 2, name: row, mode: ModeX, owner: 5, val: 4}
	grant := flightRec{kind: flightGrant, app: 2, name: row, mode: ModeX, owner: 5, val: 1e6}
	for i := 0; i < flightRingCap; i++ {
		m.flightRecord(si, m.clk.Now(), wait)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		m.flightRecord(si, m.clk.Now(), wait)
		m.flightRecord(si, m.clk.Now(), grant)
	}); allocs != 0 {
		t.Fatalf("recording a wait and a grant allocated %v times", allocs)
	}
	if evs := m.FlightEvents(si, 0); len(evs) != flightRingCap {
		t.Fatalf("warm ring holds %d events, want %d", len(evs), flightRingCap)
	}
}

// TestFlightJSONGolden scripts wait → grant → release and a conversion on
// the simulated clock and pins the /debug/flight JSON byte for byte: the
// records are rendered on read, and clients parse the text. Release hold
// times are wall-clock, so they are masked.
func TestFlightJSONGolden(t *testing.T) {
	clk := clock.NewSim()
	m := New(Config{InitialPages: 64, Clock: clk, ObsSampleStride: 1})
	row := RowName(3, 3)
	h := m.NewOwner(m.RegisterApp())
	w := m.NewOwner(m.RegisterApp())
	c := m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(h, row, ModeX, 1), "holder X")
	p := m.AcquireAsync(w, row, ModeS, 1)
	mustWait(t, p, "waiter")
	clk.Advance(time.Millisecond)
	if err := m.Release(h, row); err != nil {
		t.Fatal(err)
	}
	mustGrant(t, p, "granted")
	mustGrant(t, m.AcquireAsync(c, row, ModeS, 1), "co-holder S")
	p = m.AcquireAsync(w, row, ModeX, 1)
	mustWait(t, p, "converter")
	clk.Advance(2500 * time.Microsecond)
	if err := m.Release(c, row); err != nil {
		t.Fatal(err)
	}
	mustGrant(t, p, "converted")
	clk.Advance(time.Millisecond)
	if err := m.Release(w, row); err != nil {
		t.Fatal(err)
	}

	held := regexp.MustCompile(`held=[^ "]+`)
	render := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return held.ReplaceAllString(string(b), "held=D")
	}
	const want = `[` +
		`{"Time":"2007-04-16T00:00:00Z","Kind":"wait","AppID":2,"Detail":"row(3.3) mode=S owner=2 depth=1"},` +
		`{"Time":"2007-04-16T00:00:00.001Z","Kind":"release","AppID":1,"Detail":"row(3.3) mode=X owner=1 held=D"},` +
		`{"Time":"2007-04-16T00:00:00.001Z","Kind":"grant","AppID":2,"Detail":"row(3.3) mode=S owner=2 waited=1ms"},` +
		`{"Time":"2007-04-16T00:00:00.001Z","Kind":"wait","AppID":2,"Detail":"row(3.3) convert=X owner=2 depth=1"},` +
		`{"Time":"2007-04-16T00:00:00.0035Z","Kind":"release","AppID":3,"Detail":"row(3.3) mode=S owner=3 held=D"},` +
		`{"Time":"2007-04-16T00:00:00.0035Z","Kind":"grant","AppID":2,"Detail":"row(3.3) mode=X owner=2 waited=2.5ms"},` +
		`{"Time":"2007-04-16T00:00:00.0045Z","Kind":"release","AppID":2,"Detail":"row(3.3) mode=X owner=2 held=D"}` +
		`]`
	if got := render(m.FlightEvents(-1, 0)); got != want {
		t.Fatalf("merged flight JSON\n got %s\nwant %s", got, want)
	}
	home := m.shardOf(row)
	if got, want := render(m.FlightEvents(home, 2)), `[`+
		`{"Time":"2007-04-16T00:00:00.0035Z","Kind":"grant","AppID":2,"Detail":"row(3.3) mode=X owner=2 waited=2.5ms"},`+
		`{"Time":"2007-04-16T00:00:00.0045Z","Kind":"release","AppID":2,"Detail":"row(3.3) mode=X owner=2 held=D"}`+
		`]`; got != want {
		t.Fatalf("home shard last=2\n got %s\nwant %s", got, want)
	}
	// An empty shard serves an empty array; the merged view of a manager
	// that never recorded serves null.
	if got := render(m.FlightEvents(home+1, 0)); got != "[]" {
		t.Fatalf("empty shard JSON %s", got)
	}
	if got := render(New(Config{InitialPages: 64, Clock: clk}).FlightEvents(-1, 0)); got != "null" {
		t.Fatalf("empty merged JSON %s", got)
	}

	// Each event serves exactly these four fields.
	var evs []map[string]json.RawMessage
	if err := json.Unmarshal([]byte(render(m.FlightEvents(-1, 0))), &evs); err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		if len(e) != 4 || e["Time"] == nil || e["Kind"] == nil || e["AppID"] == nil || e["Detail"] == nil {
			t.Fatalf("event fields %v, want exactly Time/Kind/AppID/Detail", e)
		}
	}
}

// TestProfilerDisabled checks ProfileDisabled turns every surface into a
// cheap no-op while the blocked-on export (pure lock-table state) stays up.
func TestProfilerDisabled(t *testing.T) {
	clk := clock.NewSim()
	m := New(Config{InitialPages: 64, Clock: clk, ProfileDisabled: true})
	h := m.NewOwner(m.RegisterApp())
	w := m.NewOwner(m.RegisterApp())
	row := RowName(1, 1)
	mustGrant(t, m.AcquireAsync(h, row, ModeX, 1), "X")
	p := m.AcquireAsync(w, row, ModeS, 1)
	mustWait(t, p, "S")
	clk.Advance(time.Millisecond)

	if got := m.HotLocks(5); got != nil {
		t.Fatalf("HotLocks = %v", got)
	}
	if m.HotLockBlameNs() != 0 || m.FlightEvents(-1, 0) != nil || m.LatchProfile() != nil {
		t.Fatal("disabled profiler leaked state")
	}
	m.DecayHotLocks() // must not panic

	if rep := m.DumpWaiters(); rep.Waiters != 1 {
		t.Fatalf("DumpWaiters with profiler off: %+v", rep)
	}
	if !strings.Contains(m.ContentionReport(3), "no contention recorded") {
		t.Fatal("report should say the sketch is empty")
	}
	m.ReleaseAll(h)
}

// TestProfilerConcurrentReads races every profiler read surface —
// HotLocks, DumpWaiters, FlightEvents, ContentionReport, Decay — against
// live contended traffic. Run under -race (the race gate covers this
// package); correctness here is "no race, no panic, invariants hold".
func TestProfilerConcurrentReads(t *testing.T) {
	m := New(Config{InitialPages: 128, LockTimeout: 5 * time.Second, ObsSampleStride: 8})
	var wg sync.WaitGroup
	st := newStopper(t, &wg)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o := m.NewOwner(m.RegisterApp())
			for i := 0; ; i++ {
				select {
				case <-st.C:
					return
				default:
				}
				// Hot rows shared across goroutines: real waits, enqueues
				// and flight events.
				p := m.AcquireAsync(o, RowName(1, uint64(i%4)), ModeX, 1)
				<-p.Done()
				m.ReleaseAll(o)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-st.C:
				return
			default:
			}
			_ = m.HotLocks(5)
			_ = m.DumpWaiters()
			_ = m.FlightEvents(-1, 16)
			_ = m.HotLockBlameNs()
			if i%10 == 0 {
				m.DecayHotLocks()
				_ = m.ContentionReport(3)
			}
		}
	}()
	time.Sleep(200 * time.Millisecond)
	st.stop()
	wg.Wait()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLatchProfileSampling drives enough acquisitions through the latched
// path to cross the 1-in-64 hold sampling stride and checks samples land
// in the merged histogram.
func TestLatchProfileSampling(t *testing.T) {
	m := New(Config{InitialPages: 64, Shards: 1, ObsSampleStride: 64})
	lp := m.LatchProfile()
	if lp == nil {
		t.Fatal("latch profile nil with sampling on")
	}
	o := m.NewOwner(m.RegisterApp())
	for i := 0; i < 1000; i++ {
		mustGrant(t, m.AcquireAsync(o, RowName(1, uint64(i)), ModeX, 1), "X")
	}
	m.ReleaseAll(o)
	if got := lp.MergedHold().Total; got == 0 {
		t.Fatal("no latch holds sampled after 1000 latched acquisitions")
	}
}

// TestDumpWaitersMatchesDetector: DumpWaiters and the deadlock detector's
// phase-1 export share one walk, so on a queue of 64 X waiters behind two S
// holders, one of them converting to X, both report the same edges.
func TestDumpWaitersMatchesDetector(t *testing.T) {
	m := newMgr(Config{Shards: 1})
	row := RowName(1, 1)
	a, b := m.NewOwner(m.RegisterApp()), m.NewOwner(m.RegisterApp())
	mustGrant(t, m.AcquireAsync(a, row, ModeS, 1), "holder a")
	mustGrant(t, m.AcquireAsync(b, row, ModeS, 1), "holder b")
	mustWait(t, m.AcquireAsync(b, row, ModeX, 1), "converter b")
	for i := 0; i < 64; i++ {
		mustWait(t, m.AcquireAsync(m.NewOwner(m.RegisterApp()), row, ModeX, 1), "X waiter")
	}

	type edge struct{ from, to uint64 }
	count := func(es []edge) map[edge]int {
		n := make(map[edge]int)
		for _, e := range es {
			n[e]++
		}
		return n
	}
	var fromDetector []edge
	for _, e := range m.exportWaitEdges() {
		if e.to != nil {
			fromDetector = append(fromDetector, edge{e.fromID, e.toID})
		}
	}
	var fromDump []edge
	for _, e := range m.DumpWaiters().Edges {
		fromDump = append(fromDump, edge{e.WaiterID, e.HolderID})
	}
	// The converter waits on a; each waiter on a and b (holders), b (the
	// converter) and its predecessor, the first waiter having none.
	if want := 1 + 64*3 + 63; len(fromDetector) != want {
		t.Fatalf("detector exported %d edges, want %d", len(fromDetector), want)
	}
	if got, want := count(fromDump), count(fromDetector); len(fromDump) != len(fromDetector) || len(got) != len(want) {
		t.Fatalf("DumpWaiters reports %d edges (%d distinct), detector %d (%d distinct)",
			len(fromDump), len(got), len(fromDetector), len(want))
	} else {
		for e, n := range want {
			if got[e] != n {
				t.Fatalf("edge %d→%d: DumpWaiters %d, detector %d", e.from, e.to, got[e], n)
			}
		}
	}
}
