package lockmgr

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// Introspection: point-in-time views of the lock table for operators and
// tests, in the spirit of DB2's `db2pd -locks`. DumpLocks reads the table
// one shard latch at a time — a fuzzy snapshot, like db2pd's own unlatched
// walk, that never stalls the fast path. CheckInvariants is the one
// deliberate exception: it is stop-the-world (runGlobal), because the
// cross-shard accounting it verifies only balances on a single consistent
// cut.

// LockInfo describes one lock table entry.
type LockInfo struct {
	Name      Name
	GroupMode Mode
	Holders   []HolderInfo
	Waiters   []WaiterInfo
}

// HolderInfo describes one granted request.
type HolderInfo struct {
	OwnerID    uint64
	AppID      int
	Mode       Mode
	Weight     int
	Converting bool
	ConvertTo  Mode
}

// WaiterInfo describes one queued request.
type WaiterInfo struct {
	OwnerID uint64
	AppID   int
	Mode    Mode
}

// DumpLocks returns every lock table entry, ordered by name, for
// diagnostics. Each shard is read under its own latch, one at a time, so
// the dump never freezes the whole table; entries from different shards may
// reflect slightly different instants (a lock released in shard 0 after its
// visit can still appear held in shard 5's rows). Within one entry the view
// is exact.
func (m *Manager) DumpLocks() []LockInfo {
	var out []LockInfo
	for i := range m.shards {
		s := m.lockShard(i)
		s.table.Each(func(h *lockHeader) bool {
			// Published headers accept latch-free grants; seal the word so
			// the granted group is stable (and race-free) while we copy it,
			// settle before moving on.
			m.sealFast(h)
			li := LockInfo{Name: h.name, GroupMode: h.groupMode}
			for _, g := range h.holders {
				li.Holders = append(li.Holders, HolderInfo{
					OwnerID:    g.owner.id,
					AppID:      g.owner.app.id,
					Mode:       g.mode,
					Weight:     g.weight,
					Converting: g.converting,
					ConvertTo:  g.convert,
				})
			}
			sort.Slice(li.Holders, func(i, j int) bool { return li.Holders[i].OwnerID < li.Holders[j].OwnerID })
			for _, w := range append(append([]*request{}, h.converters...), h.waiters...) {
				li.Waiters = append(li.Waiters, WaiterInfo{
					OwnerID: w.owner.id,
					AppID:   w.owner.app.id,
					Mode:    w.effectiveMode(),
				})
			}
			m.settleFast(s, h)
			out = append(out, li)
			return true
		})
		m.unlockShard(s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Name, out[j].Name
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Gran != b.Gran {
			return a.Gran < b.Gran
		}
		return a.Row < b.Row
	})
	return out
}

// String renders a LockInfo as a single diagnostic line.
func (li LockInfo) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s mode=%-4s holders=[", li.Name, li.GroupMode)
	for i, h := range li.Holders {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "txn%d:%s", h.OwnerID, h.Mode)
		if h.Converting {
			fmt.Fprintf(&b, "→%s", h.ConvertTo)
		}
	}
	b.WriteString("]")
	if len(li.Waiters) > 0 {
		b.WriteString(" waiters=[")
		for i, w := range li.Waiters {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "txn%d:%s", w.OwnerID, w.Mode)
		}
		b.WriteString("]")
	}
	return b.String()
}

// CheckInvariants verifies internal consistency of the lock table; tests
// and long-running simulations call it. It returns the first violation
// found, or nil.
//
// This is a deliberate runGlobal survivor — the only steady-state reader
// left on the all-shard latch. It cross-checks owner indexes against lock
// tables in other shards, sums per-application structures across every
// shard, and reconciles chain reservations against all lease pools: none of
// those identities hold on a fuzzy cut, only when the whole table stands
// still. Tests accept the stall; production observers use the latch-free
// Stats/ShardStatsSnapshot instead.
func (m *Manager) CheckInvariants() error {
	var err error
	m.runGlobal(func() {
		err = m.checkInvariantsLocked()
	})
	return err
}

// checkInvariantsLocked does the work. Caller holds all shard latches.
func (m *Manager) checkInvariantsLocked() error {
	appStructs := make(map[int]int)
	inWait := make(map[*Owner]int)
	// Every queued or wait-listed request and every header in a shard
	// table, across shards, for the owner-cache checks below.
	waiting := make(map[*request]bool)
	tabled := make(map[*lockHeader]bool)
	for i := range m.shards {
		s := &m.shards[i]
		// The latch-free observation mirrors must agree exactly with the
		// latched truth while every latch is held.
		if got, want := s.nLocks.Load(), int64(s.table.Len()); got != want {
			return fmt.Errorf("lockmgr: shard %d nLocks mirror %d, table has %d", i, got, want)
		}
		// The waiting list: linked both ways, homed here, counted by nWaiting.
		nw := 0
		for r, prev := s.waitHead, (*request)(nil); r != nil; prev, r = r, r.wnext {
			if !r.inWaitList || r.wprev != prev || (r.wnext == nil && s.waitTail != r) || m.shardOf(r.name) != i {
				return fmt.Errorf("lockmgr: shard %d waiting list broken at %v", i, r.name)
			}
			nw++
		}
		if got := s.nWaiting.Load(); got != int64(nw) {
			return fmt.Errorf("lockmgr: shard %d nWaiting mirror %d, waiting list holds %d", i, got, nw)
		}
		if got, want := s.pool.Pooled(), s.pool.Structs(); got != want {
			return fmt.Errorf("lockmgr: shard %d pooled mirror %d, pool holds %d", i, got, want)
		}
		fastInUse := 0  // Σ granted fast-leased weights in this shard
		publishedN := 0 // published headers resident in this shard's table
		// queued: every request on one of this shard's converter or
		// waiter queues, each on exactly one.
		queued := make(map[*request]bool)
		hdrs := make([]*lockHeader, 0, s.table.Len())
		s.table.Each(func(h *lockHeader) bool {
			hdrs = append(hdrs, h)
			return true
		})
		for _, h := range hdrs {
			tabled[h] = true
			name := h.name
			// Filed under the hash its name has today: a lookup reaches it.
			if s.header(hashName(name), name) != h {
				return fmt.Errorf("lockmgr: shard %d header %v is not where its name hashes to", i, name)
			}
			if h.published {
				publishedN++
				// Reachable from its home slot: no nil slot on its probe
				// chain, where a lookup would stop short of it.
				if s.fastLookup(hashName(name), name) != h {
					return fmt.Errorf("lockmgr: published header %v not reachable in its shard's publication table", name)
				}
			}
			if m.shardOf(name) != i {
				return fmt.Errorf("lockmgr: %v hashed to shard %d but stored in %d", name, m.shardOf(name), i)
			}
			if h.empty() && !h.published {
				// Published headers are deliberately kept resident while
				// empty (deferred reclamation keeps hot keys latch-free);
				// everything else must be evicted when its last interest
				// leaves.
				return fmt.Errorf("lockmgr: empty header %v not deleted", name)
			}
			// Grant word vs latched chain state. The world is stopped
			// (runGlobal gate), so no fast op can hold lk and the word must
			// be exactly what a settle would store: the packed counts +
			// group mode when the state is fast-representable, a fence
			// otherwise. Unpublished headers never carry a word.
			if w := h.word.Load(); h.published {
				if w&wordLk != 0 {
					return fmt.Errorf("lockmgr: %v grant word locked with the world stopped", name)
				}
				seq := (w >> wordSeqShift) & wordSeqMask
				if want := m.recomputeWord(h, seq); w != want {
					return fmt.Errorf("lockmgr: %v grant word %#x disagrees with chain state %#x", name, w, want)
				}
				// Optimistic epoch cross-check: the word's 11-bit settle
				// seq is defined as the low bits of the 64-bit reader
				// epoch. Every latched settle and every fast IX admission
				// bumps both together; with the world stopped they must
				// coincide, or a wrapped seq could ABA an optimistic
				// reader past a missed invalidation.
				if e := h.epoch.Load(); e&wordSeqMask != seq {
					return fmt.Errorf("lockmgr: %v settle seq %d desynced from epoch %d (low bits %d)",
						name, seq, e, e&wordSeqMask)
				}
			} else if w != 0 {
				return fmt.Errorf("lockmgr: %v unpublished header carries grant word %#x", name, w)
			}
			// Granted group mutually compatible, and groupMode correct.
			// An owner holds at most one request per name.
			want := ModeNone
			holders := h.holders
			for _, g := range holders {
				if !g.granted {
					return fmt.Errorf("lockmgr: %v non-granted request in granted group", name)
				}
				want = Supremum(want, g.mode)
				if g.fastLeased {
					// Fast-path grants hold no handle; their structures
					// live in the shard's standing fast lease.
					appStructs[g.owner.app.id] += g.weight
					fastInUse += g.weight
				} else {
					appStructs[g.owner.app.id] += g.handle.Structs()
				}
			}
			for i := 0; i < len(holders); i++ {
				for j := i + 1; j < len(holders); j++ {
					if holders[i].owner == holders[j].owner {
						return fmt.Errorf("lockmgr: %v granted twice to owner %d", name, holders[i].owner.id)
					}
					if !Compatible(holders[i].mode, holders[j].mode) {
						return fmt.Errorf("lockmgr: %v incompatible granted group: %v vs %v",
							name, holders[i].mode, holders[j].mode)
					}
				}
			}
			if h.groupMode != want {
				return fmt.Errorf("lockmgr: %v groupMode %v, want %v", name, h.groupMode, want)
			}
			// Every waiter is registered in its shard's waiting set, sits
			// on exactly one queue of its own header, and — queue
			// soundness — the head waiter is genuinely blocked.
			for _, c := range h.converters {
				waiting[c] = true
				if !c.inWaitList || c.header != h || queued[c] {
					return fmt.Errorf("lockmgr: %v converter not queued once in the waiting set", name)
				}
				if !c.converting {
					return fmt.Errorf("lockmgr: %v non-converting request on converter queue", name)
				}
				queued[c] = true
			}
			for _, w := range h.waiters {
				waiting[w] = true
				if !w.inWaitList || w.header != h || queued[w] || w.converting {
					return fmt.Errorf("lockmgr: %v waiter not queued once in the waiting set", name)
				}
				queued[w] = true
				appStructs[w.owner.app.id] += w.handle.Structs()
			}
			if len(h.converters) == 0 && len(h.waiters) > 0 {
				if Compatible(h.waiters[0].mode, h.groupMode) {
					return fmt.Errorf("lockmgr: %v head waiter %v compatible with group %v but not granted",
						name, h.waiters[0].mode, h.groupMode)
				}
			}
		}
		// Every member of the waiting set is parked or queued on its own
		// header (the wait list has no other waiting state, so phase 1 of
		// DetectDeadlocks only reads headers whose word is fenced). It
		// counts toward its owner's inWait gauge and must have its home
		// shard's touched bit set — the bit is set before the request can
		// reach any queue, and never cleared.
		for req := s.waitHead; req != nil; req = req.wnext {
			waiting[req] = true
			inWait[req.owner]++
			if req.parked == queued[req] {
				return fmt.Errorf("lockmgr: shard %d waiting request on %v parked=%v queued=%v",
					i, req.name, req.parked, queued[req])
			}
			if !req.owner.isTouched(i) {
				return fmt.Errorf("lockmgr: owner %d waits in shard %d without touched bit", req.owner.id, i)
			}
		}
		// Publication table: every non-nil slot points at a published
		// header of this shard's table (each of which fastLookup reached
		// above), and the published population mirror is exact and within
		// fastPublishMax.
		slotN := 0
		for j := range s.fastSlots {
			h := s.fastSlots[j].Load()
			if h == nil {
				continue
			}
			slotN++
			if !h.published {
				return fmt.Errorf("lockmgr: shard %d slot %d holds unpublished header %v", i, j, h.name)
			}
			if s.header(hashName(h.name), h.name) != h {
				return fmt.Errorf("lockmgr: shard %d slot %d header %v not in table", i, j, h.name)
			}
		}
		if slotN != publishedN || int(s.fastPublishedN.Load()) != publishedN {
			return fmt.Errorf("lockmgr: shard %d published-header counts disagree: slots %d, table %d, mirror %d",
				i, slotN, publishedN, s.fastPublishedN.Load())
		}
		if publishedN > fastPublishMax {
			return fmt.Errorf("lockmgr: shard %d publishes %d headers, bound %d", i, publishedN, fastPublishMax)
		}
		// Fast credit: the standing lease physically backs the whole credit
		// line; the consumed part is exactly the granted fast-leased weight
		// resident in this shard.
		free := int(s.fastFree.Load())
		if free < 0 || free > s.fastLeaseTotal {
			return fmt.Errorf("lockmgr: shard %d fast credit %d outside [0,%d]", i, free, s.fastLeaseTotal)
		}
		if s.fastLease.Structs() != s.fastLeaseTotal {
			return fmt.Errorf("lockmgr: shard %d fast lease holds %d structs, accounted %d",
				i, s.fastLease.Structs(), s.fastLeaseTotal)
		}
		if s.fastLeaseTotal-free != fastInUse {
			return fmt.Errorf("lockmgr: shard %d fast credit in use %d, granted fast-leased weight %d",
				i, s.fastLeaseTotal-free, fastInUse)
		}
	}

	if n := m.wakeLeaks.Load(); n != 0 {
		return fmt.Errorf("lockmgr: %d owners parked with a wake signal pending", n)
	}

	// Owner indexes agree with the lock table. Each app's mu is held
	// across the walk of its owners, not just a list snapshot: a
	// deregistered owner's teardown (dropRef → resetForReuse) wipes the
	// indexes latch-free, and deregistration, parking and reuse by
	// NewOwner all need the app's mu — so holding it keeps every visited
	// owner, the parked one included, alive and unchanged for the
	// duration. ownersMu keeps the app set fixed. Lock order is shard latches → ownersMu → App.mu → o.mu; the
	// tails are leaves (no path takes ownersMu, an App.mu or a shard latch
	// while holding o.mu, and none takes a latch under ownersMu or App.mu).
	apps := make(map[int]*App)
	ownerErr := func() error {
		m.ownersMu.Lock()
		defer m.ownersMu.Unlock()
		for id, a := range m.apps {
			apps[id] = a
			if err := m.checkAppOwners(a, inWait, waiting, tabled); err != nil {
				return err
			}
		}
		return nil
	}()
	if ownerErr != nil {
		return ownerErr
	}

	// Per-application struct accounting matches the chain.
	total := 0
	for id, n := range appStructs {
		if app := apps[id]; app != nil && app.structs.Load() != int64(n) {
			return fmt.Errorf("lockmgr: app %d structs %d, want %d", id, app.structs.Load(), n)
		}
		total += n
	}
	if used := m.chain.Used(); used != total {
		return fmt.Errorf("lockmgr: chain used %d, requests account for %d", used, total)
	}

	// Memory-chain internal consistency, and exact STMM-facing totals:
	// Used + Free == Capacity must hold even mid-lease.
	if err := m.chain.CheckInvariants(); err != nil {
		return err
	}
	if u, f, c := m.chain.Used(), m.chain.FreeStructs(), m.chain.Capacity(); u+f != c {
		return fmt.Errorf("lockmgr: used %d + free %d != capacity %d", u, f, c)
	}

	// Lease reconciliation: everything the chain has reserved beyond
	// request-level usage must sit in exactly one shard's pool or in a
	// shard's unconsumed fast credit (granted fast-leased weight has been
	// consumed against the chain, so only the free balance counts here).
	pooled := 0
	for i := range m.shards {
		pooled += m.shards[i].pool.Structs()
		pooled += int(m.shards[i].fastFree.Load())
	}
	if leased := m.chain.Reserved() - m.chain.Used(); leased != pooled {
		return fmt.Errorf("lockmgr: chain leases %d structs beyond use, shard pools + fast credit hold %d", leased, pooled)
	}

	// Contention-profiler sketch cross-check (profiler.go). Under the
	// stopped world every latched recorder is quiescent, so the sketch
	// must be internally consistent with the lock table's own structure:
	// every tracked key homes to the stripe it is filed under (the
	// stripe-by-home-shard discipline all Observe calls follow), no key
	// appears twice in one stripe, no counter is negative, and each
	// stripe's Σ Score never exceeds its lifetime observed blame — the
	// space-saving total identity (takeovers move score between keys,
	// decay only shrinks it).
	if m.hot != nil {
		type stripeKey struct {
			stripe int
			name   Name
		}
		seen := make(map[stripeKey]struct{})
		perStripe := make(map[int]int64)
		for _, e := range m.hot.Entries() {
			if got := m.shardOf(e.Key); got != e.Stripe {
				return fmt.Errorf("lockmgr: hot sketch key %s filed on stripe %d, homes to shard %d", e.Key, e.Stripe, got)
			}
			sk := stripeKey{e.Stripe, e.Key}
			if _, dup := seen[sk]; dup {
				return fmt.Errorf("lockmgr: hot sketch key %s tracked twice on stripe %d", e.Key, e.Stripe)
			}
			seen[sk] = struct{}{}
			if e.Score < 0 || e.Err < 0 {
				return fmt.Errorf("lockmgr: hot sketch key %s has negative score %d / err %d", e.Key, e.Score, e.Err)
			}
			for mi, v := range e.Vals {
				if v < 0 {
					return fmt.Errorf("lockmgr: hot sketch key %s metric %d negative (%d)", e.Key, mi, v)
				}
			}
			perStripe[e.Stripe] += e.Score
		}
		for stripe, sum := range perStripe {
			if lifetime := m.hot.StripeObserved(stripe); sum > lifetime {
				return fmt.Errorf("lockmgr: hot sketch stripe %d scores sum to %d, only %d blame ever observed", stripe, sum, lifetime)
			}
		}
	}
	return nil
}

// checkAppOwners checks every registered owner of app a: its indexes
// (checkOwnerIndexes), its inWait gauge against the waiting sets' count
// inWait, and its cache (checkCache); then a's parked owner, if any: reset
// (parkedErr), registered nowhere, and its cache checked the same way.
// Caller holds every shard latch and ownersMu.
func (m *Manager) checkAppOwners(a *App, inWait map[*Owner]int, waiting map[*request]bool, tabled map[*lockHeader]bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if o := a.parked; o != nil {
		if a.owners == o {
			return fmt.Errorf("lockmgr: app %d parks a registered owner", a.id)
		}
		if err := o.parkedErr(); err != nil {
			return err
		}
		if err := checkCache(o, waiting, tabled); err != nil {
			return err
		}
	}
	for o := a.owners; o != nil; o = o.regNext {
		// o.mu excludes a commit mid-collect (collectDetach mutates the
		// held indexes under o.mu alone) and a fast-path admission popping
		// the cache; every other mutation is under a shard latch, excluded
		// by the stopped world.
		o.mu.Lock()
		err := m.checkOwnerIndexes(o)
		// The latch-free inWait gauge must equal the owner's waiting-set
		// population exactly while every latch is held: increments happen
		// before a request joins a waiting set (under its shard latch) and
		// decrements after it leaves, so with the whole table stopped the
		// two counts coincide.
		if got, want := o.inWait.Load(), int32(inWait[o]); err == nil && got != want {
			err = fmt.Errorf("lockmgr: owner %d inWait gauge %d, waiting sets hold %d", o.id, got, want)
		}
		if err == nil {
			err = checkCache(o, waiting, tabled)
		}
		o.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// checkCache checks o's cache: every cached box zeroed and, by identity,
// in no waiting set or queue (waiting), every cached header unpublished,
// empty and in no shard table (tabled).
func checkCache(o *Owner, waiting map[*request]bool, tabled map[*lockHeader]bool) error {
	for _, b := range o.cache.boxes {
		if !reflect.ValueOf(&b.req).Elem().IsZero() || b.pend.status.Load() != int32(StatusWaiting) || b.pend.wake != nil || waiting[&b.req] {
			return fmt.Errorf("lockmgr: owner %d caches a box that is not zeroed or still waits", o.id)
		}
	}
	for _, h := range o.cache.hdrs {
		if h.published || tabled[h] || !h.empty() || h.word.Load() != 0 {
			return fmt.Errorf("lockmgr: owner %d caches header %v that is published, non-empty or in a shard table", o.id, h.name)
		}
	}
	return nil
}

// checkOwnerIndexes verifies one owner's held index against the lock table
// and its tables entries against held: each held request is reachable under
// its name's hash, granted in its home shard (whose touched bit is set), and
// every per-table row count, structure total and table lock recomputed from
// held equals the stored one exactly — escalation ranks victims by those
// totals without looking at held. Caller holds every shard latch and o.mu.
func (m *Manager) checkOwnerIndexes(o *Owner) error {
	var err error
	o.held.Each(func(req *request) bool {
		name, si := req.name, int(req.hash&m.shardMask)
		h := m.shards[si].header(req.hash, name)
		switch cur, _ := o.heldGet(hashName(name), name); {
		case cur != req || req.hash != hashName(name):
			err = fmt.Errorf("lockmgr: owner %d request for %v is not where its name hashes to", o.id, name)
		case h == nil || h.getGranted(o) != req:
			err = fmt.Errorf("lockmgr: owner %d holds %v not present in table", o.id, name)
		case !o.isTouched(si):
			err = fmt.Errorf("lockmgr: owner %d holds %v in shard %d without touched bit", o.id, name, si)
		case o.tableFor(name.Table) == nil:
			err = fmt.Errorf("lockmgr: owner %d holds %v without a tables entry", o.id, name)
		}
		return err == nil
	})
	for _, ot := range o.tables {
		want := ownerTable{tid: ot.tid} // emptied entries stay behind
		o.held.Each(func(req *request) bool {
			if req.name.Table == ot.tid {
				want.add(req)
			}
			return true
		})
		if err == nil && ot != want {
			err = fmt.Errorf("lockmgr: owner %d table %d entry %+v, held says %+v", o.id, ot.tid, ot, want)
		}
	}
	return err
}
