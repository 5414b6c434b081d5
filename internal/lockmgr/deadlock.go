package lockmgr

import "sort"

// Deadlock detection: a periodic waits-for-graph sweep, complementing lock
// wait timeouts. Escalations to exclusive table locks readily produce
// convert deadlocks (two holders of IX both upgrading to X), which is part
// of why Figure 8's throughput collapses; the detector keeps the simulated
// system live enough to measure rather than wedging entirely.
//
// # Concurrent (epoch-snapshot) detection
//
// The sweep used to be stop-the-world: runGlobal latched every shard so the
// graph was one consistent cut, periodically freezing the fast path the
// sharding had just unblocked. It now runs in three phases and never takes
// the all-shard latch:
//
//  1. Export. Each shard's wait-for edges (waiting request → blocking
//     owners) are read under that shard's latch alone. waitEdges only
//     touches the request's header — granted group, converter queue,
//     earlier waiters — and a lock's entire queue lives in its home shard,
//     so a single latch suffices. The result is a fuzzy snapshot: shards
//     are sampled at different instants.
//  2. Search. The owner-level graph is assembled and DFS cycle detection
//     runs with no latches held at all. Each candidate cycle is kept as an
//     explicit edge list, every edge carrying the waiting request that
//     witnessed it.
//  3. Re-validation. A fuzzy snapshot can contain phantom cycles (an edge
//     observed in shard A may be gone by the time shard B is sampled), so
//     no one is denied on snapshot evidence. For each candidate cycle the
//     detector latches just the home shards of the cycle's witness
//     requests — a handful, taken in ascending index order like every
//     multi-shard path — and recomputes every edge fresh. Only if all
//     edges hold simultaneously under those latches does the cycle exist
//     at that instant, and a wait cycle that exists at an instant is a
//     genuine deadlock: no false victims. Any edge that evaporated (a
//     grant, release, timeout, or cancellation beat the detector) voids
//     the cycle at the cost of a few latch acquisitions; a real deadlock
//     is permanent and will validate on this pass or the next.
//
// The victim policy is unchanged: the youngest owner (largest id) on each
// validated cycle is denied — all of its waiting requests, each counted —
// and its granted locks survive (a denied conversion reverts to its granted
// mode), so the transaction layer can roll it back.

// waitEdges returns the owners blocking req. Caller holds req's home shard
// latch (which owns req.header and every request queued on it); no other
// latches are needed.
func (m *Manager) waitEdges(req *request) []*Owner {
	h := req.header
	if h == nil {
		return nil
	}
	var out []*Owner
	want := req.effectiveMode()
	h.eachGranted(func(g *request) bool {
		if g.owner != req.owner && !Compatible(want, g.mode) {
			out = append(out, g.owner)
		}
		return true
	})
	if !req.converting {
		// FIFO discipline: a waiter is also behind every converter and
		// every earlier waiter.
		for _, c := range h.converters {
			if c.owner != req.owner {
				out = append(out, c.owner)
			}
		}
		for _, w := range h.waiters {
			if w == req {
				break
			}
			if w.owner != req.owner {
				out = append(out, w.owner)
			}
		}
	}
	return out
}

// waitEdge is one observed owner→owner wait: its witness (the waiting
// request), that request's shard and both owner ids ("Deferred references").
// waitingBy reuses it, with to unset, for each waiting request of an owner.
type waitEdge struct {
	from, to     *Owner
	fromID, toID uint64
	via          *request
	si           int
}

// stillWaiting reports whether via is still a live queued request. Caller
// holds via's home shard latch and knows via is in that shard's waiting
// set, so its fields are safe to read.
func (m *Manager) stillWaiting(via *request) bool {
	if !via.inWaitList || via.pending == nil || via.parked || via.culled {
		return false
	}
	st, _ := via.pending.Status()
	return st == StatusWaiting
}

// blocksOn reports whether via (still waiting) is currently blocked by
// owner to. Caller holds via's home shard latch.
func (m *Manager) blocksOn(via *request, to *Owner) bool {
	for _, o := range m.waitEdges(via) {
		if o == to {
			return true
		}
	}
	return false
}

// liveEdge reports whether snapshot edge e holds now: identity proves the
// witness still waits in shard e.si before its fields are read, and the
// owner ids rule out a reused owner. Caller holds shard e.si's latch.
func (m *Manager) liveEdge(e waitEdge) bool {
	return m.shards[e.si].holdsWaiter(e.via) && e.via.owner == e.from && e.from.id == e.fromID &&
		m.stillWaiting(e.via) && m.blocksOn(e.via, e.to) && e.to.id == e.toID
}

// DetectDeadlocks finds wait-for cycles and denies one victim per cycle —
// the youngest owner (largest id), whose rollback is presumed cheapest. It
// returns the number of waiting requests denied. Steady-state cost is one
// latch per shard, held briefly and one at a time; the all-shard latch is
// never taken (GlobalRuns does not advance).
func (m *Manager) DetectDeadlocks() int {
	// Phase 1: export each shard's edges under its own latch. Shards whose
	// published nWaiting mirror reads zero are skipped without latching —
	// a shard with no waiters contributes no edges, and the mirror's
	// fuzziness is the same fuzziness the per-shard export already has
	// (phase 3 re-validates everything). An idle lock table detects with
	// zero latch acquisitions.
	edges := make(map[*Owner]map[*Owner]waitEdge)
	waitingBy := make(map[*Owner][]waitEdge)
	for i := range m.shards {
		if m.shards[i].nWaiting.Load() == 0 {
			continue
		}
		s := m.lockShard(i)
		for req := s.waitHead; req != nil; req = req.wnext {
			if req.parked || req.culled {
				// Parked and culled requests hold no queue position and
				// export no wait-graph edges. Culled waiters regain
				// visibility at reactivation; the SweepTimeouts valve
				// bounds how long that can take (throttle.go).
				continue
			}
			from := req.owner
			waitingBy[from] = append(waitingBy[from], waitEdge{from: from, fromID: from.id, via: req, si: i})
			for _, to := range m.waitEdges(req) {
				set := edges[from]
				if set == nil {
					set = make(map[*Owner]waitEdge)
					edges[from] = set
				}
				if _, ok := set[to]; !ok { // first witness wins; any suffices
					set[to] = waitEdge{from: from, to: to, fromID: from.id, toID: to.id, via: req, si: i}
				}
			}
		}
		m.unlockShard(s)
	}

	// Phase 2: latch-free DFS over the snapshot graph, collecting each
	// cycle as an explicit edge list.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[*Owner]int)
	index := make(map[*Owner]int) // stack position of grey owners
	var stack []*Owner
	var cycles [][]waitEdge

	var dfs func(o *Owner)
	dfs = func(o *Owner) {
		color[o] = grey
		index[o] = len(stack)
		stack = append(stack, o)
		for to, e := range edges[o] {
			switch color[to] {
			case white:
				dfs(to)
			case grey:
				// Cycle: the stack segment from to..o plus the closing
				// edge o→to. Consecutive stack entries are connected by
				// the edges DFS descended through.
				seg := stack[index[to]:]
				cyc := make([]waitEdge, 0, len(seg))
				for k := 0; k+1 < len(seg); k++ {
					cyc = append(cyc, edges[seg[k]][seg[k+1]])
				}
				cyc = append(cyc, e)
				cycles = append(cycles, cyc)
			}
		}
		stack = stack[:len(stack)-1]
		delete(index, o)
		color[o] = black
	}
	for o := range edges {
		if color[o] == white {
			dfs(o)
		}
	}

	// Phase 3: re-validate each candidate cycle under only its own shards'
	// latches; deny the youngest owner of each cycle that survives.
	n := 0
	for _, cyc := range cycles {
		n += m.validateAndBreak(cyc, waitingBy)
	}
	m.flushConts()
	return n
}

// validateAndBreak re-checks one candidate cycle under the latches of the
// shards hosting its witness requests and, if every edge still holds,
// denies all waiting requests of the cycle's youngest owner. It returns the
// number of requests denied (0 for a stale cycle).
func (m *Manager) validateAndBreak(cyc []waitEdge, waitingBy map[*Owner][]waitEdge) int {
	// Collect the distinct home shards of the cycle's witnesses and latch
	// them in ascending order — the same protocol runGlobal uses, so
	// concurrent global sections and other validations cannot deadlock
	// against us.
	shardSet := make(map[int]struct{}, len(cyc))
	for _, e := range cyc {
		shardSet[e.si] = struct{}{}
	}
	shards := make([]int, 0, len(shardSet))
	for i := range shardSet {
		shards = append(shards, i)
	}
	sort.Ints(shards)
	for _, i := range shards {
		m.lockShard(i)
	}
	unlatch := func() {
		for k := len(shards) - 1; k >= 0; k-- {
			m.shards[shards[k]].mu.Unlock()
		}
	}

	// Every edge must hold simultaneously under the held latches;
	// otherwise some transaction in the candidate made progress and there
	// is no deadlock here now.
	var victim *Owner
	var vid uint64
	for _, e := range cyc {
		if !m.liveEdge(e) {
			unlatch()
			return 0
		}
		if victim == nil || e.fromID > vid {
			victim, vid = e.from, e.fromID
		}
	}

	// The cycle is proven. Deny the victim's waiting requests: those homed
	// in already-latched shards now, the rest after unlatching (each under
	// its own shard latch). The victim's in-cycle witness is necessarily in
	// a latched shard, so the cycle is broken before the latches drop.
	n := 0
	var rest []waitEdge
	for _, w := range waitingBy[victim] {
		if _, held := shardSet[w.si]; !held {
			rest = append(rest, w)
			continue
		}
		n += m.denyVictimReq(victim, vid, w)
	}
	unlatch()
	for _, w := range rest {
		s := m.lockShard(w.si)
		n += m.denyVictimReq(victim, vid, w)
		m.unlockShard(s)
	}
	return n
}

// denyVictimReq denies one waiting request of victim v (id vid) and
// updates the counters. Caller holds shard w.si's latch.
func (m *Manager) denyVictimReq(v *Owner, vid uint64, w waitEdge) int {
	// An earlier denial may have granted snapshot requests, and a finished
	// one's box or owner may serve another transaction: revalidate.
	r := w.via
	if w.fromID != vid || !m.shards[w.si].holdsWaiter(r) || r.owner != v || v.id != vid || !m.stillWaiting(r) {
		return 0
	}
	m.stats.deadlocks.Add(1)
	if m.cfg.Events != nil {
		m.cfg.Events.OnDeadlockVictim(v.app.id, v.id)
	}
	m.deny(r, ErrDeadlock)
	return 1
}
