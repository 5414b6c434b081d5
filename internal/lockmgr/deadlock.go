package lockmgr

import (
	"slices"
	"sort"
)

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
//     immediate predecessor — and a lock's entire queue lives in its home
//     shard, so a single latch suffices. The result is a fuzzy snapshot:
//     shards are sampled at different instants.
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

// waitEdges returns the owners blocking req: its incompatible holders and,
// for a waiter, every converter and its immediate predecessor. Every
// earlier waiter is reachable through the predecessor chain, so the graph
// has a cycle exactly when the "every earlier waiter" edge set does, at
// O(1) edges per waiter. Caller holds req's home shard latch (which owns
// req.header and every request queued on it). Every non-parked wait-list
// member sits on its header's queues, and a header with queued requests
// has a fenced grant word (CheckInvariants checks both), so the granted
// group read here is never one fast ops are writing.
func (m *Manager) waitEdges(req *request) []*Owner {
	return m.appendWaitEdges(nil, req, -1)
}

// appendWaitEdges appends waitEdges(req) to out. i is req's index in its
// header's waiter queue, or -1 to look it up.
func (m *Manager) appendWaitEdges(out []*Owner, req *request, i int) []*Owner {
	h := req.header
	if h == nil {
		return out
	}
	want := req.effectiveMode()
	for _, g := range h.holders {
		if g.owner != req.owner && !Compatible(want, g.mode) {
			out = append(out, g.owner)
		}
	}
	if req.converting {
		return out
	}
	// Queue discipline: a waiter is also behind every converter and its
	// predecessor.
	for _, c := range h.converters {
		if c.owner != req.owner {
			out = append(out, c.owner)
		}
	}
	if i < 0 {
		i = slices.Index(h.waiters, req)
	}
	if i > 0 && h.waiters[i-1].owner != req.owner {
		out = append(out, h.waiters[i-1].owner)
	}
	return out
}

// waitEdge is one observed owner→owner wait: its witness (the waiting
// request), that request's shard and both owner ids ("Deferred references").
// waitGraph reuses it, with to unset, for each waiting request of an owner.
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
	if !via.inWaitList || via.pending == nil || via.parked {
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

// walkWaitEdges is the per-shard edge walk DetectDeadlocks' phase 1 and
// DumpWaiters share: for every waiting request that holds a queue
// position it calls f with the request and its blockers (waitEdges), one
// shard latch at a time. Shards whose published nWaiting mirror reads zero
// are skipped without latching — a shard with no waiters contributes no
// edges, and the mirror's fuzziness is the same fuzziness the per-shard
// walk already has. Each waiter queue is walked from its head by index,
// so a waiter's predecessor is found without a search, and the blockers
// go into one scratch slice reused across calls: f must copy what it
// keeps. f runs under shard si's latch.
func (m *Manager) walkWaitEdges(f func(req *request, si int, blockers []*Owner)) {
	var buf []*Owner
	for i := range m.shards {
		if m.shards[i].nWaiting.Load() == 0 {
			continue
		}
		s := m.lockShard(i)
		for req := s.waitHead; req != nil; req = req.wnext {
			switch {
			case req.parked:
				// Parked requests hold no queue position and export no
				// wait-graph edges.
			case req.converting:
				buf = m.appendWaitEdges(buf[:0], req, -1)
				f(req, i, buf)
			case req.header.waiters[0] == req:
				// The queue head exports its whole waiter queue.
				for j, w := range req.header.waiters {
					buf = m.appendWaitEdges(buf[:0], w, j)
					f(w, i, buf)
				}
			}
		}
		m.unlockShard(s)
	}
}

// exportWaitEdges is DetectDeadlocks' phase 1: every waiting request's
// out-edges, plus one record with to unset per waiting request, read one
// shard latch at a time (walkWaitEdges).
func (m *Manager) exportWaitEdges() []waitEdge {
	var raw []waitEdge
	m.walkWaitEdges(func(req *request, si int, blockers []*Owner) {
		from := req.owner
		raw = append(raw, waitEdge{from: from, fromID: from.id, via: req, si: si})
		for _, to := range blockers {
			raw = append(raw, waitEdge{from: from, to: to, fromID: from.id, toID: to.id, via: req, si: si})
		}
	})
	return raw
}

// DetectDeadlocks finds wait-for cycles and denies one victim per cycle —
// the youngest owner (largest id), whose rollback is presumed cheapest. It
// returns the number of waiting requests denied. Steady-state cost is one
// latch per shard, held briefly and one at a time; the all-shard latch is
// never taken (GlobalRuns does not advance).
func (m *Manager) DetectDeadlocks() int {
	// Phase 1: export each shard's edges under its own latch. The snapshot
	// is fuzzy across shards; phase 3 re-validates everything. An idle
	// lock table detects with zero latch acquisitions.
	raw := m.exportWaitEdges()

	// Phase 2: latch-free DFS over the snapshot graph, collecting each
	// cycle as an explicit edge list.
	g := newWaitGraph(raw)
	cycles := g.cycles()

	// Phase 3: re-validate each candidate cycle under only its own shards'
	// latches; deny the youngest owner of each cycle that survives.
	n := 0
	for _, cyc := range cycles {
		n += m.validateAndBreak(cyc, g)
	}
	m.flushConts()
	return n
}

// waitGraph is phase 1's snapshot, grouped by waiting owner: node k's
// records are recs[first[k]:first[k+1]], one per out-edge plus one with to
// unset per waiting request.
type waitGraph struct {
	idx   map[*Owner]int
	first []int
	recs  []waitEdge
}

// newWaitGraph groups raw by owner with a counting sort, so building the
// graph allocates per pass, not per owner.
func newWaitGraph(raw []waitEdge) *waitGraph {
	g := &waitGraph{idx: make(map[*Owner]int)}
	for _, e := range raw {
		if _, ok := g.idx[e.from]; !ok {
			g.idx[e.from] = len(g.idx)
		}
	}
	g.first = make([]int, len(g.idx)+1)
	for _, e := range raw {
		g.first[g.idx[e.from]+1]++
	}
	for k := 1; k < len(g.first); k++ {
		g.first[k] += g.first[k-1]
	}
	next := slices.Clone(g.first[:len(g.idx)])
	g.recs = make([]waitEdge, len(raw))
	for _, e := range raw {
		k := g.idx[e.from]
		g.recs[next[k]] = e
		next[k]++
	}
	return g
}

// cycles runs DFS over the graph and returns each cycle it closes as the
// edge list around it. Owners that wait on nothing are never nodes, so
// an edge to one is a dead end.
func (g *waitGraph) cycles() [][]waitEdge {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]uint8, len(g.idx))
	pos := make([]int, len(g.idx)) // stack position of grey nodes
	var path []waitEdge            // path[k] enters the stack's (k+1)th node
	var cycles [][]waitEdge
	depth := 0

	var dfs func(k int)
	dfs = func(k int) {
		color[k] = grey
		pos[k] = depth
		depth++
		for _, e := range g.recs[g.first[k]:g.first[k+1]] {
			t, ok := g.idx[e.to]
			if !ok {
				continue // a waiting-request record, or an owner waiting on nothing
			}
			switch color[t] {
			case white:
				path = append(path, e)
				dfs(t)
				path = path[:len(path)-1]
			case grey:
				// Cycle: the path from t down to k plus the closing edge.
				cyc := make([]waitEdge, 0, depth-pos[t])
				cyc = append(cyc, path[pos[t]:]...)
				cycles = append(cycles, append(cyc, e))
			}
		}
		depth--
		color[k] = black
	}
	for k := range color {
		if color[k] == white {
			dfs(k)
		}
	}
	return cycles
}

// validateAndBreak re-checks one candidate cycle under the latches of the
// shards hosting its witness requests and, if every edge still holds,
// denies all waiting requests of the cycle's youngest owner. It returns the
// number of requests denied (0 for a stale cycle).
func (m *Manager) validateAndBreak(cyc []waitEdge, g *waitGraph) int {
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
	k := g.idx[victim] // every owner on a cycle is a graph node
	for _, w := range g.recs[g.first[k]:g.first[k+1]] {
		if w.to != nil {
			continue // an out-edge, not a waiting request
		}
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
