package lockmgr

// Latch-free admission fast path for shared and intent lock modes.
//
// The last three perf passes sharded the table, de-globalized the control
// plane, and made commit O(locks-held) — but every grant still serialized
// on an exclusive shard latch, so the hottest headers in a TPC-C-shaped
// workload (S reads on a shared hot set, the IS/IX table intents every
// transaction takes) collapse onto a handful of latches no matter how many
// shards exist. This file admits compatible requests without the latch.
//
// # The grant word
//
// Each published lockHeader carries a packed 64-bit grant word:
//
//	bit 63      lk     — header spinlock: a fast op owns the header's
//	                     granted-group fields (g0/gmap/groupMode)
//	bit 62      fence  — fast path off: a latched section owns the header,
//	                     or the header state is not fast-representable
//	bits 51–61  seq    — settle counter (anti-ABA belt and braces; bumped
//	                     by every latched settle)
//	bits 48–50  gm     — group mode (Mode fits in 3 bits)
//	bits 32–47  nS     — granted S holders
//	bits 16–31  nIS    — granted IS holders
//	bits 0–15   nIX    — granted IX holders
//
// An unfenced word is a pure function of the header's granted group: it
// exists only when the header has no converters, no waiters, no in-flight
// conversions, and every holder's mode is IS, S or IX (the fast-eligible
// modes) with counts below saturation. Everything else — X/U/SIX holders,
// queued waiters, escalating conversions — fences the word, and fenced
// requests take today's latched path unchanged, preserving FIFO fairness,
// quota accounting, escalation, and deadlock-detection semantics.
//
// # Seal / settle protocol
//
// Latched code obeys one rule: before reading or mutating a published
// header's granted group or queues, it seals the word (sets fence, waiting
// out a fast op's brief lk hold); before releasing the latch it settles
// (recomputes the word from the latched chain state, bumping seq). Between
// seal and settle the latched section owns the header exactly as it did
// before this fast path existed. The seal CAS / settle store on the single
// atomic word also carries the happens-before edges that make the fast
// ops' plain writes to g0/gmap/groupMode visible to latched readers (and
// vice versa), so the -race gate stays green without any extra locking.
//
// Lock ordering: a fast op acquires Owner.mu first and only then spins for
// lk, and an lk holder never blocks on anything else — so a latched seal
// spinning on lk always terminates, even when that seal runs under some
// other owner's mu (startRequest's fast branch).
//
// # Structure accounting: fast credit
//
// Fast grants cannot touch the shard's lease pool (it is latch-guarded),
// so each shard fronts it with a credit counter (fastFree) backed by a
// standing lease (fastLease) the latched path refills via Pool.Lease.
// A fast grant CAS-decrements the credit and calls the shard pool's
// ConsumeReserved — the structures were already reserved at lease time, so
// the chain's Used/Requests sums stay exact, latch-free, and counted on the
// shard's own pool. Latched frees of
// fast-granted requests (ReleaseAll, escalation) return the weight to the
// credit; the global admission pipeline and Resize drain credit back to
// the pool before declaring memory exhausted or shrinking, so fast credit
// never masquerades as memory pressure.
//
// # Publication
//
// Headers are published into a per-shard, latch-free, insert-only table
// (fastSlots: 512 slots, home slot = top 9 hash bits, linear probing) by
// the latched settle, once they prove hot (a table lock, or ≥ 2 holders)
// and fast-eligible. The settle takes the first nil slot along the probe
// chain; the shard latch makes it the table's only writer. Published
// headers are never evicted or recycled — an empty published header stays
// resident with an admitting all-zero word, which is exactly what keeps a
// hot key's grants latch-free across transactions (deferred reclamation,
// per the release design). Publication stops at fastPublishMax (256)
// headers per shard, which bounds residency and keeps the table at most
// half full, so a nil slot ends every miss.
//
// # The gate
//
// runGlobal's "all latches ⇒ the world stands still" contract is restored
// by a Dekker-style gate: fast ops bump a per-shard in-flight counter
// before reading Manager.fastGate; runGlobal raises the gate, takes every
// latch, then waits for the counters to drain. Fast ops that lose the race
// back out having mutated nothing.

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// Grant-word field layout.
const (
	wordLk    = uint64(1) << 63
	wordFence = uint64(1) << 62

	wordSeqShift = 51
	wordSeqMask  = uint64(1)<<11 - 1

	wordGMShift = 48
	wordGMMask  = uint64(7)

	wordCntMask  = uint64(1)<<16 - 1
	wordNSShift  = 32
	wordNISShift = 16
	wordNIXShift = 0
)

// Publication table geometry. Each shard's table has fastSlotsPerShard
// slots; a name's home slot is the top fastSlotBits bits of its hash
// (independent of the shard-selection bits at the bottom), and a lookup
// probes linearly from there. Publication stops at fastPublishMax headers
// per shard — half the slots — so at least one slot is always nil and ends
// every probe that misses. fastPublishMax is also the residency bound:
// published headers are never evicted.
const (
	fastSlotBits      = 9
	fastSlotsPerShard = 1 << fastSlotBits
	fastPublishMax    = fastSlotsPerShard / 2
)

// fastHome maps a name hash to its home slot in the publication table.
func fastHome(hash uint64) int { return int(hash >> (64 - fastSlotBits)) }

// fastLookup returns the header published for name, or nil. Latch-free:
// the table is insert-only and a slot, once set, never changes, so a probe
// that meets a nil slot has seen every header published before it began.
// A header published during the probe may be missed; the caller then takes
// the latched path.
func (s *shard) fastLookup(hash uint64, name Name) *lockHeader {
	for i := fastHome(hash); ; i = (i + 1) & (fastSlotsPerShard - 1) {
		h := s.fastSlots[i].Load()
		if h == nil || h.name == name {
			return h
		}
	}
}

// Fast-credit watermarks: refill the shard's credit toward
// fastCreditChunk structures whenever a latched acquire finds it below
// fastCreditLow (and the shard actually has published headers).
const (
	fastCreditLow   = 32
	fastCreditChunk = 128
)

// fastEligible reports whether a mode can be represented in the grant
// word's holder counts. Exactly the modes whose pairwise compatibility is
// decidable from counts alone: IS is compatible with everything but X,
// S excludes IX, IX excludes S.
func fastEligible(mode Mode) bool {
	return mode == ModeIS || mode == ModeIX || mode == ModeS
}

// wordCounts unpacks the holder counts.
func wordCounts(w uint64) (nS, nIS, nIX uint64) {
	return (w >> wordNSShift) & wordCntMask,
		(w >> wordNISShift) & wordCntMask,
		(w >> wordNIXShift) & wordCntMask
}

// wordGroupMode derives the group mode implied by the counts — the
// supremum fold of the holders, computable directly because nS and nIX can
// never both be non-zero (S and IX are incompatible):
// sup over {IS…}={IS}, {S,IS…}={S}, {IX,IS…}={IX}.
func wordGroupMode(nS, nIS, nIX uint64) Mode {
	switch {
	case nIX > 0:
		return ModeIX
	case nS > 0:
		return ModeS
	case nIS > 0:
		return ModeIS
	default:
		return ModeNone
	}
}

// wordAdmit is the fast-path compatibility predicate: given an unfenced
// grant word, may a new request of mode join the granted group? It must
// agree with Compatible(mode, groupMode) on every reachable word — the
// property test ties it to the compat/sup tables exhaustively.
func wordAdmit(w uint64, mode Mode) bool {
	nS, nIS, nIX := wordCounts(w)
	switch mode {
	case ModeIS:
		return nIS < wordCntMask // saturation forces the latched path
	case ModeS:
		return nIX == 0 && nS < wordCntMask
	case ModeIX:
		return nS == 0 && nIX < wordCntMask
	default:
		return false
	}
}

// wordAdd returns w with one holder of mode added and the group-mode bits
// recomputed. Caller has checked wordAdmit.
func wordAdd(w uint64, mode Mode) uint64 {
	switch mode {
	case ModeIS:
		w += 1 << wordNISShift
	case ModeS:
		w += 1 << wordNSShift
	case ModeIX:
		w += 1 << wordNIXShift
	}
	return wordWithGM(w)
}

// wordSub returns w with one holder of mode removed and the group-mode
// bits recomputed. Caller guarantees the count is non-zero (it holds the
// granted request being released).
func wordSub(w uint64, mode Mode) uint64 {
	switch mode {
	case ModeIS:
		w -= 1 << wordNISShift
	case ModeS:
		w -= 1 << wordNSShift
	case ModeIX:
		w -= 1 << wordNIXShift
	}
	return wordWithGM(w)
}

func wordWithGM(w uint64) uint64 {
	nS, nIS, nIX := wordCounts(w)
	w &^= wordGMMask << wordGMShift
	return w | uint64(wordGroupMode(nS, nIS, nIX))<<wordGMShift
}

// sealFast fences a published header's grant word, waiting out any fast
// op's brief lk hold. Latched sections call it before touching the
// header's granted group or queues; unpublished headers need nothing (the
// fast path cannot reach them). Idempotent. Caller holds the home shard
// latch.
func (m *Manager) sealFast(h *lockHeader) { m.sealFastWord(h) }

// sealFastWord is sealFast returning the sealed word and whether this call
// performed the unfenced→fenced transition. open == true means the word's
// counts were live at the instant of the seal — they are exactly the
// header's granted group (the settle invariant) — which lets the caller
// settle a single holder removal with O(1) word arithmetic instead of an
// O(holders) recompute. (0, false) for unpublished headers, (w, false) when
// the word was already fenced.
func (m *Manager) sealFastWord(h *lockHeader) (w uint64, open bool) {
	if !h.published {
		return 0, false
	}
	for {
		w := h.word.Load()
		if w&wordFence != 0 {
			return w, false
		}
		if w&wordLk != 0 {
			// A fast op owns the header for a few plain stores; it never
			// blocks while holding lk, so this spin is brief even on one
			// core (Gosched lets the holder run).
			runtime.Gosched()
			continue
		}
		if h.word.CompareAndSwap(w, w|wordFence) {
			return w | wordFence, true
		}
	}
}

// settleFast republishes a header's grant word from its latched chain
// state — counts and group mode when the state is fast-representable, a
// fence otherwise — bumping the settle sequence. It also performs first
// publication: a header that has proven hot (table granularity, or ≥ 2
// holders) and fast-eligible is installed in its shard's publication
// table, unless the table already holds fastPublishMax headers. Latched
// sections call it on every header they sealed (or may have mutated)
// before dropping the latch. Caller holds the home shard latch.
func (m *Manager) settleFast(s *shard, h *lockHeader) {
	if !h.published {
		// Publication check. Fail fast for the common unpublishable cases
		// (X/U/SIX headers, single-holder rows) so non-fast workloads pay
		// one or two branches here.
		if !fastEligible(h.groupMode) || h.groupMode == ModeNone {
			return
		}
		if h.name.Gran != GranTable && h.grantedLen() < 2 {
			return
		}
		if len(h.converters) != 0 || len(h.waiters) != 0 {
			return
		}
		if s.fastPublishedN.Load() >= fastPublishMax {
			return // table half full; stay latched
		}
		i := fastHome(hashName(h.name))
		for s.fastSlots[i].Load() != nil {
			i = (i + 1) & (fastSlotsPerShard - 1)
		}
		h.published = true
		h.word.Store(m.recomputeWord(h, h.epoch.Load()&wordSeqMask))
		// Word before slot: a fast op that observes the pointer observes
		// an initialized word (sequentially consistent atomics).
		s.fastSlots[i].Store(h)
		s.fastPublishedN.Add(1)
		return
	}
	// The settle seq is the low 11 bits of the 64-bit epoch, bumped iff the
	// settled word is not S-token-admissible (fenced or nIX > 0). Every
	// grant of a mode incompatible with a token — IX, SIX, U, X — settles
	// to exactly such a word, so no invalidation is ever missed; settles
	// between two open S/IS-only words are compatible count changes
	// (S/IS releases, latched S/IS grants, no-op posts) and must NOT bump,
	// or every commit-release of a real S lock would spuriously kill all
	// outstanding tokens on the header. Bump-then-store keeps the
	// word-seq ≡ epoch&mask identity CheckInvariants enforces: seq and
	// epoch move in lockstep, both or neither.
	nw := m.recomputeWord(h, 0)
	var e uint64
	if nw&wordFence != 0 || (nw>>wordNIXShift)&wordCntMask != 0 {
		e = h.epoch.Add(1)
	} else {
		e = h.epoch.Load()
	}
	h.word.Store(nw | (e&wordSeqMask)<<wordSeqShift)
}

// recomputeWord builds the grant word for h's current latched state: the
// packed counts when every holder is a non-converting IS/S/IX grant and no
// queue exists, a fence otherwise. Caller holds the home shard latch with
// the header sealed (or not yet published).
func (m *Manager) recomputeWord(h *lockHeader, seq uint64) uint64 {
	w := seq << wordSeqShift
	if len(h.converters) != 0 || len(h.waiters) != 0 {
		return w | wordFence
	}
	var nS, nIS, nIX uint64
	bad := false
	h.eachGranted(func(g *request) bool {
		if g.converting || !fastEligible(g.mode) {
			bad = true
			return false
		}
		switch g.mode {
		case ModeIS:
			nIS++
		case ModeS:
			nS++
		case ModeIX:
			nIX++
		}
		return true
	})
	if bad || nS >= wordCntMask || nIS >= wordCntMask || nIX >= wordCntMask {
		return w | wordFence
	}
	return w | uint64(wordGroupMode(nS, nIS, nIX))<<wordGMShift |
		nS<<wordNSShift | nIS<<wordNISShift | nIX<<wordNIXShift
}

// takeFastCredit CAS-claims weight structures from the shard's fast
// credit. Latch-free; never drives the balance negative.
func (s *shard) takeFastCredit(weight int64) bool {
	for {
		v := s.fastFree.Load()
		if v < weight {
			return false
		}
		if s.fastFree.CompareAndSwap(v, v-weight) {
			return true
		}
	}
}

// maybeRefillFastCredit tops the shard's fast credit up to
// fastCreditChunk when it has fallen below the low watermark, leasing from
// the shard pool (which refills from the chain as needed). Called on the
// latched acquire path — the fallbacks a dry credit causes are exactly
// what brings the refill here. Caller holds the shard latch.
func (m *Manager) maybeRefillFastCredit(s *shard) {
	free := s.fastFree.Load()
	if free >= fastCreditLow {
		return
	}
	lease, got := s.pool.Lease(fastCreditChunk - int(free))
	if got > 0 {
		s.fastLease.Absorb(lease)
		s.fastLeaseTotal += got
		s.fastFree.Add(int64(got))
	}
}

// drainFastCredit returns the shard's idle fast credit to its lease pool,
// so the global admission pipeline and the shrink path see it as free.
// Credit backing in-flight fast grants stays leased (their latched free
// will recredit it). Safe against concurrent fast ops: the Swap leaves a
// racing CAS-decrement to observe zero and fall back. Caller holds the
// shard latch.
func (m *Manager) drainFastCredit(s *shard) {
	v := int(s.fastFree.Swap(0))
	if v == 0 {
		return
	}
	h := s.fastLease.Split(v)
	s.fastLeaseTotal -= v
	s.pool.Restore(h)
}

// quotaFastCached is the latch-free quota check: cached percent only,
// with every uncertain case answered "no" so the latched path (which
// refreshes the cache or reads the provider fresh) decides. In
// particular a stride expiry falls back rather than calling the provider
// from the fast path.
func (m *Manager) quotaFastCached(s *shard, app *App, weight int) bool {
	q := m.cfg.Quota
	if q == nil {
		return true
	}
	if prefersEscalation(q, app.id) {
		return false // biased quota; the cache holds the unbiased percent
	}
	if s.pool.Requests() >= s.quotaNext.Load() {
		return false // shard's stride expired; latched path refreshes the cache
	}
	quota := math.Float64frombits(m.quotaPct.Load())
	limit := quota / 100 * float64(m.chain.Capacity())
	return float64(app.structs.Load()+int64(weight)) <= limit
}

// grantedSingleton is the pre-completed Pending every latch-free grant
// returns (a cache hit or a grant-word admission): the grant is decided
// before the caller sees it, so all share one terminal Pending
// (Status/Done are safe on a completed Pending from any number of
// goroutines), and a caller tells a grant from a denial by identity.
var grantedSingleton = func() *Pending {
	p := new(Pending)
	p.complete(StatusGranted, nil)
	return p
}()

// tryFastAcquire attempts to admit a fast-eligible request without the
// shard latch: first through the owner-local re-acquire cache (the owner
// already holds a covering lock — the re-entrant table-intent hits TPC-C
// generates), then through a CAS on the home header's grant word. It
// returns the completed Pending on success and nil when the request must
// take the latched path; installed reports a grant-word admission, which
// installed a request a release can undo (a cache hit installs nothing).
// It mutates nothing when it returns nil. The caller counts a grant in
// fastHits.
func (m *Manager) tryFastAcquire(o *Owner, name Name, mode Mode, weight int, hash uint64, si int, recyclable, sampled bool) (p *Pending, installed bool) {
	s := &m.shards[si]
	// Gate entry before any state is read (Dekker pairing with runGlobal:
	// either we see the raised gate here, or runGlobal's drain waits for
	// our exit).
	s.fastOps.Add(1)
	if m.fastGate.Load() != 0 {
		s.fastOps.Add(-1)
		return nil, false
	}
	p, installed = m.fastAcquireGated(o, name, mode, weight, hash, si, s, recyclable, sampled)
	s.fastOps.Add(-1)
	return p, installed
}

func (m *Manager) fastAcquireGated(o *Owner, name Name, mode Mode, weight int, hash uint64, si int, s *shard, recyclable, sampled bool) (*Pending, bool) {
	o.mu.Lock()
	if o.released {
		o.mu.Unlock()
		p := new(Pending)
		p.complete(StatusDenied, fmt.Errorf("lockmgr: owner %d already released", o.id))
		return p, false
	}
	// Owner-local re-acquire cache: the owner already holds this very lock
	// at a mode at least as strong, or a table lock covering the row. Both
	// checks read only owner-mu-guarded state; a hit writes nothing but
	// its application's grant cell.
	if cur, covered := o.heldCover(name, hash, mode); cur != nil || covered {
		if !covered || cur != nil && cur.converting {
			o.mu.Unlock()
			return nil, false // conversion (or in-flight state): latched path
		}
		o.mu.Unlock()
		m.grants.Writer(o.app.id).Inc()
		return grantedSingleton, false
	}

	// Grant-word CAS admission.
	h := s.fastLookup(hash, name)
	if h == nil {
		o.mu.Unlock()
		return nil, false // name not published (yet); latched path
	}
	if !m.quotaFastCached(s, o.app, weight) {
		o.mu.Unlock()
		return nil, false
	}
	if !s.takeFastCredit(int64(weight)) {
		o.mu.Unlock()
		return nil, false // dry credit; the latched fallback refills it
	}
	var nw uint64
	acquired := false
	for tries := 0; tries < 4; {
		w := h.word.Load()
		if w&wordFence != 0 {
			break // a latched section owns the header (or state is ineligible)
		}
		if w&wordLk != 0 {
			runtime.Gosched() // another fast op's brief hold; not a try
			continue
		}
		if !wordAdmit(w, mode) {
			break
		}
		nw = wordAdd(w, mode)
		if h.word.CompareAndSwap(w, nw|wordLk) {
			acquired = true
			break
		}
		tries++
	}
	if !acquired {
		s.fastFree.Add(int64(weight))
		o.mu.Unlock()
		return nil, false
	}

	// CAS succeeded: we hold lk (exclusive ownership of the header's
	// granted-group fields against other fast ops; latched sections spin
	// in sealFast until the Store below). Finish the grant under
	// lk + o.mu, then release lk by storing the unlocked word.
	if mode == ModeIX {
		// An IX arrival invalidates optimistic S readers but bypasses the
		// seal/settle protocol, so it must bump the reader epoch itself —
		// and mirror the bump into the word's seq bits to keep the
		// word-seq ≡ epoch&mask identity. S/IS admissions skip this: they
		// cannot invalidate any optimistic reader (see optimistic.go's
		// writer-obligations table).
		e := h.epoch.Add(1)
		nw = nw&^(wordSeqMask<<wordSeqShift) | (e&wordSeqMask)<<wordSeqShift
	}
	o.markTouched(si)
	box := o.cache.popBox()
	if box == nil {
		box = m.newBox()
	}
	req := &box.req
	req.owner = o
	req.header = h
	req.name = name
	req.hash = hash
	req.mode = mode
	req.weight = weight
	req.granted = true
	req.fastLeased = true
	req.recyclable = recyclable
	req.obsSampled = sampled
	req.box = box
	// The box's Pending is left untouched (req.pending stays nil, as it
	// would be after m.grant): the outcome is decided right here, so the
	// caller gets the shared pre-completed singleton and the recycler's
	// reset of the pristine Pending is free.
	if sampled {
		req.grantedAt = time.Now()
	}
	h.addGranted(req)
	h.groupMode = Mode((nw >> wordGMShift) & wordGMMask)
	o.held.Insert(hash, req)
	o.tableOrCreate(name.Table).add(req)
	h.word.Store(nw) // release lk; publishes the plain writes above
	o.mu.Unlock()

	// The credit was reserved at lease time; consuming it is two atomic
	// adds on the shard's pool, keeping STMM-facing Used/Requests exact.
	s.pool.ConsumeReserved(weight)
	o.app.structs.Add(int64(weight))
	m.grants.Writer(o.app.id).Inc()
	return grantedSingleton, true
}

// tryFastRelease is the symmetric CAS decrement for a fast-path grant: it
// removes the owner's holder from the grant word and the granted group
// without the shard latch, recrediting the structures. Header reclamation
// is deferred to the latched path — an emptied published header stays
// resident with an admitting word. Returns false when the release must
// take the latched path (not fast-granted, converted to a non-eligible
// mode, fenced, gated); it mutates nothing in that case.
func (m *Manager) tryFastRelease(o *Owner, name Name, hash uint64, si int) bool {
	s := &m.shards[si]
	s.fastOps.Add(1)
	if m.fastGate.Load() != 0 {
		s.fastOps.Add(-1)
		return false
	}
	done := m.fastReleaseGated(o, name, hash, si, s)
	s.fastOps.Add(-1)
	return done
}

func (m *Manager) fastReleaseGated(o *Owner, name Name, hash uint64, si int, s *shard) bool {
	o.mu.Lock()
	req, ok := o.heldGet(hash, name)
	if !ok || !req.granted || req.converting || !req.fastLeased ||
		!fastEligible(req.mode) || req.header == nil || !req.header.published {
		o.mu.Unlock()
		return false
	}
	h := req.header
	var nw uint64
	acquired := false
	for tries := 0; tries < 4; {
		w := h.word.Load()
		if w&wordFence != 0 {
			break
		}
		if w&wordLk != 0 {
			runtime.Gosched()
			continue
		}
		nw = wordSub(w, req.mode)
		if h.word.CompareAndSwap(w, nw|wordLk) {
			acquired = true
			break
		}
		tries++
	}
	if !acquired {
		o.mu.Unlock()
		return false
	}
	if !req.grantedAt.IsZero() {
		held := time.Since(req.grantedAt).Nanoseconds()
		m.holdHist.RecordStripe(si, held)
		req.grantedAt = time.Time{}
		if m.flight != nil {
			m.flightRecord(si, m.clk.Now(), flightRec{kind: flightFastRelease, app: o.app.id,
				name: req.name, mode: req.mode, owner: o.id, val: held})
		}
	}
	h.removeGranted(o)
	h.groupMode = Mode((nw >> wordGMShift) & wordGMMask)
	m.releaseOwnerStateLocked(req)
	req.fastLeased = false
	weight := req.weight
	h.word.Store(nw) // release lk
	o.mu.Unlock()
	s.fastFree.Add(int64(weight))
	s.pool.ReturnReserved(weight)
	o.app.structs.Add(-int64(weight))
	return true
}

// FastPathHits returns the cumulative number of grants admitted without
// the shard latch — owner-local re-acquire cache hits plus grant-word CAS
// admissions. Lock-free.
func (m *Manager) FastPathHits() int64 { return m.fastHits.Total() }

// FastPathFallbacks returns the cumulative number of acquisitions that
// took the latched admission path (including modes the fast path never
// attempts). Hits + fallbacks partition all acquisitions. Lock-free.
func (m *Manager) FastPathFallbacks() int64 { return m.fastFallbacks.Total() }
