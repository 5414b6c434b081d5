package lockmgr

// Zero-CAS optimistic reads: the seqlock tier above the latch-free CAS
// fast path.
//
// PR 5's CAS admission removed the shard latch from the read path but kept
// one shared write per grant — the CAS on the header's grant word — so
// every S admission on a hot header still bounces that cacheline between
// cores. This tier removes the last shared write: an S (or IS) request on
// a quiescent published header performs a pure read-side seqlock
// transaction. The reader
//
//  1. observes the header's 64-bit epoch, then its grant word;
//  2. admits itself only if the word is quiescent for its mode — no lk, no
//     fence (the fence bit plays the classic "seq is odd" role: a latched
//     section owns the header), and no granted mode incompatible with the
//     read (for S: no IX holders; X/U/SIX holders and queues always fence);
//  3. runs its critical section holding only an epoch-stamped OptToken —
//     no holder count was incremented, no credit consumed, no owner state
//     written;
//  4. validates at release: the word must still be quiescent and the
//     epoch unchanged. Release of a validated token is a no-op — there is
//     nothing to decrement.
//
// Validation is sound because of the writer-side protocol: every
// transition that could invalidate a reader bumps the header's epoch
// before the reader could re-observe a quiescent word.
//
// # Writer seq-bump obligations
//
// A latched settle bumps the epoch iff the settled word is not
// S-token-admissible — fenced, or carrying IX weight. Every grant of a
// mode incompatible with a token (IX, SIX, U, X; queues and converters
// fence too) settles to exactly such a word, so no invalidation is ever
// missed; a settle between two open S/IS-only words is a compatible count
// change and leaves outstanding tokens standing.
//
//	transition                        path      invalidates      bump
//	------------------------------    -------   -------------    ------------------
//	X/U/SIX grant, queue, convert     latched   S and IS         seal fences; settle
//	                                                             bumps epoch+seq
//	latched IX grant                  latched   S (IS over-      settle bumps (word
//	                                            approximated)    carries IX weight)
//	escalation to X / fence-keeping   latched   S and IS         seal + settle bump
//	settle (resize, post with queue)
//	latched S/IS release or grant,    latched   none             none (open S/IS-only
//	open-word settle                                             word; epoch+seq keep)
//	X/U/SIX release (reopens word)    latched   none (the        none
//	                                            grant bumped)
//	fast CAS IX admission             CAS       S                explicit epoch+seq
//	                                                             bump under lk
//	fast CAS S/IS admit/release       CAS       none             none (counts only)
//	fast CAS IX release               CAS       none             none (the paired
//	                                                             admission bumped)
//
// The word's 11-bit settle seq is defined as the low 11 bits of the 64-bit
// epoch (CheckInvariants enforces the identity with the world stopped —
// seq and epoch move in lockstep, both or neither), so >2048 invalidating
// transitions inside one read window — which wrap the packed seq back to a
// bit-identical word — still fail validation: the epoch comparison is
// full-width and cannot ABA. Bumps that do not logically invalidate a
// given token (an IX admission seen by an IS token, a fenced resize) cause
// a spurious invalidation, never a missed one, and cost only a retry.
//
// Tokens deliberately bypass every accounting structure: no owner held-set
// entry, no lock structure, no fast credit, no app quota charge. That is
// what makes the read path write-free — and it is safe because a token is
// not a lock: it is a verdict, decided at validation time, that an S lock
// *would have been held* for the whole window. A failed validation means
// the verdict is "no" and the caller must retry through the locking tiers
// (the CAS fast path, then the latched path). The readonly transaction
// level in internal/txn packages that retry loop.
//
// Published headers are never evicted or recycled (deferred reclamation),
// so the header pointer inside a token stays valid for arbitrarily long
// windows; a stale token is invalid, never dangling.

import (
	"runtime"

	"repro/internal/obs"
)

// OptToken is an epoch-stamped optimistic read token: evidence that mode
// was admissible on its header when issued, validated (or refuted) by
// ValidateOptimistic. The zero OptToken validates false. It keeps to four
// fields, so the compiler passes it in registers.
type OptToken struct {
	h     *lockHeader
	epoch uint64
	mode  Mode
	app   int32 // the reading application's id, whose cell counts a failure
}

// Valid reports whether the token was issued (non-zero). It says nothing
// about whether the token will pass validation.
func (t OptToken) Valid() bool { return t.h != nil }

// wordOptAdmit reports whether an unfenced, unlocked grant word admits an
// optimistic reader of mode: for S no IX holder may be granted (S–IX
// conflict is the only one representable in an unfenced word); for IS the
// fence already excludes every conflicting mode (X, and the U/SIX holders
// that fence the word). Caller has checked lk and fence.
func wordOptAdmit(w uint64, mode Mode) bool {
	if mode == ModeS {
		return (w>>wordNIXShift)&wordCntMask == 0
	}
	return mode == ModeIS
}

// TryOptimisticRead attempts to issue a zero-CAS optimistic read token for
// mode (ModeS or ModeIS) on name, read by application a. It writes no
// line another application writes: the hit is counted in a's own counter
// cell, and there is no CAS, no holder-count increment, no owner or
// credit mutation. ok == false means the caller must fall back to the
// locking tiers (AcquireAsync: CAS fast path, then latched); nothing was
// mutated.
func (m *Manager) TryOptimisticRead(a *App, name Name, mode Mode) (OptToken, bool) {
	if mode != ModeS && mode != ModeIS {
		return OptToken{}, false
	}
	hash := hashName(name)
	si := int(hash & m.shardMask)
	s := &m.shards[si]
	if s.fastPublishedN.Load() == 0 {
		return OptToken{}, false
	}
	h := s.fastLookup(hash, name)
	if h == nil {
		return OptToken{}, false
	}
	// Epoch before word (seqlock read order): a settle that lands between
	// the two loads bumped the epoch first, so validation still catches it.
	e := h.epoch.Load()
	w := h.word.Load()
	if w&(wordLk|wordFence) != 0 || !wordOptAdmit(w, mode) {
		return OptToken{}, false
	}
	m.optHits.Writer(a.id).Inc()
	return OptToken{h: h, epoch: e, mode: mode, app: int32(a.id)}, true
}

// ValidateOptimistic closes an optimistic read window: it reports whether
// the token's header stayed quiescent for the token's mode — epoch
// unchanged and word still admitting — for the whole window. true means
// the read stands as if an S/IS lock had been held throughout; the release
// is thereby a no-op (no holder count was ever incremented). false means a
// writer, fence, or seq wrap intervened; the failure counter is bumped and
// the caller must rerun the read through the locking tiers.
func (m *Manager) ValidateOptimistic(t OptToken) bool {
	if t.h == nil {
		return false
	}
	// Word before epoch: a fast IX admission bumps the epoch under lk
	// before its releasing store, so a quiescent word here with an
	// unchanged epoch proves no invalidating transition completed — and an
	// in-flight one still shows lk or fence. A brief lk hold by a harmless
	// S/IS fast op is waited out rather than failed.
	var w uint64
	for spins := 0; ; spins++ {
		w = t.h.word.Load()
		if w&wordLk == 0 || spins >= 8 {
			break
		}
		runtime.Gosched()
	}
	if w&(wordLk|wordFence) != 0 || !wordOptAdmit(w, t.mode) || t.h.epoch.Load() != t.epoch {
		m.optFailures.Writer(int(t.app)).Inc()
		// Blame the lock for the wasted optimistic read (latch-free — the
		// sketch's CAS path tolerates racing validators).
		m.hot.Observe(m.shardOf(t.h.name), t.h.name, hotEventBlameNs, obs.HotOptFailures, 1)
		return false
	}
	return true
}

// OptimisticHits returns the cumulative number of optimistic read tokens
// issued. Lock-free.
func (m *Manager) OptimisticHits() int64 { return m.optHits.Total() }

// OptimisticFailures returns the cumulative number of optimistic read
// tokens that failed validation. Lock-free.
func (m *Manager) OptimisticFailures() int64 { return m.optFailures.Total() }
