// Package flathash is a small open-addressed hash table for paths that
// already hold a 64-bit hash of their key: the lock table's shards and an
// owner's held-lock index probe it once per row lock.
//
// A slot stores a 32-bit tag — the top half of the caller's hash — and a
// value. The key lives in (or behind) the value, and lookups compare it
// through a caller-supplied predicate that runs only when the tag already
// matches. Collisions probe linearly from the slot the tag scales to;
// deletion shifts the rest of the probe run back, so there are no
// tombstones and a table that churns forever never degrades. The slot array
// may have any length: a table told its population up front (Reserve) takes
// four slots per three values and not a power of two above that; one that
// grows doubles at three-quarters full. It never shrinks on its own. With a
// 4-byte value a slot is 8 bytes, eight to a cache line.
//
// The zero V marks an empty slot, so callers never store it: pointers are
// never nil, integer positions are stored off by one. A fresh slot array is
// all zeros, which a large preallocation gets from the operating system
// without touching a page.
//
// A Table is not safe for concurrent use; each user guards it with the lock
// that already guards what it indexes.
package flathash

// Slot is one cell of a Table, exported only so that a caller can lay a
// first segment out inline in its own struct and hand it to Reset.
type Slot[V comparable] struct {
	tag uint32
	val V
}

// tagOf is the part of a hash the table keeps. Callers that stripe by the
// hash's low bits, as the lock table does across shards, leave the table
// the bits that still differ within a stripe.
func tagOf(hash uint64) uint32 { return uint32(hash >> 32) }

// minSlots is the size of the first array a table allocates itself.
const minSlots = 16

// maxLoad is how many values a slot array holds before Insert doubles it.
func maxLoad(slots int) int { return slots - slots/4 }

// Table maps 64-bit hashes, plus a caller-side key comparison, to values.
// The zero Table is empty and ready to use.
type Table[V comparable] struct {
	slots     []Slot[V]
	n         int
	iterating bool // Each is running: growing would strand it on the old array
}

// home is the slot a tag's probe run starts at: the tag scaled from
// [0, 2^32) to [0, len(slots)), which needs no power of two.
func (t *Table[V]) home(tag uint32) int {
	return int(uint64(tag) * uint64(len(t.slots)) >> 32)
}

// next is the slot after i, cyclically.
func (t *Table[V]) next(i int) int {
	if i++; i == len(t.slots) {
		return 0
	}
	return i
}

// Len returns the number of values stored.
func (t *Table[V]) Len() int { return t.n }

// Slots returns the size of the slot array: what Clear zeroes and what an
// empty table still holds.
func (t *Table[V]) Slots() int { return len(t.slots) }

// Reset empties the table onto seg (at least 4 slots, zeroed here) as its
// slot array, dropping the one it had. A pooled table's owner uses it to fall
// back to an inline segment after one large use, so that later ones do not
// clear that array.
func (t *Table[V]) Reset(seg []Slot[V]) {
	clear(seg)
	t.slots, t.n = seg, 0
}

// Clear removes every value and keeps the slot array.
func (t *Table[V]) Clear() {
	if t.n != 0 {
		clear(t.slots)
		t.n = 0
	}
}

// Reserve makes room for n values: no Insert up to that count allocates.
func (t *Table[V]) Reserve(n int) {
	if slots := max(n+(n+2)/3, minSlots); slots > len(t.slots) {
		t.rehash(slots)
	}
}

// Find returns the value stored under hash for which eq reports true. eq is
// called only for values whose tag matches hash's.
func (t *Table[V]) Find(hash uint64, eq func(V) bool) (V, bool) {
	var zero V
	if t.n == 0 {
		return zero, false
	}
	tag := tagOf(hash)
	for i := t.home(tag); ; i = t.next(i) {
		s := &t.slots[i]
		if s.val == zero {
			return zero, false
		}
		if s.tag == tag && eq(s.val) {
			return s.val, true
		}
	}
}

// Insert stores v, which is not the zero V, under hash. The caller has
// established, usually by the Find that just missed, that its key is absent.
func (t *Table[V]) Insert(hash uint64, v V) {
	var zero V
	if v == zero {
		panic("flathash: the zero value marks an empty slot")
	}
	if t.n >= maxLoad(len(t.slots)) {
		t.rehash(max(2*len(t.slots), minSlots))
	}
	t.place(tagOf(hash), v)
	t.n++
}

// place writes (tag, v) into the first free slot of tag's probe run.
func (t *Table[V]) place(tag uint32, v V) {
	var zero V
	i := t.home(tag)
	for t.slots[i].val != zero {
		i = t.next(i)
	}
	t.slots[i] = Slot[V]{tag, v}
}

func (t *Table[V]) rehash(slots int) {
	if t.iterating {
		panic("flathash: table grown during Each")
	}
	old := t.slots
	t.slots = make([]Slot[V], slots)
	var zero V
	for _, s := range old {
		if s.val != zero {
			t.place(s.tag, s.val)
		}
	}
	// The old array may be a caller's inline segment, which outlives this
	// call: left as it is, it would keep every value it held reachable.
	clear(old)
}

// Delete removes v, stored under hash, and reports whether it was present.
// Values are compared directly: a value is in the table at most once.
func (t *Table[V]) Delete(hash uint64, v V) bool {
	var zero V
	if t.n == 0 || v == zero {
		return false
	}
	i := t.home(tagOf(hash))
	for t.slots[i].val != v {
		if t.slots[i].val == zero {
			return false
		}
		i = t.next(i)
	}
	// Backward shift: walk the rest of the run and pull back every value
	// whose own probe path passes through the hole, which then moves to
	// where that value was. A value between its home and the hole stays.
	for j := t.next(i); t.slots[j].val != zero; j = t.next(j) {
		if t.dist(t.home(t.slots[j].tag), j) >= t.dist(i, j) {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = Slot[V]{}
	t.n--
	return true
}

// dist is the number of probe steps from slot a to slot b.
func (t *Table[V]) dist(a, b int) int {
	if b < a {
		b += len(t.slots)
	}
	return b - a
}

// Each calls f with every stored value, in slot order, until f returns
// false. f must not insert or delete.
func (t *Table[V]) Each(f func(v V) bool) {
	var zero V
	t.iterating = true
	for i := range t.slots {
		if v := t.slots[i].val; v != zero && !f(v) {
			break
		}
	}
	t.iterating = false
}
