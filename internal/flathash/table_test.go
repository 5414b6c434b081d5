package flathash

import (
	"math/rand"
	"testing"
)

// The tests store key+1 as the value (so key 0 is storable) and compare
// keys through the value, the way the table's real users do.

type hashFn func(key uint32) uint64

// Hashes chosen to hurt: everything but mixed piles keys onto a few probe
// runs, and the ones with the top bits set start those runs in the last
// slots of the array, so they wrap around its end.
var hashes = map[string]hashFn{
	"mixed":    func(k uint32) uint64 { return (uint64(k) + 1) * 0x9E3779B97F4A7C15 },
	"constant": func(uint32) uint64 { return 0 },
	"lastslot": func(uint32) uint64 { return ^uint64(0) },
	"three":    func(k uint32) uint64 { return uint64(k%3) << 62 },
	"tail":     func(k uint32) uint64 { return ^uint64(0) - uint64(k%5)<<58 },
	// Equal stored hashes for different keys: only eq can tell them apart.
	"pairs": func(k uint32) uint64 { return uint64(k/2) * 0x9E3779B97F4A7C15 },
}

func find(t *Table[uint32], h hashFn, key uint32) (uint32, bool) {
	return t.Find(h(key), func(v uint32) bool { return v == key+1 })
}

// check compares the table with the reference map in full: size, every
// present key findable (so its tag is its hash's and no empty slot precedes
// it in its probe run), and Each visiting exactly the reference's contents.
func check(t *testing.T, tab *Table[uint32], ref map[uint32]bool, h hashFn) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("Len %d, reference has %d", tab.Len(), len(ref))
	}
	for k := range ref {
		if v, ok := find(tab, h, k); !ok || v != k+1 {
			t.Fatalf("key %d lost: Find = %d, %v", k, v, ok)
		}
	}
	seen := 0
	tab.Each(func(v uint32) bool {
		seen++
		if !ref[v-1] {
			t.Fatalf("Each yields %d, not in the reference", v-1)
		}
		return true
	})
	if seen != len(ref) {
		t.Fatalf("Each visited %d values, reference has %d", seen, len(ref))
	}
}

// runOps replays a byte-coded operation stream against a table and a map.
// Each operation is two bytes: the first picks the operation, the second
// the key (from a small space, so inserts, hits and deletes all happen).
// A non-zero reserve starts the table on an array of reserve*4/3 slots, so
// that it and every doubling of it is not a power of two.
func runOps(t *testing.T, h hashFn, reserve int, ops []byte) {
	t.Helper()
	var tab Table[uint32]
	tab.Reserve(reserve)
	ref := map[uint32]bool{}
	for i := 0; i+1 < len(ops); i += 2 {
		key := uint32(ops[i+1])
		switch op := ops[i] % 16; {
		case op < 8: // insert if absent
			if _, ok := find(&tab, h, key); ok != ref[key] {
				t.Fatalf("op %d: Find(%d) = %v, reference %v", i/2, key, ok, ref[key])
			}
			if !ref[key] {
				tab.Insert(h(key), key+1)
				ref[key] = true
			}
		case op < 14: // delete
			if got := tab.Delete(h(key), key+1); got != ref[key] {
				t.Fatalf("op %d: Delete(%d) = %v, reference %v", i/2, key, got, ref[key])
			}
			delete(ref, key)
		case op == 14:
			tab.Clear()
			clear(ref)
		default:
			check(t, &tab, ref, h)
		}
		if tab.Len() > maxLoad(tab.Slots()) {
			t.Fatalf("op %d: %d values in %d slots", i/2, tab.Len(), tab.Slots())
		}
	}
	check(t, &tab, ref, h)
	// Drain through Delete alone: backward shifts must keep every survivor
	// reachable to the last one.
	for k := range ref {
		if !tab.Delete(h(k), k+1) {
			t.Fatalf("drain: key %d not found", k)
		}
		delete(ref, k)
		check(t, &tab, ref, h)
	}
}

func TestTableAgainstMap(t *testing.T) {
	for name, h := range hashes {
		h := h
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			for round := 0; round < 40; round++ {
				ops := make([]byte, 2*(50+rng.Intn(800)))
				rng.Read(ops)
				runOps(t, h, []int{0, 17, 50}[round%3], ops)
			}
		})
	}
}

func FuzzTable(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 0, 2, 0, 3, 8, 2, 15, 0})
	// Fill past the first growth, delete from the middle of the run, refill.
	fill := make([]byte, 0, 128)
	for k := byte(0); k < 30; k++ {
		fill = append(fill, 0, k)
	}
	for k := byte(5); k < 25; k += 2 {
		fill = append(fill, 8, k)
	}
	for k := byte(40); k < 50; k++ {
		fill = append(fill, 0, k)
	}
	f.Add(uint8(1), fill)
	f.Add(uint8(2), fill)
	f.Add(uint8(4), append(fill, 14, 0, 0, 7, 15, 0))
	f.Add(uint8(140), fill) // 140>>3 = 17 reserved: 23 slots; 140%6: lastslot, every run wrapping
	names := []string{"mixed", "constant", "lastslot", "three", "tail", "pairs"}
	f.Fuzz(func(t *testing.T, which uint8, ops []byte) {
		runOps(t, hashes[names[int(which)%len(names)]], int(which>>3), ops)
	})
}

// TestWraparoundShift pins the backward-shift rule on a run that crosses
// the end of the array: homes 14, 15, 15, 0 occupy slots 14, 15, 0, 1.
func TestWraparoundShift(t *testing.T) {
	var tab Table[uint32]
	tab.Reserve(8) // 16 slots, the minimum: the home slot is the hash's top four bits
	home := func(slot uint64) uint64 { return slot << 60 }
	tab.Insert(home(14), 1)
	tab.Insert(home(15), 2)
	tab.Insert(home(15), 3) // wraps to slot 0
	tab.Insert(home(0), 4)  // pushed to slot 1
	// Deleting the value in slot 15 must pull 3 back from slot 0 (its home
	// is 15) and then 4 back from slot 1 to slot 0 (its home).
	if !tab.Delete(home(15), 2) {
		t.Fatal("value 2 not found")
	}
	for v, h := range map[uint32]uint64{1: home(14), 3: home(15), 4: home(0)} {
		v := v
		if _, ok := tab.Find(h, func(x uint32) bool { return x == v }); !ok {
			t.Fatalf("value %d unreachable after the shift", v)
		}
	}
	if tab.slots[15].val != 3 || tab.slots[0].val != 4 || tab.slots[1].val != 0 {
		t.Fatalf("slots 15, 0, 1 hold %d, %d, %d; want 3, 4, empty",
			tab.slots[15].val, tab.slots[0].val, tab.slots[1].val)
	}
	// A value sitting in its home slot is not pulled across the hole.
	tab.Insert(home(1), 5)
	tab.Delete(home(15), 3)
	if tab.slots[15].val != 0 || tab.slots[0].val != 4 || tab.slots[1].val != 5 {
		t.Fatalf("slots 15, 0, 1 hold %d, %d, %d; want empty, 4, 5",
			tab.slots[15].val, tab.slots[0].val, tab.slots[1].val)
	}
}

func TestGrowDuringEachPanics(t *testing.T) {
	var tab Table[uint32]
	h := hashes["mixed"]
	for k := uint32(0); k < uint32(maxLoad(minSlots)); k++ {
		tab.Insert(h(k), k+1)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Insert grew the table inside Each without panicking")
		}
	}()
	tab.Each(func(uint32) bool {
		tab.Insert(h(1000), 1001)
		return true
	})
}

func TestReserveResetClear(t *testing.T) {
	var tab Table[uint32]
	h := hashes["mixed"]
	tab.Reserve(1000)
	slots := tab.Slots()
	for k := uint32(0); k < 1000; k++ {
		tab.Insert(h(k), k+1)
	}
	if tab.Slots() != slots {
		t.Fatalf("reserved table grew from %d to %d slots", slots, tab.Slots())
	}
	tab.Clear()
	if tab.Len() != 0 || tab.Slots() != slots {
		t.Fatalf("Clear left %d values in %d slots, want 0 in %d", tab.Len(), tab.Slots(), slots)
	}
	if _, ok := find(&tab, h, 7); ok {
		t.Fatal("cleared table still finds key 7")
	}

	// Reset adopts the caller's segment, dirty or not, and grows out of it
	// like out of any other array.
	var seg [8]Slot[uint32]
	seg[3] = Slot[uint32]{99, 99}
	tab.Reset(seg[:])
	if tab.Len() != 0 || tab.Slots() != len(seg) {
		t.Fatalf("Reset left %d values in %d slots", tab.Len(), tab.Slots())
	}
	ref := map[uint32]bool{}
	for k := uint32(0); k < 6; k++ {
		tab.Insert(h(k), k+1)
		ref[k] = true
	}
	if tab.Slots() != len(seg) || seg == [8]Slot[uint32]{} {
		t.Fatalf("6 values should live in the 8-slot segment; table has %d slots", tab.Slots())
	}
	for k := uint32(6); k < 20; k++ {
		tab.Insert(h(k), k+1)
		ref[k] = true
	}
	check(t, &tab, ref, h)
	// Growing out of the segment leaves nothing behind in it: the caller
	// keeps the segment, and a stale pointer there would pin its referent.
	if tab.Slots() == len(seg) || seg != [8]Slot[uint32]{} {
		t.Fatalf("after growth to %d slots the old segment holds %v", tab.Slots(), seg)
	}
}

func TestFindAndInsertDoNotAllocate(t *testing.T) {
	var tab Table[uint32]
	h := hashes["mixed"]
	tab.Reserve(64)
	key := uint32(0)
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			key++
			if _, ok := find(&tab, h, key); !ok {
				tab.Insert(h(key), key+1)
			}
		}
		for i := uint32(0); i < 32; i++ {
			tab.Delete(h(key-i), key-i+1)
		}
	}); n != 0 {
		t.Fatalf("%v allocations per find/insert/delete round, want 0", n)
	}
}
