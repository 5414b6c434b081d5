package memblock

import "testing"

// Tests for per-pool accounting: each Pool counts the structures it puts
// to use and the requests it serves, and the chain's Used/Requests are the
// chain's direct count plus the sum over its pools.

// checkTotals asserts the STMM-facing identities and the expected sums.
func checkTotals(t *testing.T, c *Chain, used int, requests int64) {
	t.Helper()
	if got := c.Used(); got != used {
		t.Fatalf("Used = %d, want %d", got, used)
	}
	if got := c.Requests(); got != requests {
		t.Fatalf("Requests = %d, want %d", got, requests)
	}
	if u, f, cp := c.Used(), c.FreeStructs(), c.Capacity(); u+f != cp {
		t.Fatalf("Used %d + FreeStructs %d != Capacity %d", u, f, cp)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolAccountingSumsAcrossPools(t *testing.T) {
	c := New(2 * BlockPages)
	pools := []*Pool{c.NewPool(16), c.NewPool(16), c.NewPool(16)}

	// Allocations spread over the pools, plus one served by the chain.
	var hs []Handle
	for i, p := range pools {
		h, ok := p.Alloc(i + 1)
		if !ok {
			t.Fatalf("pool %d: alloc failed", i)
		}
		hs = append(hs, h)
	}
	direct, err := c.Alloc(5)
	if err != nil {
		t.Fatal(err)
	}
	checkTotals(t, c, 1+2+3+5, 4)
	for i, p := range pools {
		if got := p.Requests(); got != 1 {
			t.Fatalf("pool %d served %d requests, want 1", i, got)
		}
	}

	// A standing lease consumed and returned through ConsumeReserved /
	// ReturnReserved: usage and requests move on the pool, the blocks
	// were accounted at lease time.
	lease, got := pools[1].Lease(8)
	if got != 8 {
		t.Fatalf("leased %d structures, want 8", got)
	}
	pools[1].ConsumeReserved(3)
	pools[1].ConsumeReserved(2)
	checkTotals(t, c, 11+5, 6)
	pools[1].ReturnReserved(5)
	checkTotals(t, c, 11, 6)
	pools[1].Restore(lease)

	// The chain-direct allocation freed through a pool: that pool's own
	// count goes negative, the sum stays exact.
	pools[2].Free(direct)
	if got := pools[2].used.Load(); got != 3-5 {
		t.Fatalf("pool 2 used = %d after freeing a chain allocation, want %d", got, 3-5)
	}
	checkTotals(t, c, 6, 6)

	for i, p := range pools {
		p.Free(hs[i])
		p.Flush()
	}
	checkTotals(t, c, 0, 6)
	if got := c.Reserved(); got != 0 {
		t.Fatalf("Reserved = %d after every pool flushed", got)
	}
}

// TestPoolMethodsLeaveChainCounters is the white-box half: every Pool
// method counts on the pool alone and never writes the chain's own used or
// requests counters — the shared lines a per-lock step must not touch.
func TestPoolMethodsLeaveChainCounters(t *testing.T) {
	c := New(BlockPages)
	direct, err := c.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	used0, req0 := c.used.Load(), c.requests.Load()
	p, q := c.NewPool(8), c.NewPool(0)

	h, _ := p.Alloc(3)
	h2, _ := q.Alloc(1)
	n := p.FreeBatched(h)
	p.SettleFree(n)
	q.Free(h2)
	lease, _ := q.Lease(20)
	q.ConsumeReserved(4)
	q.ReturnReserved(4)
	q.Restore(lease)
	p.Flush()
	q.Flush()

	if got, req := c.used.Load(), c.requests.Load(); got != used0 || req != req0 {
		t.Fatalf("chain counters moved under pool methods: used %d→%d, requests %d→%d", used0, got, req0, req)
	}
	checkTotals(t, c, 2, 1+3)
	c.Free(direct)
	checkTotals(t, c, 0, 4)
}
