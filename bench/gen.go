package main

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/storage"
)

// Input generation. Every session replays a ring of transactions built
// from -seed during set-up; the engine sees only the generated statements.
// Statements of one transaction are ordered by table and rows ascending, so
// every session acquires locks in one global order and no workload can
// deadlock: any abort the benchmark sees is the engine's doing.

// Tables the workloads touch, in catalog (= lock) order.
const (
	tWarehouse = iota
	tDistrict
	tCustomer
	tStock
	tItem
	tOrders
	tOrderLine
	tNewOrder
	tHistory
	tLineitem
	nTables
)

var tableNames = [nTables]string{
	"warehouse", "district", "customer", "stock", "item",
	"orders", "order_line", "new_order", "history", "lineitem",
}

type tableSet [nTables]*storage.Table

func lookupTables(cat *storage.Catalog) (tableSet, error) {
	var ts tableSet
	for i, name := range tableNames {
		if ts[i] = cat.ByName(name); ts[i] == nil {
			return ts, fmt.Errorf("catalog has no table %q", name)
		}
	}
	return ts, nil
}

// Transaction kinds. The first five are the TPC-C mix.
const (
	kNewOrder = iota
	kPayment
	kOrderStatus
	kDelivery
	kStockLevel
	kRead    // readmostly: 16 S rows of the hot set, via RunReadOnly
	kWrite   // readmostly: X on one hot row
	kHot     // hotrow: X on a shared warehouse row, yield while holding
	kBystand // dss_surge: the OLTP sessions beside the scanner
	nKinds
)

var kindNames = [nKinds]string{
	"neworder", "payment", "orderstatus", "delivery", "stocklevel",
	"read", "write", "hot", "bystander",
}

// classes[kind][table] is the Stmt.Class of that statement, built once so
// the timed loop formats nothing.
var classes = func() (c [nKinds][nTables]string) {
	for k := range c {
		for t := range c[k] {
			c[k][t] = kindNames[k] + "." + tableNames[t]
		}
	}
	return
}()

type genStmt struct {
	off    uint32 // into ring.rows
	n      uint16
	table  uint8
	update bool
}

type genTxn struct {
	stmt  uint32 // into ring.stmts
	nstmt uint8
	kind  uint8
}

// ring is one session's pre-generated input, flat so that 2^16
// transactions cost a few megabytes and replaying them allocates nothing.
type ring struct {
	txns  []genTxn
	stmts []genStmt
	rows  []uint64
}

func (r *ring) rowsOf(s genStmt) []uint64 { return r.rows[s.off : s.off+uint32(s.n)] }

func (r *ring) stmtsOf(t genTxn) []genStmt { return r.stmts[t.stmt : t.stmt+uint32(t.nstmt)] }

// hash fingerprints the ring; equal seeds must give equal hashes.
func (r *ring) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, t := range r.txns {
		put(uint64(t.kind)<<40 | uint64(t.nstmt)<<32 | uint64(t.stmt))
	}
	for _, s := range r.stmts {
		u := uint64(0)
		if s.update {
			u = 1
		}
		put(u<<56 | uint64(s.table)<<48 | uint64(s.n)<<32 | uint64(s.off))
	}
	for _, row := range r.rows {
		put(row)
	}
	return h.Sum64()
}

// rng is splitmix64: fixed by this file, so a seed means the same inputs on
// every Go release.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n uint64) uint64 { return r.next() % n }

func sessionRNG(seed int64, session int) rng {
	r := rng(uint64(seed)*0x9e3779b97f4a7c15 + uint64(session)*0xd1b54a32d192ed03)
	r.next()
	return r
}

// builder appends statements to a ring.
type builder struct {
	r  *ring
	ts *tableSet
}

func (b *builder) begin(kind int) {
	b.r.txns = append(b.r.txns, genTxn{stmt: uint32(len(b.r.stmts)), kind: uint8(kind)})
}

// stmt adds one statement over rows (taken modulo the table size, sorted).
func (b *builder) stmt(table int, update bool, rows ...uint64) {
	off := len(b.r.rows)
	for _, row := range rows {
		b.r.rows = append(b.r.rows, row%b.ts[table].Rows)
	}
	added := b.r.rows[off:]
	sort.Slice(added, func(i, j int) bool { return added[i] < added[j] })
	b.r.stmts = append(b.r.stmts, genStmt{off: uint32(off), n: uint16(len(rows)), table: uint8(table), update: update})
	b.r.txns[len(b.r.txns)-1].nstmt++
}

const (
	hotSetRows    = 1024 // readmostly's hot set in item
	readRows      = 16
	hotWarehouses = 4 // hotrow's shared rows
	privateStock  = 1024
)

// genRing builds session's ring of n transactions for the workload.
func genRing(w *workload, ts *tableSet, seed int64, session, n int) *ring {
	rg := sessionRNG(seed, session)
	r := &ring{txns: make([]genTxn, 0, n)}
	b := &builder{r: r, ts: ts}
	scratch := make([]uint64, 0, 64)
	for i := 0; i < n; i++ {
		switch w.name {
		case "tpcc":
			genTPCC(b, &rg, scratch)
		case "readmostly":
			if rg.intn(100) < 95 {
				b.begin(kRead)
				scratch = scratch[:0]
				for j := 0; j < readRows; j++ {
					scratch = append(scratch, rg.intn(hotSetRows))
				}
				b.stmt(tItem, false, scratch...)
			} else {
				b.begin(kWrite)
				b.stmt(tItem, true, rg.intn(hotSetRows))
			}
		case "hotrow":
			b.begin(kHot)
			b.stmt(tWarehouse, true, rg.intn(hotWarehouses))
			base := uint64(session) * privateStock
			scratch = scratch[:0]
			for j := 0; j < 4; j++ {
				scratch = append(scratch, base+rg.intn(privateStock))
			}
			b.stmt(tStock, true, scratch...)
		case "dss_surge":
			b.begin(kBystand)
			b.stmt(tWarehouse, false, rg.intn(ts[tWarehouse].Rows))
			scratch = scratch[:0]
			for j := 0; j < 8; j++ {
				scratch = append(scratch, rg.next())
			}
			b.stmt(tStock, true, scratch...)
		}
	}
	return r
}

// genTPCC appends one transaction of the 45/43/4/4/4 mix. Row addressing
// follows the TPC-C hierarchy (warehouse → district → customer; stock =
// warehouse × item), so conflicts fall on warehouse and district rows.
func genTPCC(b *builder, rg *rng, scratch []uint64) {
	const warehouses = 50
	items := b.ts[tItem].Rows
	w := rg.intn(warehouses)
	d := w*10 + rg.intn(10)
	customer := func(d uint64) uint64 { return d*3000 + rg.intn(3000) }
	pick := rg.intn(100)
	switch {
	case pick < 45:
		b.begin(kNewOrder)
		lines := 5 + int(rg.intn(11))
		order := rg.next() % b.ts[tOrders].Rows
		b.stmt(tWarehouse, false, w)
		b.stmt(tDistrict, true, d)
		b.stmt(tCustomer, false, customer(d))
		its := scratch[:0]
		for i := 0; i < lines; i++ {
			its = append(its, rg.intn(items))
		}
		stock := make([]uint64, 0, 16)
		for _, it := range its {
			stock = append(stock, w*items+it)
		}
		b.stmt(tStock, true, stock...)
		b.stmt(tItem, false, its...)
		b.stmt(tOrders, true, order)
		ol := stock[:0]
		for i := 0; i < lines; i++ {
			ol = append(ol, order*10+uint64(i))
		}
		b.stmt(tOrderLine, true, ol...)
		b.stmt(tNewOrder, true, order)
	case pick < 88:
		b.begin(kPayment)
		b.stmt(tWarehouse, true, w)
		b.stmt(tDistrict, true, d)
		b.stmt(tCustomer, true, customer(d))
		b.stmt(tHistory, true, rg.next())
	case pick < 92:
		b.begin(kOrderStatus)
		order := rg.next() % b.ts[tOrders].Rows
		b.stmt(tCustomer, false, customer(d))
		b.stmt(tOrders, false, order)
		ol := scratch[:0]
		for i, n := 0, 5+int(rg.intn(11)); i < n; i++ {
			ol = append(ol, order*10+uint64(i))
		}
		b.stmt(tOrderLine, false, ol...)
	case pick < 96:
		b.begin(kDelivery)
		var cust, orders, ol []uint64
		for dd := uint64(0); dd < 10; dd++ {
			order := rg.next() % b.ts[tOrders].Rows
			cust = append(cust, customer(w*10+dd))
			orders = append(orders, order)
			for i := uint64(0); i < 5; i++ {
				ol = append(ol, order*10+i)
			}
		}
		b.stmt(tCustomer, true, cust...)
		b.stmt(tOrders, true, orders...)
		b.stmt(tOrderLine, true, ol...)
		b.stmt(tNewOrder, true, orders...)
	default:
		b.begin(kStockLevel)
		b.stmt(tDistrict, false, d)
		rows := scratch[:0]
		for i := 0; i < 20; i++ {
			rows = append(rows, w*items+rg.intn(items))
		}
		b.stmt(tStock, false, rows...)
		rows = rows[:0]
		for i := 0; i < 20; i++ {
			rows = append(rows, rg.next())
		}
		b.stmt(tOrderLine, false, rows...)
	}
}
