package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// Spans are recorded by the driver around its own calls into the engine:
// a root span per transaction with engine.Begin, engine.Exec and txn.Commit
// children, plus engine.Tick and engine.TuneOnce from the control plane.
// Every transaction of the traced phase is timed and summed; the last
// spanBudget spans stay in pre-allocated per-session buffers and are
// written out after the run.

const (
	spanTxn = iota
	spanBegin
	spanExec
	spanCommit
	nSpanKinds
)

var spanNames = [nSpanKinds]string{"txn", "engine.Begin", "engine.Exec", "txn.Commit"}

// spanBudget is the number of spans kept over all sessions (≈8 MB of JSON).
const spanBudget = 1 << 16

type span struct {
	start, end int64
	id, parent uint32
	seq        uint32
	rows       uint16
	kind       uint8
	txnKind    uint8
	table      uint8
}

type spanBuf struct {
	session int
	buf     []span
	next    uint32 // id of the next span; ids start at 1
	seq     uint32
	txnKind uint8
	sumNs   [nSpanKinds]int64
	count   [nSpanKinds]int64
}

func (b *spanBuf) init(session, capacity int) {
	if capacity < 256 {
		capacity = 256
	}
	b.session, b.buf, b.next = session, make([]span, capacity), 1
}

func (b *spanBuf) put(s span) uint32 {
	s.id = b.next
	b.buf[int(s.id)%len(b.buf)] = s
	b.next++
	return s.id
}

// open starts a transaction's root span; close fills in its times.
func (b *spanBuf) open(seq int, txnKind uint8) int {
	b.seq, b.txnKind = uint32(seq), txnKind
	return int(b.put(span{kind: spanTxn, seq: b.seq, txnKind: txnKind}))
}

func (b *spanBuf) child(root int, kind int, table uint8, rows int, start, end int64) {
	b.put(span{start: start, end: end, parent: uint32(root), seq: b.seq,
		rows: uint16(rows), kind: uint8(kind), txnKind: b.txnKind, table: table})
	b.sumNs[kind] += end - start
	b.count[kind]++
}

func (b *spanBuf) close(root int, start, end int64) {
	s := &b.buf[root%len(b.buf)]
	if int(s.id) == root {
		s.start, s.end = start, end
	}
	b.sumNs[spanTxn] += end - start
	b.count[spanTxn]++
}

// retained calls f on the spans still in the buffer, oldest first.
func (b *spanBuf) retained(f func(span)) {
	lo := uint32(1)
	if n := uint32(len(b.buf)); b.next > n {
		lo = b.next - n
	}
	for id := lo; id < b.next; id++ {
		if s := b.buf[int(id)%len(b.buf)]; s.id == id && s.end > 0 {
			f(s)
		}
	}
}

// writeTrace writes the retained spans as JSON lines. A transaction's spans
// share its trace id and name their parent.
func (r *run) writeTrace(traced *phase) error {
	if err := os.MkdirAll(r.opt.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(r.opt.outDir, "trace-"+r.opt.w.name+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range r.env.sessions {
		s.spans.retained(func(sp span) {
			fmt.Fprintf(w, `{"trace":"s%d-%d","span":%d,"parent":%d,"name":%q,"session":%d,"seq":%d,"type":%q`,
				s.id, sp.seq, sp.id, sp.parent, spanNames[sp.kind], s.id, sp.seq, kindNames[sp.txnKind])
			if sp.kind == spanExec {
				fmt.Fprintf(w, `,"class":%q,"rows":%d`, classes[sp.txnKind][sp.table], sp.rows)
			}
			fmt.Fprintf(w, `,"start_ns":%d,"end_ns":%d}`+"\n", sp.start, sp.end)
		})
	}
	control := func(name string, calls []call) {
		for i, c := range calls {
			if c.start >= traced.start && c.end <= traced.end {
				fmt.Fprintf(w, `{"trace":"control-%s-%d","span":1,"parent":0,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
					name, i, name, c.start, c.end)
			}
		}
	}
	control("engine.Tick", r.ctl.ticks)
	control("engine.TuneOnce", r.ctl.tuneRuns)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
