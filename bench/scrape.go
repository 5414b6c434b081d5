package main

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/obs"
)

// The benchmark reads the engine's counters the way an operator would: it
// renders /metrics and looks families up by name. A family the engine no
// longer exports makes the metrics that depend on it null — not zero, and
// not a compile error — so a later change can delete or rename counters
// without editing this directory.

// num is a float that may be missing. Arithmetic on a missing operand is
// missing.
type num struct {
	v  float64
	ok bool
}

func some(v float64) num { return num{v, true} }

var none = num{}

func (a num) sub(b num) num { return num{a.v - b.v, a.ok && b.ok} }
func (a num) add(b num) num { return num{a.v + b.v, a.ok && b.ok} }
func (a num) mul(b num) num { return num{a.v * b.v, a.ok && b.ok} }

// div is a/b; 0/0 is 0 (nothing happened), x/0 is missing.
func (a num) div(b num) num {
	switch {
	case !a.ok || !b.ok:
		return none
	case b.v == 0 && a.v == 0:
		return some(0)
	case b.v == 0:
		return none
	}
	return some(a.v / b.v)
}

// histogram is one scraped histogram family: cumulative counts by upper
// bound, ascending, the last bound +Inf.
type histogram struct {
	le    []float64
	cum   []float64
	sum   float64
	count float64
}

// scrape is one parsed exposition.
type scrape struct {
	samples map[string][]float64 // family → one value per label set
	hists   map[string]*histogram
}

func scrapeDB(db *engine.Database) *scrape {
	var buf bytes.Buffer
	db.WriteMetrics(obs.NewMetricWriter(&buf))
	return parseMetrics(buf.String())
}

func parseMetrics(text string) *scrape {
	sc := &scrape{samples: map[string][]float64{}, hists: map[string]*histogram{}}
	isHist := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			if f := strings.Fields(line); len(f) == 4 && f[3] == "histogram" {
				isHist[f[2]] = true
			}
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		if base, part, ok := histPart(name, isHist); ok {
			h := sc.hists[base]
			if h == nil {
				h = &histogram{}
				sc.hists[base] = h
			}
			switch part {
			case "_sum":
				h.sum = v
			case "_count":
				h.count = v
			case "_bucket":
				h.le = append(h.le, parseLE(labels))
				h.cum = append(h.cum, v)
			}
			continue
		}
		sc.samples[name] = append(sc.samples[name], v)
	}
	return sc
}

func histPart(name string, isHist map[string]bool) (base, part string, ok bool) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if b := strings.TrimSuffix(name, suf); b != name && isHist[b] {
			return b, suf, true
		}
	}
	return "", "", false
}

func parseLE(labels string) float64 {
	const key = `le="`
	i := strings.Index(labels, key)
	if i < 0 {
		return math.Inf(1)
	}
	rest := labels[i+len(key):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(rest[:j], 64) // ParseFloat reads "+Inf"
	if err != nil {
		return math.Inf(1)
	}
	return v
}

// sum adds a family's samples over its label sets (per-shard vectors).
func (sc *scrape) sum(name string) num {
	vs, ok := sc.samples[name]
	if !ok {
		return none
	}
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return some(t)
}

// max is the largest sample of a family.
func (sc *scrape) max(name string) num {
	vs, ok := sc.samples[name]
	if !ok || len(vs) == 0 {
		return none
	}
	m := vs[0]
	for _, v := range vs[1:] {
		m = math.Max(m, v)
	}
	return some(m)
}

// delta is a counter family's growth between two scrapes.
func delta(before, after *scrape, name string) num {
	return after.sum(name).sub(before.sum(name))
}

// at is the cumulative count at bound le. The engine writes only non-empty
// buckets, so a bound missing from this scrape carries the count below it.
func (h *histogram) at(le float64) float64 {
	i := sort.SearchFloat64s(h.le, le)
	if i < len(h.le) && h.le[i] == le {
		return h.cum[i]
	}
	if i == 0 {
		return 0
	}
	return h.cum[i-1]
}

// histDelta is the histogram of the observations made between two scrapes.
func histDelta(before, after *scrape, name string) *histogram {
	a := after.hists[name]
	if a == nil {
		return nil
	}
	b := before.hists[name]
	if b == nil {
		b = &histogram{}
	}
	d := &histogram{sum: a.sum - b.sum, count: a.count - b.count}
	for i, le := range a.le {
		d.le = append(d.le, le)
		d.cum = append(d.cum, a.cum[i]-b.at(le))
	}
	return d
}

// quantile is the upper bound of the bucket holding the q-th observation
// (the engine's buckets are powers of two, so this is within 2× above).
func (h *histogram) quantile(q float64) num {
	if h == nil || h.count <= 0 || len(h.le) == 0 {
		return none
	}
	rank := q * h.count
	for i, c := range h.cum {
		if c >= rank && c > 0 {
			if math.IsInf(h.le[i], 1) && i > 0 {
				return some(h.le[i-1])
			}
			return some(h.le[i])
		}
	}
	return none
}

func (h *histogram) total() num {
	if h == nil {
		return none
	}
	return some(h.sum)
}

func (h *histogram) n() num {
	if h == nil {
		return none
	}
	return some(h.count)
}
