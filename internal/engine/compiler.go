package engine

import (
	"maps"
	"sync"
	"sync/atomic"
)

// Compiler is the SQL plan-choice stub of section 3.6. The query optimizer
// only needs a *stable, generous* estimate of available lock memory —
// sqlCompilerLockMem = 10% of database memory — so that plans keep choosing
// row locking and leave the runtime tuner room to avoid escalation. Exposing
// the instantaneous allocation instead would bake table locking into plans
// compiled at a low-memory moment.
//
// With learning enabled (the section 6.1 future-work extension) the compiler
// also tracks the actual lock footprint per statement class and uses an
// exponentially weighted average of observations instead of the optimizer's
// a-priori estimate.
//
// Every statement consults the compiler, from every session, so reads take
// no lock: viewPages and learning never change, and the learned footprints
// are an immutable map behind an atomic pointer, which Observe replaces
// with an updated copy under mu.
type Compiler struct {
	viewPages int
	learning  bool
	mu        sync.Mutex // serializes Observe
	learned   atomic.Pointer[map[string]float64]
}

// ewmaAlpha weights recent observations in the learning extension.
const ewmaAlpha = 0.3

// NewCompiler creates the stub with the given stable lock-memory view.
func NewCompiler(viewPages int, learning bool) *Compiler {
	return &Compiler{viewPages: viewPages, learning: learning}
}

// ViewPages returns sqlCompilerLockMem in pages.
func (c *Compiler) ViewPages() int { return c.viewPages }

// structsPerPage mirrors memblock.StructsPerPage without the import.
const structsPerPage = 64

// ChooseRowLocking decides the locking granularity for a statement class
// with the optimizer's estimated row footprint: row locking when the
// footprint fits the compiler's lock-memory view, table locking otherwise.
func (c *Compiler) ChooseRowLocking(class string, estimatedRows int) bool {
	est := float64(estimatedRows)
	if c.learning {
		if v, ok := c.Learned(class); ok {
			est = v
		}
	}
	return est <= float64(c.viewPages*structsPerPage)
}

// Observe records a statement's actual lock footprint for the learning
// extension; a no-op when learning is disabled.
func (c *Compiler) Observe(class string, actualRows int) {
	if !c.learning {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	next := map[string]float64{}
	if m := c.learned.Load(); m != nil {
		maps.Copy(next, *m)
	}
	if v, ok := next[class]; ok {
		next[class] = (1-ewmaAlpha)*v + ewmaAlpha*float64(actualRows)
	} else {
		next[class] = float64(actualRows)
	}
	c.learned.Store(&next)
}

// Learned returns the learned footprint for a class and whether one exists.
func (c *Compiler) Learned(class string) (float64, bool) {
	m := c.learned.Load()
	if m == nil {
		return 0, false
	}
	v, ok := (*m)[class]
	return v, ok
}

// syncSet is a tiny concurrent set of application ids, read on every lock
// admission (does this application prefer escalation?) and written when a
// connection opens or closes: readers load an immutable snapshot, writers
// replace it under mu.
type syncSet struct {
	mu sync.Mutex // serializes add and remove
	m  atomic.Pointer[map[int]struct{}]
}

// replace publishes a copy of the set with id added or removed.
func (s *syncSet) replace(id int, member bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := map[int]struct{}{}
	if m := s.m.Load(); m != nil {
		maps.Copy(next, *m)
	}
	if member {
		next[id] = struct{}{}
	} else {
		delete(next, id)
	}
	s.m.Store(&next)
}

func (s *syncSet) add(id int) { s.replace(id, true) }

func (s *syncSet) remove(id int) { s.replace(id, false) }

func (s *syncSet) has(id int) bool {
	m := s.m.Load()
	if m == nil {
		return false
	}
	_, ok := (*m)[id]
	return ok
}
