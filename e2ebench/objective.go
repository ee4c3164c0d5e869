package main

import (
	"sync"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/roofline"
)

// countingSpec wraps the fleet Scorer's ObjectiveSpec to count the
// search work each solve drives, without changing any decision: it
// returns the wrapped objective's values and bounds unchanged.
//
// A roofline search calls Objective(apps) and then Bound(m, apps)
// once, evaluates the objective at every leaf it does not prune, and
// calls the bound at inner nodes and again at each leaf before
// evaluating it. Bound calls therefore count searches. After a
// successful search the Scorer calls Objective once more and applies
// the result to the optimum to score it in objective units; that call
// is never followed by Bound, which is how it is told apart from a
// search and how the solve span is closed.
//
// A floor-1 search on a demand set larger than the smallest node
// finds no leaf and is followed by the floor-0 fallback; such
// zero-leaf searches are counted as fallbacks, not as solves.
//
// Counters are atomic because a search evaluates leaves on parallel
// workers. The span bookkeeping assumes solves run one at a time,
// which holds here: fleetd serialises placements, and the benchmark
// runs rebalance rounds from its single client goroutine.
type countingSpec struct {
	inner roofline.ObjectiveSpec
	tr    *tracer

	searches   atomic.Int64
	zeroLeaf   atomic.Int64
	leaves     atomic.Int64
	bounds     atomic.Int64
	leafBounds atomic.Int64

	mu          sync.Mutex
	spanOpen    bool
	spanStart   int64
	pending     *objCall // the latest Objective call not yet claimed by Bound
	leavesAtBnd int64    // leaves counter when the latest search began
}

// objCall is one Objective(apps) call; search marks the calls a
// search made (as opposed to the Scorer's post-solve scoring call).
type objCall struct{ search atomic.Bool }

func newCountingSpec(inner roofline.ObjectiveSpec, tr *tracer) *countingSpec {
	return &countingSpec{inner: inner, tr: tr}
}

func (c *countingSpec) Name() string { return c.inner.Name() }

func (c *countingSpec) Objective(apps []roofline.App) roofline.Objective {
	call := &objCall{}
	c.mu.Lock()
	if !c.spanOpen {
		c.spanOpen, c.spanStart = true, c.tr.begin()
	}
	c.pending = call
	c.mu.Unlock()
	obj := c.inner.Objective(apps)
	return func(r *roofline.Result) float64 {
		if call.search.Load() {
			c.leaves.Add(1)
		} else {
			c.closeSpan()
		}
		return obj(r)
	}
}

func (c *countingSpec) closeSpan() {
	c.mu.Lock()
	open, start := c.spanOpen, c.spanStart
	c.spanOpen = false
	c.mu.Unlock()
	if open {
		c.tr.end("roofline.solve", start)
	}
}

func (c *countingSpec) Bound(m *machine.Machine, apps []roofline.App) roofline.BoundFunc {
	c.mu.Lock()
	if c.pending != nil {
		c.pending.search.Store(true)
		c.pending = nil
	}
	leaves := c.leaves.Load()
	if c.searches.Load() > 0 && leaves == c.leavesAtBnd {
		c.zeroLeaf.Add(1)
	}
	c.leavesAtBnd = leaves
	c.mu.Unlock()
	c.searches.Add(1)

	inner := c.inner.Bound(m, apps)
	if inner == nil {
		return nil
	}
	n := len(apps)
	return func(counts []int, pos, rem int) float64 {
		c.bounds.Add(1)
		if pos == n {
			c.leafBounds.Add(1)
		}
		return inner(counts, pos, rem)
	}
}

// searchStats is a snapshot of the counters.
type searchStats struct {
	searches, zeroLeaf, leaves, bounds, leafBounds int64
}

// stats returns the counters; the last search is checked for zero
// leaves here, since no later Bound call will look at it.
func (c *countingSpec) stats() searchStats {
	c.mu.Lock()
	zero := c.zeroLeaf.Load()
	if c.searches.Load() > 0 && c.leaves.Load() == c.leavesAtBnd {
		zero++
	}
	c.mu.Unlock()
	return searchStats{
		searches:   c.searches.Load(),
		zeroLeaf:   zero,
		leaves:     c.leaves.Load(),
		bounds:     c.bounds.Load(),
		leafBounds: c.leafBounds.Load(),
	}
}

// solves is the number of solve requests: searches minus the floor-1
// attempts that found nothing and fell back to floor 0.
func (s searchStats) solves() int64 { return s.searches - s.zeroLeaf }

func (s searchStats) sub(o searchStats) searchStats {
	return searchStats{
		searches:   s.searches - o.searches,
		zeroLeaf:   s.zeroLeaf - o.zeroLeaf,
		leaves:     s.leaves - o.leaves,
		bounds:     s.bounds - o.bounds,
		leafBounds: s.leafBounds - o.leafBounds,
	}
}
