package roofline

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
)

// Search owns the reusable state of the per-node-counts optimizer: a
// pool of Evaluators handed to worker goroutines. The zero value is
// ready to use, and one Search can be shared by concurrent solves (the
// control-plane solver holds one for its whole lifetime).
type Search struct {
	// Parallelism caps the worker goroutines fanned out over the
	// top-level enumeration branches; 0 means GOMAXPROCS.
	Parallelism int

	mu   sync.Mutex
	pool []*Evaluator
}

func (s *Search) acquire(m *machine.Machine, apps []App) (*Evaluator, error) {
	s.mu.Lock()
	var ev *Evaluator
	if n := len(s.pool); n > 0 {
		ev, s.pool = s.pool[n-1], s.pool[:n-1]
	}
	s.mu.Unlock()
	if ev == nil {
		return NewEvaluator(m, apps)
	}
	if err := ev.Reset(m, apps, Options{}); err != nil {
		return nil, err
	}
	return ev, nil
}

func (s *Search) release(ev *Evaluator) {
	s.mu.Lock()
	s.pool = append(s.pool, ev)
	s.mu.Unlock()
}

// boundSlack is the margin under the incumbent a subtree's upper bound
// must clear before it is pruned. It absorbs floating-point noise in
// the bound so equal-scoring optima are never pruned, which keeps the
// parallel search's result identical to the sequential enumeration's
// first-in-order optimum.
const boundSlack = 1e-6

// seqLeafThreshold is the candidate count under which the search stays
// on the calling goroutine; fan-out costs more than it buys on the
// paper-sized problems.
const seqLeafThreshold = 4096

// bnbCtx is the read-only shared state of one BestPerNodeCountsFloorSpec
// run plus the shared incumbent.
type bnbCtx struct {
	nApps, nNodes int
	floor         int
	obj           Objective
	// bound is the objective's admissible upper bound (see
	// ObjectiveSpec); nil declares the run bound-free and the search
	// degrades to the unpruned enumeration over the memoizing
	// Evaluator.
	bound BoundFunc
	prune bool

	best atomic.Uint64 // Float64bits of the best score seen so far
	next atomic.Int64  // branch work-stealing cursor
}

func (c *bnbCtx) bestScore() float64 { return math.Float64frombits(c.best.Load()) }

func (c *bnbCtx) raiseBest(v float64) {
	for {
		old := c.best.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if c.best.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// bnbWorker is one goroutine's private search state.
type bnbWorker struct {
	ctx    *bnbCtx
	ev     *Evaluator
	counts []int
	al     Allocation
	res    *Result

	branchBest   float64
	branchCounts []int
}

func (w *bnbWorker) setRow(pos, count int) {
	w.counts[pos] = count
	row := w.al.Threads[pos]
	for j := range row {
		row[j] = count
	}
}

func (w *bnbWorker) rec(pos, remaining int) {
	c := w.ctx
	if pos == c.nApps {
		if c.prune {
			// Leaf-level bound: the greedy relaxation over the completed
			// counts vector is far cheaper than a model evaluation and
			// discards hopeless candidates outright.
			if ub := c.bound(w.counts, pos, 0); ub < c.bestScore()-boundSlack {
				return
			}
		}
		if err := w.ev.EvaluateInto(w.res, w.al); err != nil {
			return // mirrors the reference enumeration skipping bad candidates
		}
		s := c.obj(w.res)
		if s > w.branchBest {
			w.branchBest = s
			w.branchCounts = append(w.branchCounts[:0], w.counts...)
		}
		if c.prune {
			c.raiseBest(s)
		}
		return
	}
	if c.prune && pos > 0 {
		if ub := c.bound(w.counts, pos, remaining); ub < c.bestScore()-boundSlack {
			return
		}
	}
	for cnt := c.floor; cnt <= remaining; cnt++ {
		w.setRow(pos, cnt)
		w.rec(pos+1, remaining-cnt)
	}
}

// branchResult is one top-level branch's best candidate; results are
// reduced in branch order so the parallel search returns the same
// first-in-enumeration-order optimum as a sequential scan.
type branchResult struct {
	score  float64
	counts []int
}

// BestPerNodeCountsFloorSpec is the one entry point into the
// per-node-counts optimizer. It searches uniform per-node allocations
// (every app gets counts[i] threads on every node, each app at least
// floor) for the one maximizing spec's objective, using the memoizing
// Evaluator, goroutine fan-out of the top-level branches, and — when
// spec supplies an admissible bound — a branch-and-bound prune. A
// bound-free spec degrades to the exhaustive enumeration over the
// memoizing Evaluator, which is exact for any objective. The returned
// counts, allocation, and Result are identical to the exhaustive
// reference search (search_test.go proves it differentially). It
// returns ErrNoAllocation when the floors alone over-subscribe a node
// (more apps than cores) or no candidate evaluates.
//
// prev warm-starts the solve from a previous optimum: the counts
// vector of a related solve — the same apps (len(prev) == len(apps)),
// or the demand set minus its last app (len(prev) == len(apps)-1, the
// +1-app neighbour the fleet scorer hits on every placement decision).
// Seed candidates derived from prev are evaluated up front and their
// true objective values raise the branch-and-bound incumbent before
// the search starts, so when the new optimum is near the old one most
// subtrees prune immediately.
//
// Warm-starting cannot change the answer: every seed is an ordinary
// feasible candidate, so the incumbent is only raised to objective
// values the enumeration itself attains, and the pruning margin
// (boundSlack) already keeps equal-scoring subtrees alive. Counts,
// allocation, and Result are bit-identical to the cold solve —
// warmstart_test.go and the FuzzEvaluatorEquivalence corpus prove it
// differentially. A prev of any other length, or one infeasible under
// the requested floor, is ignored (the solve degrades to cold, never
// errors).
func (s *Search) BestPerNodeCountsFloorSpec(spec ObjectiveSpec, prev []int, m *machine.Machine, apps []App, floor int) ([]int, Allocation, *Result, error) {
	obj := spec.Objective(apps)
	if floor < 0 {
		floor = 0
	}
	nApps := len(apps)
	if nApps == 0 {
		// The reference enumeration visits the single empty allocation.
		al := NewAllocation(0, m.NumNodes())
		res, err := Evaluate(m, apps, al)
		if err != nil {
			return nil, Allocation{}, nil, err
		}
		return nil, al, res, nil
	}

	capCores := m.Nodes[0].Cores
	for _, n := range m.Nodes[1:] {
		if n.Cores < capCores {
			capCores = n.Cores
		}
	}
	nBranches := capCores - floor + 1
	if nBranches <= 0 {
		return nil, Allocation{}, nil, ErrNoAllocation
	}

	ctx := &bnbCtx{
		nApps:  nApps,
		nNodes: m.NumNodes(),
		floor:  floor,
		obj:    obj,
		bound:  spec.Bound(m, apps),
	}
	ctx.prune = ctx.bound != nil
	ctx.best.Store(math.Float64bits(math.Inf(-1)))

	if ctx.prune && len(prev) > 0 {
		s.seedIncumbent(ctx, m, apps, prev, floor, capCores)
	}

	workers := s.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nBranches {
		workers = nBranches
	}
	if estimateLeaves(capCores-floor*nApps, nApps) <= seqLeafThreshold {
		workers = 1
	}

	results := make([]branchResult, nBranches)
	runWorker := func() error {
		ev, err := s.acquire(m, apps)
		if err != nil {
			return err
		}
		defer s.release(ev)
		w := &bnbWorker{
			ctx:    ctx,
			ev:     ev,
			counts: make([]int, nApps),
			al:     NewAllocation(nApps, ctx.nNodes),
			res:    &Result{},
		}
		for {
			b := int(ctx.next.Add(1)) - 1
			if b >= nBranches {
				return nil
			}
			w.branchBest = -1.0
			w.setRow(0, floor+b)
			w.rec(1, capCores-(floor+b))
			if w.branchBest > -1.0 {
				results[b] = branchResult{
					score:  w.branchBest,
					counts: append([]int(nil), w.branchCounts...),
				}
			}
		}
	}

	var firstErr error
	if workers <= 1 {
		firstErr = runWorker()
	} else {
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				errs[wi] = runWorker()
			}(wi)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr != nil {
		// Invalid (machine, apps) inputs: the reference enumeration skips
		// every candidate and reports no feasible allocation.
		return nil, Allocation{}, nil, ErrNoAllocation
	}

	// Deterministic reduction in branch order: strict > keeps the first
	// achiever of the maximum, matching the sequential scan.
	best := -1.0
	var bestCounts []int
	for b := range results {
		if results[b].counts != nil && results[b].score > best {
			best, bestCounts = results[b].score, results[b].counts
		}
	}
	if bestCounts == nil {
		return nil, Allocation{}, nil, ErrNoAllocation
	}
	al, err := PerNodeCounts(m, bestCounts)
	if err != nil {
		return nil, Allocation{}, nil, err
	}
	// The returned Result comes from the reference model so callers get
	// reference-bitwise outputs no matter which path found the optimum.
	res, err := Evaluate(m, apps, al)
	if err != nil {
		return nil, Allocation{}, nil, err
	}
	return bestCounts, al, res, nil
}

// BestPerNodeCountsNoStarve is the solve coopd and fleetd serve: it
// first applies the paper's no-starvation floor of one thread per app
// per node (which gives the Table I optimum) and, when those floors
// alone over-subscribe a node (ErrNoAllocation), re-solves at floor 0.
// It returns the floor the answer was found at. This is the one home
// of that fallback rule; prev warm-starts both attempts exactly as in
// BestPerNodeCountsFloorSpec.
func (s *Search) BestPerNodeCountsNoStarve(spec ObjectiveSpec, prev []int, m *machine.Machine, apps []App) ([]int, int, *Result, error) {
	floor := 1
	counts, _, res, err := s.BestPerNodeCountsFloorSpec(spec, prev, m, apps, floor)
	if errors.Is(err, ErrNoAllocation) {
		floor = 0
		counts, _, res, err = s.BestPerNodeCountsFloorSpec(spec, prev, m, apps, floor)
	}
	return counts, floor, res, err
}

// seedIncumbent evaluates the warm-start candidates derived from prev
// (see BestPerNodeCountsFloorSpec) and raises the shared incumbent to
// the best of their true objective values. Full-length hints are
// evaluated as-is; one-short hints are extended over every feasible
// count for the missing last app (at most capCores cheap evaluations,
// all against the memoizing Evaluator). Infeasible hints and evaluation
// failures are silently skipped — seeding is purely an acceleration.
func (s *Search) seedIncumbent(ctx *bnbCtx, m *machine.Machine, apps []App, prev []int, floor, capCores int) {
	nApps := len(apps)
	extend := false
	switch len(prev) {
	case nApps:
	case nApps - 1:
		extend = true
	default:
		return // not a ±1 neighbour's counts; nothing usable
	}
	used := 0
	for _, c := range prev {
		if c < floor {
			return // infeasible under this floor (e.g. a floor-0 optimum's zero)
		}
		used += c
	}
	if used > capCores {
		return
	}
	if extend && used+floor > capCores {
		// The previous optimum saturates the node (the common case when
		// an app arrives on a packed machine). Free room for the
		// newcomer by shaving the widest rows — still a plausible
		// near-optimal shape, and seeds are re-evaluated anyway.
		shrunk := append(make([]int, 0, nApps-1), prev...)
		for used+floor > capCores {
			widest := -1
			for i, c := range shrunk {
				if c > floor && (widest < 0 || c > shrunk[widest]) {
					widest = i
				}
			}
			if widest < 0 {
				return // every row already at floor; no room at all
			}
			shrunk[widest]--
			used--
		}
		prev = shrunk
	}
	ev, err := s.acquire(m, apps)
	if err != nil {
		return // invalid inputs; the cold path reports the error
	}
	defer s.release(ev)
	w := &bnbWorker{
		ctx:    ctx,
		ev:     ev,
		counts: make([]int, nApps),
		al:     NewAllocation(nApps, ctx.nNodes),
		res:    &Result{},
	}
	for i, c := range prev {
		w.setRow(i, c)
	}
	if !extend {
		if err := ev.EvaluateInto(w.res, w.al); err == nil {
			ctx.raiseBest(ctx.obj(w.res))
		}
		return
	}
	for c := floor; c <= capCores-used; c++ {
		w.setRow(nApps-1, c)
		if err := ev.EvaluateInto(w.res, w.al); err == nil {
			ctx.raiseBest(ctx.obj(w.res))
		}
	}
}

// estimateLeaves returns the number of candidates: compositions of at
// most budget extra cores over n apps, C(budget+n, n), saturating well
// above the sequential threshold.
func estimateLeaves(budget, n int) int64 {
	if budget < 0 {
		return 0
	}
	v := int64(1)
	for i := 1; i <= n; i++ {
		v = v * int64(budget+i) / int64(i)
		if v > 1<<40 {
			return 1 << 40
		}
	}
	return v
}
