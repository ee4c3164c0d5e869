package ctrlplane

import (
	"bytes"
	"container/list"
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/agent"
	"repro/internal/des"
	"repro/internal/machine"
	"repro/internal/roofline"
)

// Policy names accepted by NewSolver.
const (
	PolicyRoofline  = "roofline"
	PolicyFairShare = "fairshare"
)

// AppSolution is one application's computed slice, aligned with the
// []AppState passed to Solve.
type AppSolution struct {
	ID      string
	Name    string
	PerNode []int
	GFLOPS  float64
}

// Solution is a full solve outcome. SolveInto reuses its slices, so a
// pooled Solution makes the steady-state serve path allocation-free.
type Solution struct {
	PerApp      []AppSolution
	TotalGFLOPS float64
	// EvenGFLOPS and NodePerAppGFLOPS are the paper's structured
	// baselines for the same demand mix (0 when infeasible).
	EvenGFLOPS       float64
	NodePerAppGFLOPS float64
	// FromCache reports whether the roofline solve was skipped.
	FromCache bool
}

// cachedSolution stores a solve keyed by the sorted demand multiset;
// counts and rates are per demand slot, so any permutation of
// equivalent apps maps onto it. Immutable once inserted (concurrent
// readers copy out of it without the lock).
type cachedSolution struct {
	counts [][]int
	gflops []float64
	total  float64
	even   float64
	npa    float64
}

// cacheEntry is one LRU cell: the key is kept so eviction can delete
// the map entry.
type cacheEntry struct {
	key string
	sol *cachedSolution
}

// flightCall is one in-progress solve; followers of the same key block
// on done instead of re-running the solve (singleflight).
type flightCall struct {
	done chan struct{}
	sol  *cachedSolution
	err  error
}

// solveScratch is the per-request working memory of Solve, pooled so a
// steady-state (cache-hit) solve allocates nothing: demand-key segments
// for every app, the app order, and the assembled cache key.
type solveScratch struct {
	order  []int
	offs   []int // offs[i]:offs[i+1] frames app i's segment in segBuf
	segBuf []byte
	key    []byte
}

// Solver computes per-NUMA-node allocations — the roofline
// no-starvation solve or the agent's fair share — and memoizes results
// behind an LRU cache with singleflight collapsing of concurrent
// identical solves. It is safe for concurrent use.
type Solver struct {
	policy string
	search *roofline.Search

	mu        sync.Mutex
	entries   map[string]*list.Element // -> *cacheEntry
	lru       *list.List               // front: most recently used
	flight    map[string]*flightCall
	hits      uint64
	misses    uint64
	coalesced uint64
	topoPtr   *machine.Machine // last hashed machine (pointer identity)
	topoHash  uint64

	scratch sync.Pool // *solveScratch

	// testSolveDelay, when set, runs between claiming a flight slot and
	// solving; tests use it to hold the leader while followers pile up.
	testSolveDelay func()
}

// maxCacheEntries bounds the memo; past it the least-recently-used
// entry is evicted, so a demand mix cycling past the bound keeps its
// working set instead of periodically losing everything to a flush.
const maxCacheEntries = 256

// NewSolver creates a solver for the named policy (PolicyRoofline or
// PolicyFairShare).
func NewSolver(policy string) (*Solver, error) {
	switch policy {
	case PolicyRoofline, PolicyFairShare:
	default:
		return nil, fmt.Errorf("ctrlplane: unknown policy %q", policy)
	}
	return &Solver{
		policy:  policy,
		search:  &roofline.Search{},
		entries: map[string]*list.Element{},
		lru:     list.New(),
		flight:  map[string]*flightCall{},
		scratch: sync.Pool{New: func() any { return &solveScratch{} }},
	}, nil
}

// Policy returns the solver's policy name.
func (s *Solver) Policy() string { return s.policy }

// Metrics returns cache hit/miss/coalesce counters and the entry count.
func (s *Solver) Metrics() SolverMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SolverMetrics{Hits: s.hits, Misses: s.misses, Coalesced: s.coalesced, Entries: len(s.entries)}
}

// TopologyHash fingerprints a machine for cache keying; two machines
// with identical topologies (name, nodes, links) share solutions. The
// hash walks the fields directly (FNV-64a) so keying allocates nothing.
func TopologyHash(m *machine.Machine) uint64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for i := 0; i < len(m.Name); i++ {
		h ^= uint64(m.Name[i])
		h *= prime64
	}
	mix(uint64(len(m.Nodes)))
	for _, n := range m.Nodes {
		mix(uint64(n.Cores))
		mix(math.Float64bits(n.PeakGFLOPS))
		mix(math.Float64bits(n.MemBandwidth))
	}
	if m.LinkBandwidth == nil {
		mix(0)
		return h
	}
	mix(1)
	for _, row := range m.LinkBandwidth {
		for _, bw := range row {
			mix(math.Float64bits(bw))
		}
	}
	return h
}

// topologyHashCached returns TopologyHash, memoized by machine pointer:
// the server passes the same *Machine for its whole lifetime, so the
// steady state never re-hashes.
func (s *Solver) topologyHashCached(m *machine.Machine) uint64 {
	s.mu.Lock()
	if s.topoPtr == m {
		h := s.topoHash
		s.mu.Unlock()
		return h
	}
	s.mu.Unlock()
	h := TopologyHash(m)
	s.mu.Lock()
	s.topoPtr, s.topoHash = m, h
	s.mu.Unlock()
	return h
}

// Solve computes the allocation for the registered applications on the
// machine into a fresh Solution. See SolveInto for the reusing variant.
func (s *Solver) Solve(m *machine.Machine, apps []AppState) (*Solution, error) {
	sol := &Solution{}
	if err := s.SolveInto(sol, m, apps); err != nil {
		return nil, err
	}
	return sol, nil
}

// SolveInto computes the allocation for the registered applications on
// the machine, reusing sol's slices. Apps with identical demand keys
// are interchangeable, so the cache lookup sorts the demand set;
// results are mapped back to the callers' order. A cache-hit solve into
// a warm Solution performs no heap allocations.
func (s *Solver) SolveInto(sol *Solution, m *machine.Machine, apps []AppState) error {
	sol.PerApp = sol.PerApp[:0]
	sol.TotalGFLOPS, sol.EvenGFLOPS, sol.NodePerAppGFLOPS = 0, 0, 0
	sol.FromCache = false
	if len(apps) == 0 {
		return nil
	}

	sc := s.scratch.Get().(*solveScratch)
	defer s.scratch.Put(sc)

	n := len(apps)
	// Build every app's demand-key segment once into one buffer.
	sc.segBuf = sc.segBuf[:0]
	sc.offs = resizeInts(sc.offs, n+1)
	sc.offs[0] = 0
	for i := range apps {
		// Effective spec: a fitted (recalibrated) AI replaces the declared
		// one here, so a confirmed drift changes the cache key and the
		// next lookup is naturally a fresh solve.
		spec := apps[i].EffectiveSpec()
		sc.segBuf = appendDemandKey(sc.segBuf, &spec)
		sc.offs[i+1] = len(sc.segBuf)
	}
	seg := func(i int) []byte { return sc.segBuf[sc.offs[i]:sc.offs[i+1]] }

	// Sort app indices into demand-slot order (ID tie-break keeps the
	// mapping deterministic). Insertion sort: no allocation, and the
	// registry's mixes are small and mostly pre-sorted.
	sc.order = resizeInts(sc.order, n)
	for i := range sc.order {
		sc.order[i] = i
	}
	for a := 1; a < n; a++ {
		x := sc.order[a]
		b := a
		for b > 0 {
			p := sc.order[b-1]
			if c := bytes.Compare(seg(p), seg(x)); c < 0 || (c == 0 && apps[p].ID <= apps[x].ID) {
				break
			}
			sc.order[b] = p
			b--
		}
		sc.order[b] = x
	}

	sc.key = sc.key[:0]
	sc.key = append(sc.key, "topo="...)
	sc.key = strconv.AppendUint(sc.key, s.topologyHashCached(m), 16)
	sc.key = append(sc.key, "|policy="...)
	sc.key = append(sc.key, s.policy...)
	for _, idx := range sc.order {
		sc.key = append(sc.key, '|')
		sc.key = append(sc.key, seg(idx)...)
	}

	cached, fromCache, err := s.lookupOrSolve(m, apps, sc)
	if err != nil {
		return err
	}

	sol.TotalGFLOPS = cached.total
	sol.EvenGFLOPS = cached.even
	sol.NodePerAppGFLOPS = cached.npa
	sol.FromCache = fromCache
	if cap(sol.PerApp) < n {
		sol.PerApp = make([]AppSolution, n)
	} else {
		sol.PerApp = sol.PerApp[:n]
	}
	for slot, idx := range sc.order {
		pa := &sol.PerApp[idx]
		pa.ID = apps[idx].ID
		pa.Name = apps[idx].Spec.Name
		pa.PerNode = append(pa.PerNode[:0], cached.counts[slot]...)
		pa.GFLOPS = cached.gflops[slot]
	}
	return nil
}

// lookupOrSolve serves sc.key from the LRU, joins an in-flight solve
// for the same key, or becomes the leader and solves.
func (s *Solver) lookupOrSolve(m *machine.Machine, apps []AppState, sc *solveScratch) (*cachedSolution, bool, error) {
	s.mu.Lock()
	if el, ok := s.entries[string(sc.key)]; ok {
		s.lru.MoveToFront(el)
		s.hits++
		cs := el.Value.(*cacheEntry).sol
		s.mu.Unlock()
		return cs, true, nil
	}
	if fc, ok := s.flight[string(sc.key)]; ok {
		// A solve for this exact key is running; wait for its result
		// instead of duplicating the work (heartbeat storms after a
		// restart all carry the same demand set).
		s.coalesced++
		s.mu.Unlock()
		<-fc.done
		return fc.sol, fc.err == nil, fc.err
	}
	s.misses++
	key := string(sc.key) // the one per-distinct-miss allocation
	fc := &flightCall{done: make(chan struct{})}
	s.flight[key] = fc
	delay := s.testSolveDelay
	s.mu.Unlock()

	if delay != nil {
		delay()
	}
	cs, err := s.solveSlots(m, apps, sc.order)

	s.mu.Lock()
	if err == nil {
		s.insertLocked(key, cs)
	}
	delete(s.flight, key)
	s.mu.Unlock()
	fc.sol, fc.err = cs, err
	close(fc.done)
	return cs, false, err
}

// insertLocked adds a cache entry at the LRU front, evicting from the
// back past maxCacheEntries. Caller holds s.mu.
func (s *Solver) insertLocked(key string, cs *cachedSolution) {
	if el, ok := s.entries[key]; ok {
		el.Value.(*cacheEntry).sol = cs
		s.lru.MoveToFront(el)
		return
	}
	s.entries[key] = s.lru.PushFront(&cacheEntry{key: key, sol: cs})
	for len(s.entries) > maxCacheEntries {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.entries, back.Value.(*cacheEntry).key)
	}
}

func resizeInts(v []int, n int) []int {
	if cap(v) < n {
		return make([]int, n)
	}
	return v[:n]
}

// solveSlots solves the demand slots (apps in order) under the
// solver's policy and evaluates the result with the roofline model.
func (s *Solver) solveSlots(m *machine.Machine, apps []AppState, order []int) (*cachedSolution, error) {
	n := len(order)
	rapps := make([]roofline.App, n)
	for slot, idx := range order {
		spec := apps[idx].EffectiveSpec()
		rapps[slot] = roofline.App{
			Name:      spec.Name,
			AI:        spec.AI,
			Placement: spec.Placement,
			HomeNode:  spec.HomeNode,
		}
	}

	counts := make([][]int, n)
	switch s.policy {
	case PolicyFairShare:
		for _, cmd := range (agent.FairShare{PerNode: true}).Decide(des.Time(0), m, make([]agent.Info, n)) {
			counts[cmd.Client] = cmd.PerNode
		}
	default:
		// The no-starvation floor of one thread per app per node
		// reproduces the paper's Table I optimum; the search drops to
		// floor zero when the floors alone over-subscribe a node.
		perApp, _, _, err := s.search.BestPerNodeCountsNoStarve(roofline.ObjTotalGFLOPS, nil, m, rapps)
		if err != nil {
			return nil, fmt.Errorf("ctrlplane: policy %s produced no allocation for %d apps: %w", s.policy, n, err)
		}
		for slot, c := range perApp {
			row := make([]int, m.NumNodes())
			for j := range row {
				row[j] = c
			}
			counts[slot] = row
		}
	}
	for slot := range counts {
		trimToCap(counts[slot], apps[order[slot]].Spec.MaxThreads)
	}

	al := roofline.Allocation{Threads: counts}
	res, err := roofline.Evaluate(m, rapps, al)
	if err != nil {
		return nil, fmt.Errorf("ctrlplane: evaluating allocation: %w", err)
	}
	cs := &cachedSolution{
		counts: counts,
		gflops: append([]float64(nil), res.AppGFLOPS...),
		total:  res.TotalGFLOPS,
	}
	// Structured baselines (best-effort: 0 when the shape is infeasible
	// for this app count / machine).
	if eal, err := roofline.Even(m, n); err == nil {
		if r, err := roofline.Evaluate(m, rapps, eal); err == nil {
			cs.even = r.TotalGFLOPS
		}
	}
	if nal, err := roofline.NodePerApp(m, n, nil); err == nil {
		if r, err := roofline.Evaluate(m, rapps, nal); err == nil {
			cs.npa = r.TotalGFLOPS
		}
	}
	return cs, nil
}

// trimToCap removes threads round-robin across nodes (from the last
// node backwards) until the total is within the app's requested cap.
// cap <= 0 means uncapped. An application demanding more threads than
// the machine has cores is thus served the solver's optimum, never
// more than exists.
func trimToCap(perNode []int, cap int) {
	if cap <= 0 {
		return
	}
	total := 0
	for _, c := range perNode {
		total += c
	}
	for j := len(perNode) - 1; total > cap; j-- {
		if j < 0 {
			j = len(perNode) - 1
		}
		if perNode[j] > 0 {
			perNode[j]--
			total--
		}
	}
}
