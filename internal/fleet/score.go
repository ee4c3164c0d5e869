package fleet

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/ctrlplane"
	"repro/internal/machine"
	"repro/internal/roofline"
)

const (
	// appSegBytes is the fixed width of one app's demand-key segment:
	// 8-byte AI float bits, 1 placement byte, 4-byte home node, 8-byte
	// objective weight bits — the fields a solve's optimum can depend
	// on (names and MaxThreads excluded on purpose, see SolveTotal).
	// Weight participates even under the default objective — it is
	// zero for batch apps, so priority-free fleets key exactly as they
	// would without it, while a weighted-objective Scorer can never
	// alias two demand sets differing only in class.
	appSegBytes = 21
	// maxSolveCacheEntries bounds the fleet-wide solve memo. 4096
	// distinct (topology, demand multiset) classes is far beyond what a
	// steady fleet produces in one planning horizon; the LRU keeps the
	// hot classes resident across Placer decisions and Rebalancer
	// rounds.
	maxSolveCacheEntries = 4096
	// maxTopoEntries bounds the pointer-keyed topology-hash memo; past
	// it the map is simply dropped (hashes recompute in microseconds).
	maxTopoEntries = 8192
)

// solveOutcome is one memoized fleet-semantics solve: the aggregate and
// the optimum per-node counts, kept as the warm-start hint for the ±1
// neighbour solves Marginal and decide run next.
type solveOutcome struct {
	total  float64
	counts []int
}

type solveEntry struct {
	key string
	out solveOutcome
}

// scoreScratch is the per-call reusable state of the scoring hot path:
// the key build buffer and the demand+app slice, pooled so a placement
// decision allocates nothing for either.
type scoreScratch struct {
	key  []byte
	with []roofline.App
}

// Scorer computes placement scores with the same solve semantics the
// coopd allocator uses, so the fleet's predicted aggregate matches what
// the machines actually serve: roofline.Search.BestPerNodeCountsNoStarve,
// a floor of one thread per app per node (no starvation), falling back
// to floor zero when the floors alone over-subscribe a node.
//
// Solves are memoized fleet-wide by machine equivalence class — the
// pair (topology hash, sorted demand-key multiset). Two machines with
// identical topologies running interchangeable demand sets share one
// solve, so a homogeneous 10k-machine fleet costs one branch-and-bound
// per *class* per decision, not one per machine. The memo is
// content-addressed: registering or moving an app changes a machine's
// demand multiset and therefore its key, so no explicit invalidation
// exists or is needed — stale classes simply age out of the bounded
// LRU. Cache misses warm-start the branch-and-bound from the memoized
// optimum of the ±1-app neighbour when one is at hand (the prev
// argument of roofline.Search.BestPerNodeCountsFloorSpec), which cannot
// change the result. One Scorer is safe for concurrent use.
type Scorer struct {
	// DomainSpread enables the failure-domain anti-affinity tie-break:
	// when several machines tie on marginal GFLOPS, the decision prefers
	// the one whose failure domain hosts the fewest members of the app's
	// cooperating group (apps sharing a name prefix), so a whole-rack
	// loss never takes the whole group. Domain never outranks score —
	// with the flag off, decisions are bit-identical to the spread-free
	// path, and the solve memo below is domain-free either way (solves
	// depend only on topology and demand, so the PR-8 cache stays
	// sound). Set before use; not safe to flip concurrently with
	// decisions.
	DomainSpread bool

	// Objective selects the per-machine optimization objective; nil
	// means roofline.ObjTotalGFLOPS, which is bit-identical to the
	// historical total-GFLOPS scorer. Under any other objective every
	// solveOutcome.total — and therefore every marginal, placement
	// score, and Plan aggregate — is in that objective's units, and
	// decisions maximize it instead of raw throughput. The solve memo
	// stays sound because one Scorer has one fixed objective and the
	// demand-key segments include the per-app objective weight. Set
	// before use; not safe to flip concurrently with decisions.
	Objective roofline.ObjectiveSpec

	search roofline.Search

	mu      sync.Mutex
	topo    map[*machine.Machine]uint64
	entries map[string]*list.Element
	lru     *list.List // of *solveEntry, front = most recent
	hits    uint64
	misses  uint64

	scratch sync.Pool // of *scoreScratch
}

// NewScorer returns a ready Scorer.
func NewScorer() *Scorer { return &Scorer{} }

// CacheStats reports the solve memo's cumulative hit/miss counters —
// the dedup observability hook for tests and benchmarks.
func (sc *Scorer) CacheStats() (hits, misses uint64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.hits, sc.misses
}

func (sc *Scorer) getScratch() *scoreScratch {
	if s, _ := sc.scratch.Get().(*scoreScratch); s != nil {
		return s
	}
	return &scoreScratch{}
}

func (sc *Scorer) putScratch(s *scoreScratch) { sc.scratch.Put(s) }

// topoHash returns ctrlplane.TopologyHash memoized by machine pointer:
// inventory snapshots hand the same *Machine to every scoring call
// until a re-poll replaces it, so the steady state never re-hashes.
func (sc *Scorer) topoHash(m *machine.Machine) uint64 {
	sc.mu.Lock()
	if h, ok := sc.topo[m]; ok {
		sc.mu.Unlock()
		return h
	}
	sc.mu.Unlock()
	h := ctrlplane.TopologyHash(m)
	sc.mu.Lock()
	if sc.topo == nil {
		sc.topo = make(map[*machine.Machine]uint64)
	} else if len(sc.topo) >= maxTopoEntries {
		clear(sc.topo)
	}
	sc.topo[m] = h
	sc.mu.Unlock()
	return h
}

// appendAppSeg appends app's fixed-width demand-key segment.
func appendAppSeg(b []byte, a *roofline.App) []byte {
	var seg [appSegBytes]byte
	binary.BigEndian.PutUint64(seg[0:8], math.Float64bits(a.AI))
	seg[8] = byte(a.Placement)
	binary.BigEndian.PutUint32(seg[9:13], uint32(int32(a.HomeNode)))
	binary.BigEndian.PutUint64(seg[13:21], math.Float64bits(a.Weight))
	return append(b, seg[:]...)
}

// sortAppSegs sorts concatenated fixed-width segments in place
// (insertion sort: demand sets are small and arrive mostly sorted, and
// fixed-width chunks need no offset bookkeeping).
func sortAppSegs(b []byte) {
	n := len(b) / appSegBytes
	var tmp [appSegBytes]byte
	for i := 1; i < n; i++ {
		copy(tmp[:], b[i*appSegBytes:])
		j := i
		for j > 0 && bytes.Compare(b[(j-1)*appSegBytes:j*appSegBytes], tmp[:]) > 0 {
			copy(b[j*appSegBytes:], b[(j-1)*appSegBytes:j*appSegBytes])
			j--
		}
		copy(b[j*appSegBytes:], tmp[:])
	}
}

// appendSolveKey appends the canonical equivalence-class key of
// (machine, demand): the topology hash followed by the demand segments
// in sorted order. Apps with equal segments are interchangeable to the
// solver, and the solved aggregate is order-independent, so permuted
// demand sets deliberately collide.
func appendSolveKey(dst []byte, topoHash uint64, demand []roofline.App) []byte {
	var h [8]byte
	binary.BigEndian.PutUint64(h[:], topoHash)
	dst = append(dst, h[:]...)
	for i := range demand {
		dst = appendAppSeg(dst, &demand[i])
	}
	sortAppSegs(dst[8:])
	return dst
}

// lookup fetches the memoized outcome for key, refreshing its LRU slot.
func (sc *Scorer) lookup(key []byte) (solveOutcome, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if el, ok := sc.entries[string(key)]; ok {
		sc.lru.MoveToFront(el)
		sc.hits++
		return el.Value.(*solveEntry).out, true
	}
	sc.misses++
	return solveOutcome{}, false
}

// store memoizes out under key, evicting the coldest entries past the
// bound.
func (sc *Scorer) store(key []byte, out solveOutcome) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.entries == nil {
		sc.entries = make(map[string]*list.Element)
		sc.lru = list.New()
	}
	if el, ok := sc.entries[string(key)]; ok {
		el.Value.(*solveEntry).out = out
		sc.lru.MoveToFront(el)
		return
	}
	k := string(key)
	sc.entries[k] = sc.lru.PushFront(&solveEntry{key: k, out: out})
	for sc.lru.Len() > maxSolveCacheEntries {
		el := sc.lru.Back()
		sc.lru.Remove(el)
		delete(sc.entries, el.Value.(*solveEntry).key)
	}
}

// solveDemand is the memoized fleet-semantics solve. hint, when
// non-nil, warm-starts a cache miss from a ±1-app neighbour's optimum
// (it cannot change the result — see
// roofline.Search.BestPerNodeCountsFloorSpec).
// Errors are not cached: they are rare (invalid demand) and re-solving
// keeps the memo free of negative entries.
func (sc *Scorer) solveDemand(m *machine.Machine, demand []roofline.App, hint []int, s *scoreScratch) (solveOutcome, error) {
	if len(demand) == 0 {
		return solveOutcome{}, nil
	}
	s.key = appendSolveKey(s.key[:0], sc.topoHash(m), demand)
	if out, ok := sc.lookup(s.key); ok {
		return out, nil
	}
	spec := sc.Objective
	if spec == nil {
		spec = roofline.ObjTotalGFLOPS
	}
	counts, _, res, err := sc.search.BestPerNodeCountsNoStarve(spec, hint, m, demand)
	if err != nil {
		return solveOutcome{}, err
	}
	total := res.TotalGFLOPS
	if spec != roofline.ObjTotalGFLOPS {
		// Non-default objectives score in their own units (weighted
		// GFLOPS, min-app GFLOPS); the default path never builds the
		// closure.
		total = spec.Objective(demand)(res)
	}
	out := solveOutcome{total: total, counts: append([]int(nil), counts...)}
	sc.store(s.key, out)
	return out, nil
}

// SolveTotal returns the machine's aggregate GFLOPS for the demand set
// under the fleet's solve semantics. An empty demand set scores zero.
// Note MaxThreads caps are not applied here: the cap trims a single
// app's share after the solve on the machine itself, while the fleet
// scores the uncapped optimum — a deliberate simplification documented
// in DESIGN.md (caps are rare and machine-local).
func (sc *Scorer) SolveTotal(m *machine.Machine, demand []roofline.App) (float64, error) {
	s := sc.getScratch()
	defer sc.putScratch(s)
	out, err := sc.solveDemand(m, demand, nil, s)
	return out.total, err
}

// Marginal returns the placement score of adding app to a machine with
// the given demand set: solved aggregate after minus before. It can be
// negative — a memory-bound app joining a compute-heavy machine drags
// the optimum down — and the Placer uses exactly that to steer the app
// to the bin where it costs the least (or helps the most).
func (sc *Scorer) Marginal(m *machine.Machine, demand []roofline.App, app roofline.App) (marginal, after float64, err error) {
	s := sc.getScratch()
	defer sc.putScratch(s)
	before, err := sc.solveDemand(m, demand, nil, s)
	if err != nil {
		return 0, 0, err
	}
	s.with = append(append(s.with[:0], demand...), app)
	afterOut, err := sc.solveDemand(m, s.with, before.counts, s)
	if err != nil {
		return 0, 0, err
	}
	return afterOut.total - before.total, afterOut.total, nil
}

// classResult is one equivalence class's scored outcome within a single
// decision: the marginal, the predicted after, or the fact that the
// class's solve failed (its candidates are skipped, matching the
// per-machine error semantics of the unmemoized path).
type classResult struct {
	score  float64
	after  float64
	failed bool
}

// scoreClass computes one class representative's marginal for app.
func (sc *Scorer) scoreClass(m *machine.Machine, demand []roofline.App, app roofline.App, s *scoreScratch) classResult {
	before, err := sc.solveDemand(m, demand, nil, s)
	if err != nil {
		return classResult{failed: true}
	}
	s.with = append(append(s.with[:0], demand...), app)
	after, err := sc.solveDemand(m, s.with, before.counts, s)
	if err != nil {
		return classResult{failed: true}
	}
	return classResult{score: after.total - before.total, after: after.total}
}
