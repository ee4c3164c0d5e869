package roofline

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
)

// countingSpec wraps a spec and counts the search's work: objective
// evaluations, which the search makes once per leaf it does not prune,
// and bound calls. It returns the wrapped values unchanged, and a nil
// bound stays nil.
type countingSpec struct {
	ObjectiveSpec
	leaves, bounds atomic.Int64
}

func (c *countingSpec) Objective(apps []App) Objective {
	obj := c.ObjectiveSpec.Objective(apps)
	return func(r *Result) float64 {
		c.leaves.Add(1)
		return obj(r)
	}
}

func (c *countingSpec) Bound(m *machine.Machine, apps []App) BoundFunc {
	inner := c.ObjectiveSpec.Bound(m, apps)
	if inner == nil {
		return nil
	}
	return func(counts []int, pos, rem int) float64 {
		c.bounds.Add(1)
		return inner(counts, pos, rem)
	}
}

// checkBoundPointwise walks every uniform per-node counts vector of
// (m, apps) at floor and checks spec's bound at every prefix of it: the
// bound of counts[0..pos-1] with rem cores left must be no smaller than
// the best objective over all completions, less boundSlack. The search
// calls the bound at leaves with rem 0, and with counts[pos:] holding
// whatever earlier branches left there, so the walk does both. Unlike a
// pruned-vs-unpruned comparison, which sees an inadmissible bound only
// when it moves the argmax, this sees every prefix.
func checkBoundPointwise(t *testing.T, label string, spec ObjectiveSpec, m *machine.Machine, apps []App, floor int) {
	t.Helper()
	bound := spec.Bound(m, apps)
	if bound == nil {
		t.Fatalf("%s: %s has no bound", label, spec.Name())
	}
	obj := spec.Objective(apps)
	capCores := m.Nodes[0].Cores
	for _, n := range m.Nodes[1:] {
		capCores = min(capCores, n.Cores)
	}
	n := len(apps)
	counts := make([]int, n)
	var rec func(pos, rem int) float64
	rec = func(pos, rem int) float64 {
		best := math.Inf(-1)
		if pos == n {
			rem = 0
			if res, err := Evaluate(m, apps, MustPerNodeCounts(m, counts)); err == nil {
				best = obj(res)
			}
		} else {
			for c := floor; c <= rem; c++ {
				counts[pos] = c
				best = max(best, rec(pos+1, rem-c))
			}
		}
		if !math.IsInf(best, -1) {
			if ub := bound(counts, pos, rem); !(ub >= best-boundSlack) {
				t.Fatalf("%s: %s bound %v at counts %v pos %d rem %d, below the best completion %v",
					label, spec.Name(), ub, counts[:pos], pos, rem, best)
			}
		}
		return best
	}
	rec(0, capCores)
}

var builtinSpecs = []ObjectiveSpec{ObjTotalGFLOPS, ObjWeightedPriority, ObjMaxMinGFLOPS}

// boundRound is the pointwise admissibility limb of
// FuzzEvaluatorEquivalence: a small random machine (heterogeneous
// nodes and link limits possible), 2-4 apps with NUMA-bad ones on
// random homes and weights 0-16, every built-in spec, floor 0 or 1.
func boundRound(t *testing.T, r *rand.Rand) {
	t.Helper()
	nNodes := 1 + r.Intn(4)
	m := &machine.Machine{Name: "bound-rand"}
	hetero := r.Intn(2) == 0
	for i := 0; i < nNodes; i++ {
		n := machine.Node{Cores: 2 + r.Intn(3), PeakGFLOPS: 1 + 10*r.Float64(), MemBandwidth: 4 + 60*r.Float64()}
		if i > 0 && !hetero {
			n = m.Nodes[0]
		}
		m.Nodes = append(m.Nodes, n)
	}
	if r.Intn(2) == 0 {
		m.LinkBandwidth = make([][]float64, nNodes)
		for i := range m.LinkBandwidth {
			m.LinkBandwidth[i] = make([]float64, nNodes)
			for j := range m.LinkBandwidth[i] {
				if i != j {
					m.LinkBandwidth[i][j] = 1 + 30*r.Float64()
				}
			}
		}
	}
	apps := randomBoundApps(r, nNodes, 2+r.Intn(3))
	floor := r.Intn(2)
	for _, spec := range builtinSpecs {
		checkBoundPointwise(t, fmt.Sprintf("rand nodes=%d floor=%d", nNodes, floor), spec, m, apps, floor)
	}
}

// randomBoundApps draws n apps: log-uniform AI over 2^-5..2^4, about
// half NUMA-bad on random homes, weights 0 (that is 1) to 16.
func randomBoundApps(r *rand.Rand, nNodes, n int) []App {
	apps := make([]App, n)
	for i := range apps {
		apps[i] = App{Name: fmt.Sprintf("b%d", i), AI: pow2(r.Float64()*9 - 5), Weight: float64(r.Intn(17))}
		if r.Intn(2) == 0 {
			apps[i].Placement = NUMABad
			apps[i].HomeNode = machine.NodeID(r.Intn(nNodes))
		}
	}
	return apps
}

// TestBoundAdmissiblePointwise runs the pointwise admissibility check
// over seeded random instances and over the link-limited presets and a
// heterogeneous-node machine, with NUMA-bad apps on several homes.
func TestBoundAdmissiblePointwise(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		boundRound(t, rand.New(rand.NewSource(seed)))
	}
	hetero := &machine.Machine{Name: "hetero", Nodes: []machine.Node{
		{Cores: 6, PeakGFLOPS: 10, MemBandwidth: 32},
		{Cores: 4, PeakGFLOPS: 4, MemBandwidth: 50},
		{Cores: 5, PeakGFLOPS: 20, MemBandwidth: 20},
	}, LinkBandwidth: [][]float64{{0, 8, 12}, {6, 0, 9}, {15, 3, 0}}}
	machines := []*machine.Machine{machine.PaperModelNUMABad(), machine.SkylakeQuad(), machine.KNLSNC4(), hetero}
	r := rand.New(rand.NewSource(7))
	for _, m := range machines {
		for trial := 0; trial < 3; trial++ {
			apps := randomBoundApps(r, m.NumNodes(), 3)
			// At least two NUMA-bad apps on different homes.
			apps[0].Placement, apps[0].HomeNode = NUMABad, 0
			apps[1].Placement, apps[1].HomeNode = NUMABad, machine.NodeID(1+r.Intn(m.NumNodes()-1))
			for _, floor := range []int{0, 1} {
				for _, spec := range builtinSpecs {
					checkBoundPointwise(t, fmt.Sprintf("%s trial=%d floor=%d", m.Name, trial, floor), spec, m, apps, floor)
				}
			}
		}
	}
	// The dense fixture itself: every class, three homes, a floor-0
	// solve on the paper machine (C(21, 13) leaves, about a second),
	// and its weighted variant on a 4x4 cut of that machine.
	checkBoundPointwise(t, "dense13", ObjTotalGFLOPS, machine.PaperModel(), denseThirteen(), 0)
	weighted := denseThirteen()[:8]
	weighted[0].Weight, weighted[1].Weight = 16, 4
	checkBoundPointwise(t, "dense8 weighted 4x4", ObjWeightedPriority, machine.Uniform("paper-4x4", 4, 4, 10, 32, 0), weighted, 0)
}

// TestSearchWorkCounts pins the deterministic work of five solves at
// Parallelism 1: evaluated leaves and bound calls. The counts depend
// only on the enumeration order and the bounds, so a change to either
// shows here exactly, not as wall-clock noise. Under the plain greedy
// bound (no forced term) the dense floor-0 solve evaluated 2715 leaves
// over 18,413 bound calls, and its weighted variant 11,611 over 59,095;
// the forced baseline consumption prunes nearly all of them. Table I
// and the eight-app mix do the same work as before: their pruning is
// already decided by compute caps. The max-min solve ran unpruned, 136
// leaves and no bound calls, before it had a bound.
func TestSearchWorkCounts(t *testing.T) {
	weightedDense := denseThirteen()
	weightedDense[0].Weight, weightedDense[1].Weight = 16, 4
	cases := []struct {
		name           string
		m              *machine.Machine
		apps           []App
		spec           ObjectiveSpec
		floor          int
		leaves, bounds int64
	}{
		{"dense13 floor 0", machine.PaperModel(), denseThirteen(), ObjTotalGFLOPS, 0, 64, 1932},
		{"dense13 weighted floor 0", machine.PaperModel(), weightedDense, ObjWeightedPriority, 0, 210, 8974},
		{"table I", machine.PaperModel(), paperApps(), ObjTotalGFLOPS, 1, 5, 38},
		{"eight-app mix", machine.SkylakeQuad(), eightAppMix(), ObjTotalGFLOPS, 1, 4353, 24687},
		{"table I max-min floor 0", machine.PaperModel(), paperApps(), ObjMaxMinGFLOPS, 0, 121, 206},
	}
	for _, c := range cases {
		spec := &countingSpec{ObjectiveSpec: c.spec}
		s := Search{Parallelism: 1}
		if _, _, _, err := s.BestPerNodeCountsFloorSpec(spec, nil, c.m, c.apps, c.floor); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := spec.leaves.Load(); got != c.leaves {
			t.Errorf("%s: %d leaves evaluated, want %d", c.name, got, c.leaves)
		}
		if got := spec.bounds.Load(); got != c.bounds {
			t.Errorf("%s: %d bound calls, want %d", c.name, got, c.bounds)
		}
	}
}
