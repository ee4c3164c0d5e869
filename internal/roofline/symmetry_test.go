package roofline

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/machine"
)

// symmetryRound is the fuzz limb behind the class-reduced search: a
// demand set drawn with duplicates from a small alphabet of app kinds,
// on a random machine, checked two ways.
//
//	(a) Swapping the thread rows of two apps of the same kind leaves
//	    the total, weighted and max-min objective values bit-identical,
//	    under both Evaluate and the Evaluator.
//	(b) The search over each built-in objective equals the naive
//	    exhaustive scan with exact ==, counts and Result alike.
//
// Same-kind apps are interchangeable by construction, so (a) does not
// rely on the class key the search computes. Machines stay small
// (<= 4 nodes, <= 6 cores) so the naive recursion over up to 8 apps
// stays cheap inside the fuzz loop.
func symmetryRound(t *testing.T, r *rand.Rand) {
	t.Helper()
	nNodes := 1 + r.Intn(4)
	m := &machine.Machine{Name: "symmetry-rand"}
	for i := 0; i < nNodes; i++ {
		m.Nodes = append(m.Nodes, machine.Node{
			Cores:        2 + r.Intn(5),
			PeakGFLOPS:   1 + 10*r.Float64(),
			MemBandwidth: 4 + 40*r.Float64(),
		})
	}
	if r.Intn(2) == 0 {
		m.LinkBandwidth = make([][]float64, nNodes)
		for i := range m.LinkBandwidth {
			m.LinkBandwidth[i] = make([]float64, nNodes)
			for j := range m.LinkBandwidth[i] {
				if i != j {
					m.LinkBandwidth[i][j] = 1 + 20*r.Float64()
				}
			}
		}
	}
	kinds := make([]App, 1+r.Intn(3))
	for k := range kinds {
		kinds[k] = App{AI: pow2(r.Float64()*8 - 4), Weight: float64(r.Intn(4))}
		if r.Intn(3) == 0 {
			kinds[k].Placement = NUMABad
			kinds[k].HomeNode = machine.NodeID(r.Intn(nNodes))
		}
	}
	nApps := 2 + r.Intn(7)
	apps := make([]App, nApps)
	kindOf := make([]int, nApps)
	weights := make([]float64, nApps)
	for i := range apps {
		kindOf[i] = r.Intn(len(kinds))
		apps[i] = kinds[kindOf[i]]
		apps[i].Name = fmt.Sprintf("k%d-%d", kindOf[i], i)
		weights[i] = appWeight(apps[i])
	}
	objs := []struct {
		name string
		spec ObjectiveSpec
		obj  Objective
	}{
		{"total", ObjTotalGFLOPS, TotalGFLOPS},
		{"weighted", ObjWeightedPriority, WeightedAppGFLOPS(weights)},
		{"max-min", ObjMaxMinGFLOPS, MinAppGFLOPS},
	}

	// (a) Permutation invariance, on random and uniform allocations.
	ev, err := NewEvaluator(m, apps)
	if err != nil {
		t.Fatal(err)
	}
	evRes, evSwapped := &Result{}, &Result{}
	for trial := 0; trial < 6; trial++ {
		i, k := r.Intn(nApps), r.Intn(nApps)
		if i == k || kindOf[i] != kindOf[k] {
			continue
		}
		var al Allocation
		if trial%2 == 0 {
			al = randomAllocation(r, m, nApps)
		} else {
			left := m.Nodes[0].Cores
			for _, n := range m.Nodes[1:] {
				left = min(left, n.Cores)
			}
			counts := make([]int, nApps)
			for a := range counts {
				counts[a] = r.Intn(left + 1)
				left -= counts[a]
			}
			al = MustPerNodeCounts(m, counts)
		}
		swapped := al.Clone()
		swapped.Threads[i], swapped.Threads[k] = swapped.Threads[k], swapped.Threads[i]
		want, err := Evaluate(m, apps, al)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Evaluate(m, apps, swapped)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.EvaluateInto(evRes, al); err != nil {
			t.Fatal(err)
		}
		if err := ev.EvaluateInto(evSwapped, swapped); err != nil {
			t.Fatal(err)
		}
		for _, o := range objs {
			base := o.obj(want)
			for _, c := range []struct {
				path string
				res  *Result
			}{{"Evaluate", got}, {"Evaluator", evSwapped}, {"Evaluator unswapped", evRes}} {
				if v := o.obj(c.res); v != base {
					t.Fatalf("%s: swapping apps %d and %d of kind %d moves %s: %v -> %v (%s, allocation %v)",
						o.name, i, k, kindOf[i], o.name, base, v, c.path, al)
				}
			}
		}
	}

	// (b) Exactness of the class-reduced search.
	floor := r.Intn(2)
	var s Search
	for _, o := range objs {
		checkSearchMatchesNaive(t, fmt.Sprintf("symmetry %s floor=%d kinds=%v", o.name, floor, kindOf),
			&s, m, apps, o.spec, o.obj, floor)
	}
}

// TestInterchangeableAppsSymmetry replays symmetryRound over a seeded
// table, so the duplicate-class limb runs on every `go test` even
// without the fuzz corpus.
func TestInterchangeableAppsSymmetry(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			symmetryRound(t, rand.New(rand.NewSource(seed)))
		})
	}
}

// estimateLeaves is the closed-form size of the unreduced space:
// compositions of at most budget extra cores over n apps,
// C(budget+n, n), saturating at 2^40 like classLeaves. It is the
// reference classLeaves must match when no two apps are
// interchangeable.
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

// TestClassReducedLeafCount pins the reduced enumeration's size: a
// bound-free solve (max-min with its bound stripped) evaluates exactly
// classLeaves candidates, with the class members scattered rather than
// adjacent, and classLeaves agrees with the closed form when every
// class is a singleton.
func TestClassReducedLeafCount(t *testing.T) {
	m := machine.Uniform("wide", 4, 12, 10, 32, 0)
	mem := App{AI: 0.5}
	stream := App{AI: 1.0 / 32}
	bad := App{AI: 1.0 / 16, Placement: NUMABad, HomeNode: 2}
	heavy := App{AI: 0.5, Weight: 2} // same AI as mem, another class
	apps := []App{mem, stream, mem, bad, heavy, mem, stream, bad, mem}
	for i := range apps {
		apps[i].Name = fmt.Sprintf("a%d", i)
	}
	prevSame := appClasses(apps)
	if want := []int{-1, -1, 0, -1, -1, 2, 1, 3, 5}; !intsEqual(prevSame, want) {
		t.Fatalf("prevSame = %v, want %v", prevSame, want)
	}
	for _, floor := range []int{0, 1} {
		spec := &countingSpec{ObjectiveSpec: strippedSpec{ObjMaxMinGFLOPS}}
		s := Search{Parallelism: 1}
		if _, _, _, err := s.BestPerNodeCountsFloorSpec(spec, nil, m, apps, floor); err != nil {
			t.Fatal(err)
		}
		budget := m.Nodes[0].Cores - floor*len(apps)
		if got, want := spec.leaves.Load(), classLeaves(budget, prevSame); got != want {
			t.Errorf("floor %d: %d leaves evaluated, classLeaves says %d", floor, got, want)
		}
		if full := estimateLeaves(budget, len(apps)); spec.leaves.Load() >= full && budget > 0 {
			t.Errorf("floor %d: %d leaves, no fewer than the unreduced %d", floor, spec.leaves.Load(), full)
		}
	}
	for n := 1; n <= 6; n++ {
		distinct := make([]int, n)
		for i := range distinct {
			distinct[i] = -1
		}
		for budget := 0; budget <= 10; budget++ {
			if got, want := classLeaves(budget, distinct), estimateLeaves(budget, n); got != want {
				t.Errorf("classLeaves(%d, %d singletons) = %d, want C(%d+%d, %d) = %d", budget, n, got, budget, n, n, want)
			}
		}
	}
}

// TestAscendingSum checks the canonical sum against a sorted reference
// sum, bit for bit, on duplicate-heavy inputs on either side of the
// stack buffer's size, and that swapping two apps' terms (value and
// weight together) leaves it unchanged.
func TestAscendingSum(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(70)
		g := make([]float64, n)
		for i := range g {
			g[i] = float64(r.Intn(5)) * pow2(r.Float64()*6-3)
		}
		w := make([]float64, r.Intn(n+1))
		for i := range w {
			w[i] = float64(1 + r.Intn(3))
		}
		terms := make([]float64, n)
		for i := range g {
			terms[i] = g[i]
			if i < len(w) {
				terms[i] *= w[i]
			}
		}
		sort.Float64s(terms)
		want := 0.0
		for _, x := range terms {
			want += x
		}
		if got := ascendingSum(w, g); got != want {
			t.Fatalf("trial %d (n=%d): ascending sum %v, sorted reference %v", trial, n, got, want)
		}
		if n >= 2 && len(w) == n {
			i, k := r.Intn(n), r.Intn(n)
			g[i], g[k] = g[k], g[i]
			w[i], w[k] = w[k], w[i]
			if got := ascendingSum(w, g); got != want {
				t.Fatalf("trial %d: permuted sum %v, want %v", trial, got, want)
			}
		}
	}
}
