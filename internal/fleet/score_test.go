package fleet

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/roofline"
)

// near checks a GFLOPS value against a hand-derived paper-model figure.
func near(got, want float64) bool { return math.Abs(got-want) < 0.5 }

func mustRoofline(t *testing.T, s AppSpec) roofline.App {
	t.Helper()
	app, err := s.rooflineApp()
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestScorerSolveTotalPaperModel pins the hand-derived optima on the
// paper's 4-node x 8-core machine (peak 10 GFLOPS/core, 32 GB/s/node):
// a lone memory-bound app saturates node bandwidth at 64 GFLOPS, the
// {mem, comp} pair fills each node to its 80 GFLOPS peak, and each
// additional memory-bound app steals a compute core (Table I's mix of
// three of them lands at 254).
func TestScorerSolveTotalPaperModel(t *testing.T) {
	m := machine.PaperModel()
	sc := NewScorer()
	cases := []struct {
		name string
		mem  int
		comp int
		want float64
	}{
		{"empty", 0, 0, 0},
		{"mem", 1, 0, 64},
		{"4mem", 4, 0, 64},
		{"mem+comp", 1, 1, 320},
		{"2mem+comp", 2, 1, 292},
		{"3mem+comp", 3, 1, 254},
		{"4mem+comp", 4, 1, 216},
	}
	for _, tc := range cases {
		var demand []roofline.App
		for i := 0; i < tc.mem; i++ {
			demand = append(demand, mustRoofline(t, memSpec("mem")))
		}
		for i := 0; i < tc.comp; i++ {
			demand = append(demand, mustRoofline(t, compSpec("comp")))
		}
		got, err := sc.SolveTotal(m, demand)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !near(got, tc.want) {
			t.Errorf("%s: solved %g GFLOPS, want ~%g", tc.name, got, tc.want)
		}
	}
}

// TestScorerMarginal checks the placement score is the aggregate delta:
// a compute-bound app arriving on a machine already running one
// memory-bound app is worth +256 (64 -> 320), while a second
// memory-bound app on the same machine is worth nothing (bandwidth is
// already saturated).
func TestScorerMarginal(t *testing.T) {
	m := machine.PaperModel()
	sc := NewScorer()
	base := []roofline.App{mustRoofline(t, memSpec("mem"))}

	marginal, after, err := sc.Marginal(m, base, mustRoofline(t, compSpec("comp")))
	if err != nil {
		t.Fatal(err)
	}
	if !near(marginal, 256) || !near(after, 320) {
		t.Errorf("comp onto {mem}: marginal %g after %g, want ~256 / ~320", marginal, after)
	}

	marginal, after, err = sc.Marginal(m, base, mustRoofline(t, memSpec("mem-2")))
	if err != nil {
		t.Fatal(err)
	}
	if !near(marginal, 0) || !near(after, 64) {
		t.Errorf("mem onto {mem}: marginal %g after %g, want ~0 / ~64", marginal, after)
	}
}

// naiveSolveTotal replicates the fleet solve semantics straight against
// the roofline search, bypassing the Scorer's memo — the reference the
// equivalence-class dedup is checked against.
func naiveSolveTotal(t *testing.T, m *machine.Machine, demand []roofline.App) float64 {
	t.Helper()
	if len(demand) == 0 {
		return 0
	}
	var s roofline.Search
	_, _, res, err := s.BestPerNodeCountsFloorSpec(roofline.ObjTotalGFLOPS, nil, m, demand, 1)
	if err == roofline.ErrNoAllocation {
		_, _, res, err = s.BestPerNodeCountsFloorSpec(roofline.ObjTotalGFLOPS, nil, m, demand, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res.TotalGFLOPS
}

// TestDecideMatchesNaivePerMachineScoring checks the equivalence-class
// memoized decide against an unmemoized per-candidate scoring loop: the
// chosen member, score, and after must be bitwise what a cold
// per-machine marginal scan produces. Members deliberately mix repeated
// and unique (topology, demand) classes plus a numa-bad host, and the
// same members are decided twice so the second pass runs entirely from
// the fleet-wide memo.
func TestDecideMatchesNaivePerMachineScoring(t *testing.T) {
	members := []Member{
		{ID: "a", Topology: machine.PaperModel(), Apps: []PlacedApp{
			{ID: "a-1", Name: "mem", AI: 0.5}}},
		{ID: "b", Topology: machine.PaperModel(), Apps: []PlacedApp{ // same class as a
			{ID: "b-1", Name: "mem", AI: 0.5}}},
		{ID: "c", Topology: machine.PaperModel(), Apps: []PlacedApp{ // heavier class
			{ID: "c-1", Name: "mem", AI: 0.5}, {ID: "c-2", Name: "comp", AI: 10}}},
		{ID: "d", Topology: machine.SkylakeQuad(), Apps: []PlacedApp{ // different topo, same demand as a
			{ID: "d-1", Name: "mem", AI: 0.5}}},
		{ID: "e", Topology: machine.PaperModel(), Apps: []PlacedApp{ // numa-bad host
			{ID: "e-1", Name: "bad", AI: 0.5, Placement: "numa-bad", HomeNode: 1}}},
	}
	specs := []AppSpec{
		{Name: "incoming", AI: 2},
		{Name: "incoming-mem", AI: 1.0 / 32},
		{Name: "incoming-bad", AI: 0.25, Placement: "numa-bad", HomeNode: 0},
	}
	for _, spec := range specs {
		// Naive reference: independent solves per candidate, identical
		// selection rule.
		app := mustRoofline(t, spec)
		cands := candidatesFrom(members)
		pool := cands
		if spec.numaBad() {
			var clean []*candidate
			for _, c := range pool {
				if c.bad == 0 {
					clean = append(clean, c)
				}
			}
			if len(clean) > 0 {
				pool = clean
			}
		}
		var want *candidate
		var wantScore, wantAfter float64
		for _, c := range pool {
			if spec.numaBad() && (spec.HomeNode < 0 || spec.HomeNode >= c.topo.NumNodes()) {
				continue
			}
			before := naiveSolveTotal(t, c.topo, c.demand)
			with := append(append([]roofline.App(nil), c.demand...), app)
			after := naiveSolveTotal(t, c.topo, with)
			score := after - before
			switch {
			case want == nil, score > wantScore+scoreTieEps:
				want, wantScore, wantAfter = c, score, after
			case score > wantScore-scoreTieEps && c.apps < want.apps:
				want, wantScore, wantAfter = c, score, after
			}
		}
		if want == nil {
			t.Fatalf("%s: naive scan found no candidate", spec.Name)
		}

		sc := NewScorer()
		for pass := 0; pass < 2; pass++ { // pass 1 runs fully memoized
			d, _, err := sc.decide(spec, candidatesFrom(members))
			if err != nil {
				t.Fatalf("%s pass %d: %v", spec.Name, pass, err)
			}
			if d.Member != want.id || d.Score != wantScore || d.After != wantAfter {
				t.Errorf("%s pass %d: decide chose %s (score %v after %v), naive chose %s (score %v after %v)",
					spec.Name, pass, d.Member, d.Score, d.After, want.id, wantScore, wantAfter)
			}
		}
	}
}

// TestScorerClassDedup pins the memo behaviour decide relies on: a
// fleet of interchangeable machines costs one solve pair on the first
// decision (every further candidate hits the per-decision class map),
// and a repeat decision against the unchanged fleet is solve-free —
// pure LRU hits.
func TestScorerClassDedup(t *testing.T) {
	members := make([]Member, 16)
	for i := range members {
		id := string(rune('a' + i))
		members[i] = Member{ID: "m-" + id, Topology: machine.PaperModel(), Apps: []PlacedApp{
			{ID: id + "-1", Name: "mem", AI: 0.5}}}
	}
	sc := NewScorer()
	spec := AppSpec{Name: "incoming", AI: 2}
	if _, _, err := sc.decide(spec, candidatesFrom(members)); err != nil {
		t.Fatal(err)
	}
	hits, misses := sc.CacheStats()
	if misses != 2 { // one before-solve, one after-solve for the single class
		t.Errorf("first decision: %d memo misses, want 2 (hits %d)", misses, hits)
	}
	if _, _, err := sc.decide(spec, candidatesFrom(members)); err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := sc.CacheStats()
	if misses2 != misses {
		t.Errorf("repeat decision re-solved: misses %d -> %d", misses, misses2)
	}
	if hits2 != hits+2 {
		t.Errorf("repeat decision: hits %d -> %d, want +2", hits, hits2)
	}
}
