package roofline

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/machine"
)

// checkSpecMatches solves (m, apps, floor) through spec and through a
// reference path and demands bit-identical counts and Results (or the
// same error). ref is typically the naive exhaustive scan (see naive)
// or the same spec stripped of its bound (see unpruned; for
// bound-admissibility: pruned and unpruned search must agree).
func checkSpecMatches(t *testing.T, label string, s *Search, spec ObjectiveSpec,
	m *machine.Machine, apps []App, floor int,
	ref func() ([]int, *Result, error)) {
	t.Helper()
	gotCounts, _, gotRes, gotErr := s.BestPerNodeCountsFloorSpec(spec, nil, m, apps, floor)
	wantCounts, wantRes, wantErr := ref()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error mismatch: spec %v, ref %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !intsEqual(gotCounts, wantCounts) {
		t.Fatalf("%s: counts mismatch: spec %v, ref %v", label, gotCounts, wantCounts)
	}
	if d := diffResults(gotRes, wantRes); d != "" {
		t.Fatalf("%s: result mismatch: %s", label, d)
	}
}

// strippedSpec is spec with its bound removed: the search enumerates
// every candidate unpruned, so it is exact for any objective and serves
// as the admissibility oracle for the spec's bound.
type strippedSpec struct{ ObjectiveSpec }

func (strippedSpec) Bound(*machine.Machine, []App) BoundFunc { return nil }

// naive is the checkSpecMatches reference for the naive exhaustive
// scan under obj.
func naive(m *machine.Machine, apps []App, obj Objective, floor int) func() ([]int, *Result, error) {
	return func() ([]int, *Result, error) { return naiveBestPerNodeCountsFloor(m, apps, obj, floor) }
}

// unpruned is the checkSpecMatches reference for spec solved with its
// bound stripped.
func unpruned(s *Search, spec ObjectiveSpec, m *machine.Machine, apps []App, floor int) func() ([]int, *Result, error) {
	return func() ([]int, *Result, error) {
		counts, _, res, err := s.BestPerNodeCountsFloorSpec(strippedSpec{spec}, nil, m, apps, floor)
		return counts, res, err
	}
}

func TestObjectiveSpecByName(t *testing.T) {
	for _, name := range []string{"", "total-gflops", "weighted-priority", "max-min"} {
		if _, err := ObjectiveSpecByName(name); err != nil {
			t.Fatalf("ObjectiveSpecByName(%q): %v", name, err)
		}
	}
	if spec, _ := ObjectiveSpecByName(""); spec.Name() != "total-gflops" {
		t.Fatalf("empty name resolved to %q, want total-gflops", spec.Name())
	}
	if _, err := ObjectiveSpecByName("bogus"); err == nil {
		t.Fatal("ObjectiveSpecByName(bogus): want error")
	}
}

// TestTotalSpecBitIdenticalToLegacySearch pins the total-GFLOPS spec
// to the naive exhaustive scan under the bare TotalGFLOPS objective the
// historical entry points took, on every paper fixture and floor.
func TestTotalSpecBitIdenticalToLegacySearch(t *testing.T) {
	var s Search
	cases := []struct {
		name string
		m    *machine.Machine
		apps []App
	}{
		{"paper-model", machine.PaperModel(), paperApps()},
		{"paper-model-bad", machine.PaperModelNUMABad(), numaBadApps()},
		{"skylake", machine.SkylakeQuad(), tableIIIApps()},
		{"skylake-bad", machine.SkylakeQuad(), tableIIIBadApps()},
	}
	for _, c := range cases {
		for _, floor := range []int{0, 1, 2} {
			label := fmt.Sprintf("%s/floor=%d", c.name, floor)
			checkSpecMatches(t, label, &s, ObjTotalGFLOPS, c.m, c.apps, floor,
				naive(c.m, c.apps, TotalGFLOPS, floor))
		}
	}
}

// TestWeightedBoundAdmissiblePaperFixtures checks the weighted-priority
// bound differentially: the pruned solve must return exactly what the
// unpruned enumeration of the same objective returns. A single
// disagreement would mean the bound cut off an optimum, i.e. it is not
// admissible.
func TestWeightedBoundAdmissiblePaperFixtures(t *testing.T) {
	var s Search
	weightSets := [][]float64{
		{},                 // all unset: weighted must equal plain total
		{4, 1, 1, 1},       // one prioritized app
		{1, 2, 4, 8},       // geometric spread
		{8, 8, 1, 1},       // two classes
		{0.5, 1, 1, 0.125}, // fractional weights
	}
	for wi, weights := range weightSets {
		apps := paperApps()
		for i := range apps {
			if i < len(weights) {
				apps[i].Weight = weights[i]
			}
		}
		for _, floor := range []int{0, 1} {
			label := fmt.Sprintf("weights=%d/floor=%d", wi, floor)
			checkSpecMatches(t, label, &s, ObjWeightedPriority,
				machine.PaperModel(), apps, floor,
				unpruned(&s, ObjWeightedPriority, machine.PaperModel(), apps, floor))
		}
	}
}

// TestMaxMinSpecMatchesLegacyObjective: the bound-free max-min spec
// must land exactly where the naive scan under the bare MinAppGFLOPS
// objective does.
func TestMaxMinSpecMatchesLegacyObjective(t *testing.T) {
	var s Search
	m := machine.PaperModel()
	apps := paperApps()
	for _, floor := range []int{0, 1} {
		checkSpecMatches(t, fmt.Sprintf("max-min/floor=%d", floor), &s, ObjMaxMinGFLOPS, m, apps, floor,
			naive(m, apps, MinAppGFLOPS, floor))
	}
}

// TestWeightedSpecPrefersPrioritizedApp is a semantic smoke test: under
// a strongly skewed weight the optimizer should never hand the
// prioritized app less throughput than the unweighted optimum does.
func TestWeightedSpecPrefersPrioritizedApp(t *testing.T) {
	var s Search
	m := machine.PaperModel()
	base := paperApps()
	_, _, plainRes, err := s.BestPerNodeCountsFloorSpec(ObjTotalGFLOPS, nil, m, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	weighted := paperApps()
	weighted[0].Weight = 64
	_, _, wRes, err := s.BestPerNodeCountsFloorSpec(ObjWeightedPriority, nil, m, weighted, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wRes.AppGFLOPS[0] < plainRes.AppGFLOPS[0] {
		t.Fatalf("weighted optimum gives app0 %.3f GFLOPS, below unweighted %.3f",
			wRes.AppGFLOPS[0], plainRes.AppGFLOPS[0])
	}
}

// TestWeightedBoundAdmissibleRandomized fuzzes the admissibility check
// over random machines, app mixes, and weights.
func TestWeightedBoundAdmissibleRandomized(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		objectiveRound(t, r)
	}
}

// objectiveRound is one randomized objective-equivalence check, also
// wired into FuzzEvaluatorEquivalence so the checked-in corpus replays
// it: (1) total-GFLOPS through the spec interface vs the naive scan,
// (2) weighted-priority pruned vs unpruned, (3) max-min spec vs the
// naive scan under MinAppGFLOPS — all bit-identical. Machines stay
// small so the unpruned references stay cheap.
func objectiveRound(t *testing.T, r *rand.Rand) {
	t.Helper()
	nNodes := 2 + r.Intn(2)
	m := &machine.Machine{Name: "obj-rand"}
	for i := 0; i < nNodes; i++ {
		m.Nodes = append(m.Nodes, machine.Node{
			Cores:        2 + r.Intn(4),
			PeakGFLOPS:   1 + 10*r.Float64(),
			MemBandwidth: 4 + 40*r.Float64(),
		})
	}
	nApps := 2 + r.Intn(3)
	apps := make([]App, nApps)
	for i := range apps {
		apps[i] = App{Name: fmt.Sprintf("oapp%d", i), AI: pow2(r.Float64()*8 - 4)}
		if r.Intn(3) > 0 {
			apps[i].Weight = pow2(float64(r.Intn(7) - 3))
		}
	}
	if r.Intn(2) == 0 {
		bad := r.Intn(nApps)
		apps[bad].Placement = NUMABad
		apps[bad].HomeNode = machine.NodeID(r.Intn(nNodes))
	}
	floor := r.Intn(2)
	var s Search
	checkSpecMatches(t, fmt.Sprintf("rand/total floor=%d", floor), &s, ObjTotalGFLOPS, m, apps, floor,
		naive(m, apps, TotalGFLOPS, floor))
	checkSpecMatches(t, fmt.Sprintf("rand/weighted floor=%d", floor), &s, ObjWeightedPriority, m, apps, floor,
		unpruned(&s, ObjWeightedPriority, m, apps, floor))
	checkSpecMatches(t, fmt.Sprintf("rand/max-min floor=%d", floor), &s, ObjMaxMinGFLOPS, m, apps, floor,
		naive(m, apps, MinAppGFLOPS, floor))
}
