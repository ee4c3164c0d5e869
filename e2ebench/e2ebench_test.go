package main

import (
	"context"
	"encoding/json"
	"maps"
	"math"
	"os"
	"testing"
)

// testOps keeps each workload's determinism runs short while still
// covering its distinctive paths: a gang and two rebalance rounds on
// fleet-place, a whole-domain isolation on fleet-failover.
var testOps = map[string]int{
	"machine-dense":  24,
	"fleet-place":    50,
	"fleet-failover": 4,
}

func runFixed(t *testing.T, name string, seed int64, trace bool) *outcome {
	t.Helper()
	cfg := runConfig{seed: seed, maxOps: testOps[name], trace: trace, setupReps: 1}
	oc, err := workloads[name].run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
	}
	if oc.attempted != testOps[name] || oc.failed != 0 {
		t.Fatalf("%s seed %d: %d ops attempted, %d failed; want %d and 0", name, seed, oc.attempted, oc.failed, testOps[name])
	}
	return oc
}

// TestDeterminism pins what a seed fixes: the same seed gives the same
// op sequence, model aggregate and rebalance moves; another seed gives
// another op sequence; and the traced run, whose counting objective
// wraps the Scorer's, decides exactly as the untraced run does.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"machine-dense", "fleet-place", "fleet-failover"} {
		t.Run(name, func(t *testing.T) {
			a := runFixed(t, name, 1, false)
			b := runFixed(t, name, 1, false)
			if a.digest != b.digest {
				t.Errorf("same seed, different op sequences")
			}
			if mean(a.gflops) != mean(b.gflops) {
				t.Errorf("same seed, model aggregate %v vs %v", mean(a.gflops), mean(b.gflops))
			}
			if !maps.Equal(a.moves, b.moves) {
				t.Errorf("same seed, moves %v vs %v", a.moves, b.moves)
			}
			if c := runFixed(t, name, 2, false); c.digest == a.digest {
				t.Errorf("seeds 1 and 2 generate the same op sequence")
			}
			traced := runFixed(t, name, 1, true)
			if traced.digest != a.digest || mean(traced.gflops) != mean(a.gflops) || !maps.Equal(traced.moves, a.moves) {
				t.Errorf("tracing changed a decision: model %v vs %v, moves %v vs %v",
					mean(traced.gflops), mean(a.gflops), traced.moves, a.moves)
			}
			if len(traced.spans) == 0 || len(traced.layers) == 0 {
				t.Errorf("traced run recorded %d spans and %d layer metrics", len(traced.spans), len(traced.layers))
			}
		})
	}
}

// TestRoundSplitAddsUp checks that the traced fleet-failover run splits
// Rebalancer.Round time into roofline solves, coopd requests and fleet
// self time that together account for the Round span.
func TestRoundSplitAddsUp(t *testing.T) {
	oc := runFixed(t, "fleet-failover", 3, true)
	var sum float64
	for _, part := range []string{"roofline", "coopd", "self"} {
		ms := oc.layers["fleet.round_"+part+"_ms.mean"]
		if ms <= 0 {
			t.Errorf("Round time in %s is %v ms", part, ms)
		}
		sum += ms
	}
	if total := oc.layers["fleet.round_ms.mean"]; math.Abs(sum-total) > 1e-9*total {
		t.Errorf("Round parts add up to %v ms of %v ms", sum, total)
	}
}

// TestTracerParents checks the containment rule that assigns parents.
func TestTracerParents(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "client.op", Start: 0, End: 100},
		{Name: "fleetd.place", Start: 10, End: 90},
		{Name: "roofline.solve", Start: 20, End: 40},
		{Name: "coopd.client.write.register", Start: 50, End: 80},
		{Name: "coopd.handler.write.register", Start: 55, End: 75},
		{Name: "client.op", Start: 120, End: 130},
	}
	got := map[string]int{}
	for _, s := range tr.finish() {
		got[s.Name] += s.Parent
	}
	want := map[string]int{
		"client.op": 0, "fleetd.place": 1, "roofline.solve": 2,
		"coopd.client.write.register": 2, "coopd.handler.write.register": 4,
	}
	if !maps.Equal(got, want) {
		t.Errorf("parents %v, want %v", got, want)
	}
	ix := indexSpans(tr.finish())
	place := &ix.spans[1]
	// fleetd.place spans 80ns; its children cover 20ns and 30ns.
	if self := ix.selfMs(place); math.Abs(self-30e-6) > 1e-12 {
		t.Errorf("self time %v ms, want 30e-6", self)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metric
// lists in step with what the benchmark emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	check := func(what string, got []entry, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark emits %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
