package main

import (
	"context"

	"repro/internal/ctrlplane/client"
	"repro/internal/fleet"
)

// perLayer lists the traced run's metrics, in BENCHMARK.json order. A
// metric a workload does not exercise reads 0 on it (machine-dense has
// no fleet; only fleet-place calls Inventory.Poll directly).
var perLayer = []struct{ name, unit string }{
	{"roofline.solves_per_op", "count"},
	{"roofline.solve_ms.p50", "ms"},
	{"roofline.solve_ms.p99", "ms"},
	{"roofline.leaves_per_solve", "count"},
	{"roofline.bound_calls_per_solve", "count"},
	{"roofline.leaf_eval_ratio", "ratio"},
	{"roofline.floor0_share", "ratio"},
	{"roofline.eval_ns", "ns"},
	{"roofline.eval_memo_hit_ratio", "ratio"},
	{"coopd.write_ms.p50", "ms"},
	{"coopd.write_ms.p99", "ms"},
	{"coopd.read_ms.p50", "ms"},
	{"coopd.read_ms.p99", "ms"},
	{"coopd.handler_ms.p50", "ms"},
	{"coopd.transport_ms.p50", "ms"},
	{"coopd.cache_hit_ratio", "ratio"},
	{"coopd.coalesced", "count"},
	{"coopd.requests_per_op", "count"},
	{"fleetd.place_handler_ms.p50", "ms"},
	{"fleetd.place_handler_ms.p99", "ms"},
	{"fleetd.place_self_ms.p50", "ms"},
	{"fleetd.gang_ms.p50", "ms"},
	{"fleet.scorer_hit_ratio", "ratio"},
	{"fleet.scorer_misses_per_op", "count"},
	{"fleet.poll_ms.p50", "ms"},
	{"fleet.poll_ms.p99", "ms"},
	{"fleet.round_self_ms.p50", "ms"},
	{"fleet.round_self_ms.p90", "ms"},
	{"fleet.round_ms.mean", "ms"},
	{"fleet.round_roofline_ms.mean", "ms"},
	{"fleet.round_coopd_ms.mean", "ms"},
	{"fleet.round_self_ms.mean", "ms"},
	{"fleet.moves.machine-lost", "count"},
	{"fleet.moves.preempt", "count"},
	{"fleet.moves.rebalance", "count"},
	{"fleet.moves.quarantine", "count"},
	{"fleet.stale_deregs", "count"},
	{"fleet.deferred", "count"},
	{"fleet.storm_rounds", "count"},
	{"traced.ops_per_s", "1/s"},
}

// coopdCounters sums the members' solver-cache counters from /metricsz.
type coopdCounters struct{ hits, misses, coalesced uint64 }

func readCoopdCounters(ctx context.Context, clis []*client.Client) (coopdCounters, error) {
	var c coopdCounters
	for _, cli := range clis {
		m, err := cli.Metrics(ctx)
		if err != nil {
			return c, err
		}
		c.hits += m.Solver.Hits
		c.misses += m.Solver.Misses
		c.coalesced += m.Solver.Coalesced
	}
	return c, nil
}

// coopdLayer fills the coopd metrics from spans and the counter delta
// over the timed phase.
func coopdLayer(layers map[string]float64, ix *spanIndex, before, after coopdCounters, ops int) {
	handler := ix.withPrefix("coopd.handler.")
	layers["coopd.write_ms.p50"] = quantile(durations(ix.withPrefix("coopd.handler.write.")), 0.50)
	layers["coopd.write_ms.p99"] = quantile(durations(ix.withPrefix("coopd.handler.write.")), 0.99)
	layers["coopd.read_ms.p50"] = quantile(durations(ix.withPrefix("coopd.handler.read.")), 0.50)
	layers["coopd.read_ms.p99"] = quantile(durations(ix.withPrefix("coopd.handler.read.")), 0.99)
	layers["coopd.handler_ms.p50"] = quantile(durations(handler), 0.50)
	var transport []float64
	for _, s := range ix.withPrefix("coopd.client.") {
		if len(ix.children[s.ID]) > 0 { // a request that reached the server
			transport = append(transport, ix.selfMs(s))
		}
	}
	layers["coopd.transport_ms.p50"] = quantile(transport, 0.50)
	hits := float64(after.hits - before.hits)
	misses := float64(after.misses - before.misses)
	layers["coopd.cache_hit_ratio"] = ratio(hits, hits+misses)
	layers["coopd.coalesced"] = float64(after.coalesced - before.coalesced)
	layers["coopd.requests_per_op"] = ratio(float64(len(handler)), float64(ops))
}

// searchLayer fills the roofline search counters.
func searchLayer(layers map[string]float64, st searchStats, ops int) {
	solves := float64(st.solves())
	layers["roofline.solves_per_op"] = ratio(solves, float64(ops))
	layers["roofline.leaves_per_solve"] = ratio(float64(st.leaves), solves)
	layers["roofline.bound_calls_per_solve"] = ratio(float64(st.bounds), solves)
	layers["roofline.leaf_eval_ratio"] = ratio(float64(st.leaves), float64(st.leafBounds))
	layers["roofline.floor0_share"] = ratio(float64(st.zeroLeaf), solves)
}

// fleetLayer fills the fleet, fleetd and fleet-side roofline metrics
// of the two fleet workloads.
func fleetLayer(layers map[string]float64, ix *spanIndex, st searchStats, scorerHits, scorerMisses uint64, ops int) {
	searchLayer(layers, st, ops)
	solve := durations(ix.named("roofline.solve"))
	layers["roofline.solve_ms.p50"] = quantile(solve, 0.50)
	layers["roofline.solve_ms.p99"] = quantile(solve, 0.99)

	place := ix.named("fleetd.place")
	layers["fleetd.place_handler_ms.p50"] = quantile(durations(place), 0.50)
	layers["fleetd.place_handler_ms.p99"] = quantile(durations(place), 0.99)
	// fleetd self time leaves out the coopd requests it makes; the
	// Scorer's solves are fleetd's own work here.
	var placeSelf []float64
	for _, s := range place {
		placeSelf = append(placeSelf, s.ms()-ix.childMs(s)["coopd"])
	}
	layers["fleetd.place_self_ms.p50"] = quantile(placeSelf, 0.50)
	layers["fleetd.gang_ms.p50"] = quantile(durations(ix.named("fleetd.gang")), 0.50)
	layers["fleet.scorer_hit_ratio"] = ratio(float64(scorerHits), float64(scorerHits+scorerMisses))
	layers["fleet.scorer_misses_per_op"] = ratio(float64(scorerMisses), float64(ops))

	poll := durations(ix.named("fleet.poll"))
	layers["fleet.poll_ms.p50"] = quantile(poll, 0.50)
	layers["fleet.poll_ms.p99"] = quantile(poll, 0.99)

	// A Round splits into the roofline solves and coopd requests it
	// makes and the rest, the fleet's own time; the three parts add
	// up to the Round span.
	var self []float64
	var total, roof, coop float64
	rounds := ix.named("fleet.round")
	for _, s := range rounds {
		kids := ix.childMs(s)
		self = append(self, ix.selfMs(s))
		total += s.ms()
		roof += kids["roofline"]
		coop += kids["coopd"]
	}
	layers["fleet.round_self_ms.p50"] = quantile(self, 0.50)
	layers["fleet.round_self_ms.p90"] = quantile(self, 0.90)
	n := float64(len(rounds))
	layers["fleet.round_ms.mean"] = ratio(total, n)
	layers["fleet.round_roofline_ms.mean"] = ratio(roof, n)
	layers["fleet.round_coopd_ms.mean"] = ratio(coop, n)
	layers["fleet.round_self_ms.mean"] = ratio(total-roof-coop, n)
}

// planTally accumulates the rebalance plans of the timed phase.
type planTally struct {
	moves                   map[string]int
	stale, deferred, storms int
}

func newPlanTally() *planTally { return &planTally{moves: map[string]int{}} }

func (t *planTally) add(p *fleet.Plan) {
	if p == nil {
		return
	}
	for _, mv := range p.Moves {
		t.moves[mv.Reason]++
	}
	t.stale += len(p.StaleDeregs)
	t.deferred += p.Deferred
	if p.StormActive {
		t.storms++
	}
}

func (t *planTally) fill(layers map[string]float64) {
	for _, r := range []string{fleet.ReasonMachineLost, fleet.ReasonPreempt, fleet.ReasonRebalance, fleet.ReasonQuarantine} {
		layers["fleet.moves."+r] = float64(t.moves[r])
	}
	layers["fleet.stale_deregs"] = float64(t.stale)
	layers["fleet.deferred"] = float64(t.deferred)
	layers["fleet.storm_rounds"] = float64(t.storms)
}
