package fleet

import (
	"context"
	"net/http"
	"testing"

	"repro/internal/faultinject"
)

// twoMachineFleet starts two coopd machines, registers the Table I mix
// (3 mem + 1 comp) entirely on machine a — the worst case a naive
// client fleet produces — and returns a polled inventory plus a
// rebalancer over it.
func twoMachineFleet(t *testing.T, maxMoves int) (*Inventory, *Rebalancer) {
	t.Helper()
	return twoMachineFleetVia(t, maxMoves, nil)
}

// twoMachineFleetVia is twoMachineFleet with the inventory's clients
// sending through rt (nil: the default transport).
func twoMachineFleetVia(t *testing.T, maxMoves int, rt http.RoundTripper) (*Inventory, *Rebalancer) {
	t.Helper()
	ctx := context.Background()
	a, b := newCoopd(t), newCoopd(t)
	inv := NewInventory(InventoryConfig{NewClient: fastClients(rt), FailAfter: 2})
	if err := inv.Add("a", a.URL); err != nil {
		t.Fatal(err)
	}
	if err := inv.Add("b", b.URL); err != nil {
		t.Fatal(err)
	}
	inv.Poll(ctx)
	cli, err := inv.Client("a")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []AppSpec{memSpec("mem-a"), memSpec("mem-b"), memSpec("mem-c"), compSpec("comp")} {
		if _, err := cli.Register(ctx, spec.registerRequest()); err != nil {
			t.Fatal(err)
		}
	}
	inv.Poll(ctx)
	sc := NewScorer()
	reb := &Rebalancer{
		Inv:              inv,
		Placer:           &Placer{Inv: inv, Scorer: sc, Logf: t.Logf},
		Scorer:           sc,
		MaxMovesPerRound: maxMoves,
		Logf:             t.Logf,
	}
	return inv, reb
}

// TestRebalanceClosesImbalanceGap: all four Table I apps piled on one
// machine solve to 254 GFLOPS while the greedy re-pack of the same apps
// over both machines reaches 384 ({comp, mem} at 320 + {mem, mem} at
// 64); the gap exceeds the 0.9 threshold, so the rebalancer moves two
// memory apps over — and the following round finds the fleet inside the
// threshold and leaves it alone (no churn at the fixed point).
func TestRebalanceClosesImbalanceGap(t *testing.T) {
	ctx := context.Background()
	inv, reb := twoMachineFleet(t, 4)

	plan, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !near(plan.CurrentGFLOPS, 254) || !near(plan.RepackGFLOPS, 384) {
		t.Fatalf("current %g / repack %g GFLOPS, want ~254 / ~384",
			plan.CurrentGFLOPS, plan.RepackGFLOPS)
	}
	if len(plan.Moves) != 2 || plan.Deferred != 0 {
		t.Fatalf("planned %d moves (%d deferred), want exactly 2", len(plan.Moves), plan.Deferred)
	}
	for _, mv := range plan.Moves {
		if mv.Reason != ReasonRebalance || mv.From != "a" || mv.To != "b" {
			t.Fatalf("move %+v, want rebalance a -> b", mv)
		}
	}

	inv.Poll(ctx)
	ma, _ := inv.Member("a")
	mb, _ := inv.Member("b")
	if len(ma.Apps) != 2 || len(mb.Apps) != 2 {
		t.Fatalf("apps after rebalance: a=%d b=%d, want 2/2", len(ma.Apps), len(mb.Apps))
	}
	if !near(ma.TotalGFLOPS+mb.TotalGFLOPS, 384) {
		t.Fatalf("aggregate %g after rebalance, want ~384", ma.TotalGFLOPS+mb.TotalGFLOPS)
	}

	again, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Moves) != 0 {
		t.Fatalf("steady state still churns: %+v", again.Moves)
	}
}

// TestRebalanceDrainThenPlaceRestoresSource: a rebalance move drains
// the app off its source before registering it on the target. When the
// target is cut off between Plan and Execute, the app must go back on
// its source rather than end up registered nowhere.
func TestRebalanceDrainThenPlaceRestoresSource(t *testing.T) {
	ctx := context.Background()
	part := faultinject.NewPartition()
	inv, reb := twoMachineFleetVia(t, 4, part.Transport(nil))
	plan, err := reb.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) == 0 {
		t.Fatal("no moves planned; the fixture should be imbalanced")
	}
	mb, _ := inv.Member("b")
	part.Isolate(hostOf(t, mb.Endpoints[0]))
	if err := reb.Execute(ctx, plan); err == nil {
		t.Fatal("Execute toward a cut-off target reported no error")
	}
	part.HealAll()
	inv.Poll(ctx)
	seen := map[string]int{}
	for _, id := range []string{"a", "b"} {
		m, _ := inv.Member(id)
		for _, app := range m.Apps {
			seen[app.Name]++
		}
	}
	for _, name := range []string{"mem-a", "mem-b", "mem-c", "comp"} {
		if seen[name] != 1 {
			t.Errorf("%s registered %d times after the failed moves, want 1 (registry %v)", name, seen[name], seen)
		}
	}
}

// TestRebalanceBoundsMovesPerRound: with the per-round cap at 1, the
// same imbalance is closed one move at a time, reporting the deferred
// remainder.
func TestRebalanceBoundsMovesPerRound(t *testing.T) {
	ctx := context.Background()
	_, reb := twoMachineFleet(t, 1)
	plan, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 1 || plan.Deferred != 1 {
		t.Fatalf("moves %d / deferred %d, want 1 / 1", len(plan.Moves), plan.Deferred)
	}
}

// TestRebalanceDrainsMarkedMember: draining is urgent — every app on
// the draining member moves off (threshold ignored), targets exclude
// the member, and the moves carry the drain reason.
func TestRebalanceDrainsMarkedMember(t *testing.T) {
	ctx := context.Background()
	inv, reb := twoMachineFleet(t, 4)
	if err := inv.SetDraining("a", true); err != nil {
		t.Fatalf("SetDraining failed: %v", err)
	}
	plan, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 4 {
		t.Fatalf("planned %d moves, want all 4 apps off the draining member", len(plan.Moves))
	}
	for _, mv := range plan.Moves {
		if mv.Reason != ReasonDrain || mv.From != "a" || mv.To != "b" {
			t.Fatalf("move %+v, want drain a -> b", mv)
		}
	}
	inv.Poll(ctx)
	if n := appsOn(t, inv, "a"); n != 0 {
		t.Fatalf("draining member still hosts %d apps", n)
	}
	if n := appsOn(t, inv, "b"); n != 4 {
		t.Fatalf("survivor hosts %d apps, want 4", n)
	}
	// The drained member receives no new placements while draining.
	pl := reb.Placer
	if d, err := pl.Decide(memSpec("fresh")); err != nil {
		t.Fatal(err)
	} else if d.Member != "b" {
		t.Fatalf("fresh app decided onto draining member %s", d.Member)
	}
}

// TestRebalanceMisconfigDefaults: negative MaxMovesPerRound and
// out-of-range Threshold values are misconfigurations — they fall back
// to the safe defaults and log a warning exactly once, instead of
// silently disabling the churn bound or permanently arming the re-pack.
func TestRebalanceMisconfigDefaults(t *testing.T) {
	var warnings []string
	r := &Rebalancer{
		MaxMovesPerRound: -3,
		Threshold:        1.7,
		Logf: func(format string, args ...any) {
			warnings = append(warnings, format)
		},
	}
	for i := 0; i < 3; i++ {
		if got := r.maxMoves(); got != 4 {
			t.Fatalf("maxMoves() = %d with negative config, want default 4", got)
		}
		if got := r.threshold(); got != 0.9 {
			t.Fatalf("threshold() = %g with out-of-range config, want default 0.9", got)
		}
	}
	if len(warnings) != 2 {
		t.Fatalf("logged %d warnings %q, want exactly one per misconfigured knob", len(warnings), warnings)
	}

	// Zero values are the documented defaults, not misconfigurations:
	// no warning spam from default-constructed rebalancers.
	warnings = nil
	r2 := &Rebalancer{Logf: func(format string, args ...any) {
		warnings = append(warnings, format)
	}}
	if got := r2.maxMoves(); got != 4 {
		t.Fatalf("zero maxMoves() = %d, want 4", got)
	}
	if got := r2.threshold(); got != 0.9 {
		t.Fatalf("zero threshold() = %g, want 0.9", got)
	}
	if len(warnings) != 0 {
		t.Fatalf("zero-value defaults logged warnings: %q", warnings)
	}

	// Negative Threshold also warns (would disable the imbalance pass
	// silently); -1 CooldownRounds disables cooldowns without warning —
	// it is the documented A/B knob.
	r3 := &Rebalancer{Threshold: -0.5, CooldownRounds: -1}
	if got := r3.threshold(); got != 0.9 {
		t.Fatalf("negative threshold() = %g, want default 0.9", got)
	}
	if got := r3.cooldownRounds(); got != 0 {
		t.Fatalf("cooldownRounds() = %d with -1, want 0 (disabled)", got)
	}
	if got := (&Rebalancer{}).cooldownRounds(); got != 2 {
		t.Fatalf("default cooldownRounds() = %d, want 2", got)
	}
}

// TestRebalanceCooldownBlocksRepeatMoves: an app moved by the
// drift/imbalance passes in round k is excluded from those passes for
// rounds k+1..k+CooldownRounds, then becomes movable again. Plan (the
// dry run) must not advance the cooldown clock — only Round does.
func TestRebalanceCooldownBlocksRepeatMoves(t *testing.T) {
	r := &Rebalancer{CooldownRounds: 2}
	r.noteMoved("app")
	r.mu.Lock()
	r.round++ // the move's round completes
	r.mu.Unlock()
	for i := 1; i <= 2; i++ {
		if !r.onCooldown("app") {
			t.Fatalf("round +%d: app escaped its cooldown early", i)
		}
		if cds := r.cooldownView(); cds["app"] != 2-i+1 {
			t.Fatalf("round +%d: cooldownView = %v, want app -> %d", i, cds, 2-i+1)
		}
		r.mu.Lock()
		r.round++
		r.mu.Unlock()
	}
	if r.onCooldown("app") {
		t.Fatal("app still on cooldown after CooldownRounds elapsed")
	}
	if cds := r.cooldownView(); len(cds) != 0 {
		t.Fatalf("expired cooldowns not pruned: %v", cds)
	}

	// Disabled guard: nothing is ever on cooldown.
	off := &Rebalancer{CooldownRounds: -1}
	off.noteMoved("app")
	off.mu.Lock()
	off.round++
	off.mu.Unlock()
	if off.onCooldown("app") {
		t.Fatal("disabled cooldown still blocks moves")
	}
}

// TestRebalanceCooldownDampsImmediateBounce: after the imbalance round
// moves two mem apps a -> b, deregistering one app on b re-opens a gap
// whose greedy re-pack would bounce a just-moved app straight back. The
// cooldown excludes it, so the next round plans no moves for it; once
// the cooldown expires the pass may move it again.
func TestRebalanceCooldownDampsImmediateBounce(t *testing.T) {
	ctx := context.Background()
	inv, reb := twoMachineFleet(t, 4)
	reb.CooldownRounds = 2

	plan, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 2 {
		t.Fatalf("setup round planned %d moves, want 2", len(plan.Moves))
	}
	moved := map[string]bool{}
	for _, mv := range plan.Moves {
		moved[mv.App.Name] = true
	}

	// Perturb: drop the comp app from a so the balance point shifts and
	// a fresh re-pack wants the mem apps consolidated differently.
	ma, _ := inv.Member("a")
	cli, err := inv.Client("a")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range ma.Apps {
		if app.Name == "comp" {
			if err := cli.Deregister(ctx, app.ID); err != nil {
				t.Fatal(err)
			}
		}
	}

	for round := 0; round < 2; round++ {
		p, err := reb.Round(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, mv := range p.Moves {
			if moved[mv.App.Name] {
				t.Fatalf("round +%d re-moved %s while on cooldown: %+v", round+1, mv.App.Name, mv)
			}
		}
		for name := range moved {
			if _, ok := p.Cooldowns[name]; !ok {
				t.Fatalf("round +%d plan does not report %s cooling down: %v", round+1, name, p.Cooldowns)
			}
		}
	}
}

// TestRebalanceBudgetSharedAcrossPasses: the plan reports the global
// budget and its consumption, and the moves never exceed it even when
// urgent evacuation already claimed part of the round.
func TestRebalanceBudgetSharedAcrossPasses(t *testing.T) {
	ctx := context.Background()
	inv, reb := twoMachineFleet(t, 3)
	if err := inv.SetDraining("a", true); err != nil {
		t.Fatalf("SetDraining failed: %v", err)
	}
	plan, err := reb.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Budget != 3 {
		t.Fatalf("plan budget %d, want 3", plan.Budget)
	}
	if len(plan.Moves) != 3 || plan.Deferred != 1 {
		t.Fatalf("moves %d / deferred %d, want 3 / 1 (4 drain candidates, budget 3)",
			len(plan.Moves), plan.Deferred)
	}
	if plan.BudgetSpent != 3 {
		t.Fatalf("budget spent %d, want 3", plan.BudgetSpent)
	}
}

// stormFleet starts three coopd machines behind a partition fabric:
// a carries three memory-bound apps, b four, c none. Killing a strands
// a third of the fleet's members with un-evacuated apps — exactly one
// over the default 0.25 storm fraction — so the rebalancer's degraded
// mode engages with a small, fully predictable triage.
func stormFleet(t *testing.T) (*Inventory, *faultinject.Partition, []string, *Rebalancer) {
	t.Helper()
	ctx := context.Background()
	part := faultinject.NewPartition()
	inv := NewInventory(InventoryConfig{
		NewClient: fastClients(part.Transport(nil)),
		FailAfter: 1,
		Logf:      t.Logf,
	})
	hosts := make([]string, 3)
	for i, id := range []string{"a", "b", "c"} {
		hs := newCoopd(t)
		hosts[i] = hostOf(t, hs.URL)
		if err := inv.Add(id, hs.URL); err != nil {
			t.Fatal(err)
		}
	}
	inv.Poll(ctx)
	register := func(member string, specs ...AppSpec) {
		cli, err := inv.Client(member)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			if _, err := cli.Register(ctx, spec.registerRequest()); err != nil {
				t.Fatal(err)
			}
		}
	}
	register("a", memSpec("s-1"), memSpec("s-2"), memSpec("s-3"))
	register("b", memSpec("t-1"), memSpec("t-2"), memSpec("t-3"), memSpec("t-4"))
	inv.Poll(ctx)
	sc := NewScorer()
	reb := &Rebalancer{
		Inv:              inv,
		Placer:           &Placer{Inv: inv, Scorer: sc, Logf: t.Logf},
		Scorer:           sc,
		MaxMovesPerRound: 2,
		AdmissionCap:     1,
		Logf:             t.Logf,
	}
	return inv, part, hosts, reb
}

// TestRebalanceStormBrakeTriage: when a dies with three apps, degraded
// mode triages the evacuation under the shared round budget and the
// per-survivor admission cap. The highest marginal recovery (the empty
// machine c, +64 GFLOPS) is admitted first; once c hits the cap the
// next evacuation settles for b (marginal 0 on a bandwidth-bound
// machine) instead of piling on; the third is deferred on budget.
// Degraded mode persists until a's backlog drains, then disengages with
// an empty steady-state plan — and the imbalance pass never fires while
// the storm is active.
func TestRebalanceStormBrakeTriage(t *testing.T) {
	ctx := context.Background()
	inv, part, hosts, reb := stormFleet(t)
	part.Isolate(hosts[0])
	inv.Poll(ctx)
	if m, _ := inv.Member("a"); !m.Dead {
		t.Fatal("a not dead after the partition")
	}

	plan, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.StormActive {
		t.Fatal("storm brake not engaged with 1/3 members down and apps pending")
	}
	if plan.Budget != 2 || plan.BudgetSpent != 2 || len(plan.Moves) != 2 || plan.Deferred != 1 {
		t.Fatalf("budget %d spent %d, %d moves %d deferred; want 2/2, 2 moves 1 deferred",
			plan.Budget, plan.BudgetSpent, len(plan.Moves), plan.Deferred)
	}
	inbound := map[string]int{}
	for _, mv := range plan.Moves {
		if mv.Reason != ReasonMachineLost || mv.From != "a" {
			t.Fatalf("move %+v, want machine-lost from a", mv)
		}
		inbound[mv.To]++
	}
	if inbound["b"] != 1 || inbound["c"] != 1 {
		t.Fatalf("storm admissions %v, want exactly one per survivor (cap 1)", inbound)
	}
	if mv := plan.Moves[0]; mv.To != "c" || !near(mv.Score, 64) {
		t.Fatalf("first triaged move %+v, want the +64 recovery on empty c", mv)
	}
	if mv := plan.Moves[1]; mv.To != "b" || !near(mv.Score, 0) {
		t.Fatalf("second triaged move %+v, want the marginal-0 fallback on b", mv)
	}

	// Round 2: one app still stranded on a keeps the storm engaged; it
	// lands on c (fewer apps wins the marginal-0 tie).
	plan, err = reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.StormActive || len(plan.Moves) != 1 || plan.Deferred != 0 {
		t.Fatalf("round 2: storm %v, %d moves %d deferred; want active, 1 move",
			plan.StormActive, len(plan.Moves), plan.Deferred)
	}
	if mv := plan.Moves[0]; mv.To != "c" || mv.Reason != ReasonMachineLost {
		t.Fatalf("round 2 move %+v, want machine-lost onto c", mv)
	}

	// Round 3: backlog drained, storm disengages, and the fleet is at
	// the bandwidth-bound optimum — no tail churn.
	plan, err = reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if plan.StormActive {
		t.Fatal("storm still active after the backlog drained")
	}
	if len(plan.Moves) != 0 {
		t.Fatalf("steady state still churns: %+v", plan.Moves)
	}
	if n := appsOn(t, inv, "b"); n != 5 {
		t.Fatalf("b hosts %d apps, want 5", n)
	}
	if n := appsOn(t, inv, "c"); n != 2 {
		t.Fatalf("c hosts %d apps, want 2", n)
	}
}

// TestRebalanceStormBrakeDisabled: the same failure with the brake off
// shows what the triage prevents — the naive urgent pass tie-breaks
// every evacuation onto the emptiest survivor, so c absorbs the whole
// admitted wave while b takes nothing, and only the global budget
// (not admission control) limits the round.
func TestRebalanceStormBrakeDisabled(t *testing.T) {
	ctx := context.Background()
	inv, part, hosts, reb := stormFleet(t)
	reb.DisableStormBrake = true
	part.Isolate(hosts[0])
	inv.Poll(ctx)

	plan, err := reb.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if plan.StormActive {
		t.Fatal("storm reported active with the brake disabled")
	}
	if len(plan.Moves) != 2 || plan.Deferred != 1 {
		t.Fatalf("%d moves %d deferred, want the global budget to trim 3 to 2",
			len(plan.Moves), plan.Deferred)
	}
	for _, mv := range plan.Moves {
		if mv.To != "c" {
			t.Fatalf("unbraked move %+v, want the herd piled onto c", mv)
		}
	}
	if n := appsOn(t, inv, "c"); n != 2 {
		t.Fatalf("c absorbed %d apps, want 2 (admission cap would have allowed 1)", n)
	}
}
