// Package fleet is the placement layer above many coopd machines: it
// decides *which machine* each cooperating application lands on, using
// the same roofline model coopd uses to decide per-node thread counts
// within one machine.
//
// The paper's model (Section III.A) optimizes a single NUMA machine.
// At fleet scale the objective lifts naturally: the fleet's aggregate
// GFLOPS is the sum of each machine's solved optimum over its local
// demand set, so the placement score of (app, machine) is the marginal
// aggregate GFLOPS of adding the app to that machine's demand set under
// roofline.Search.BestPerNodeCountsNoStarve (the no-starvation floor of
// one thread per app per node, dropping to floor zero when it cannot
// fit). Three cooperating pieces implement it:
//
//   - Inventory polls member machines' coopd endpoints (topology,
//     registered apps, solved allocation) and tracks health; a member
//     that fails several consecutive polls is declared dead.
//   - Placer scores an incoming app against every healthy member and
//     registers it on the best bin, with anti-affinity for NUMA-bad
//     apps (two all-data-on-one-node demand sets on one machine fight
//     over home-node bandwidth — the Section III ranking reversal).
//   - Rebalancer turns inventory drift into bounded move plans:
//     machine loss re-places the dead member's apps, draining empties
//     a member, and an imbalance pass compares the fleet's current
//     aggregate against a greedy re-pack and moves apps when the gap
//     exceeds a threshold. Moves per round are capped so a rebalance
//     never storms the fleet.
//
// On top of single-app placement sit gangs — all-or-nothing replica
// sets with pack/spread/strict-spread policies (gang.go) — and
// priority classes (system > latency > batch, priority.go): a higher
// class that cannot be admitted floor-feasibly preempts the cheapest
// lower-class apps (preempt.go), and the placement objective itself is
// pluggable (Scorer.Objective, roofline.ObjectiveSpec).
//
// cmd/fleetd serves the subsystem over HTTP (/v1/fleet/place,
// /v1/fleet/gang, /v1/fleet/machines, /v1/fleet/plan, /v1/fleet/drain)
// and `coopctl fleet` is the CLI.
package fleet

import (
	"fmt"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/machine"
	"repro/internal/roofline"
)

// AppSpec describes an application the fleet should place: the
// roofline profile coopd needs, plus the registration knobs passed
// through to the chosen machine.
type AppSpec struct {
	// Name labels the application (coopd derives the app ID from it).
	Name string `json:"name"`
	// AI is the arithmetic intensity (FLOP/byte). Must be positive.
	AI float64 `json:"ai"`
	// Placement is "numa-perfect" (default) or "numa-bad".
	Placement string `json:"placement,omitempty"`
	// HomeNode holds all data of a numa-bad application.
	HomeNode int `json:"home_node,omitempty"`
	// MaxThreads caps the app's threads on its machine (0: uncapped).
	MaxThreads int `json:"max_threads,omitempty"`
	// TTLMillis overrides the machine's heartbeat deadline (0: its
	// default).
	TTLMillis int64 `json:"ttl_ms,omitempty"`
	// Priority is the app's scheduling class: "system", "latency", or
	// "batch" (the default). Higher classes preempt lower ones when
	// they cannot be admitted floor-feasibly, and weigh more under the
	// weighted-priority objective.
	Priority string `json:"priority,omitempty"`
}

// rooflineApp converts the spec for scoring. The placement string uses
// the ctrlplane wire names.
func (s AppSpec) rooflineApp() (roofline.App, error) {
	app := roofline.App{Name: s.Name, AI: s.AI}
	switch s.Placement {
	case "", ctrlplane.PlacementPerfect:
		app.Placement = roofline.NUMAPerfect
	case ctrlplane.PlacementBad:
		app.Placement = roofline.NUMABad
		app.HomeNode = machine.NodeID(s.HomeNode)
	default:
		return roofline.App{}, fmt.Errorf("fleet: unknown placement %q", s.Placement)
	}
	if s.AI <= 0 {
		return roofline.App{}, fmt.Errorf("fleet: app %q has non-positive AI %g", s.Name, s.AI)
	}
	if err := CheckPriority(s.Priority); err != nil {
		return roofline.App{}, err
	}
	// Batch maps to weight zero (scored as 1), so priority-free demand
	// sets stay byte-identical to the pre-priority encoding.
	app.Weight = classWeight(s.Priority)
	return app, nil
}

// numaBad reports whether the spec pins all data to one home node.
func (s AppSpec) numaBad() bool { return s.Placement == ctrlplane.PlacementBad }

// placed returns the PlacedApp to record after registering the spec on
// a machine that assigned it the given ID.
func (s AppSpec) placed(id string) PlacedApp {
	return PlacedApp{
		ID: id, Name: s.Name, AI: s.AI, Placement: s.Placement,
		HomeNode: s.HomeNode, MaxThreads: s.MaxThreads, TTLMillis: s.TTLMillis,
		Priority: s.Priority,
	}
}

// registerRequest converts the spec to the coopd wire form.
func (s AppSpec) registerRequest() ctrlplane.RegisterRequest {
	return ctrlplane.RegisterRequest{
		Name: s.Name, AI: s.AI, Placement: s.Placement, HomeNode: s.HomeNode,
		MaxThreads: s.MaxThreads, TTLMillis: s.TTLMillis,
	}
}

// PlacedApp is one application as placed on a member machine: the spec
// plus the ID the machine's coopd assigned.
type PlacedApp struct {
	ID         string  `json:"id"`
	Name       string  `json:"name"`
	AI         float64 `json:"ai"`
	Placement  string  `json:"placement,omitempty"`
	HomeNode   int     `json:"home_node,omitempty"`
	MaxThreads int     `json:"max_threads,omitempty"`
	TTLMillis  int64   `json:"ttl_ms,omitempty"`
	// FittedAI and Drifted mirror the member coopd's adaptive loop: when
	// Drifted, FittedAI is the online-recalibrated demand currently
	// replacing the declared AI on that machine. Fleet scoring and
	// re-placement use the fitted value — decisions should track what the
	// app does, not what it said.
	FittedAI float64 `json:"fitted_ai,omitempty"`
	Drifted  bool    `json:"drifted,omitempty"`
	// Priority is the app's scheduling class (see AppSpec.Priority).
	// The member coopd does not track it; the Inventory stamps it back
	// onto polled snapshots from its name-keyed priority record.
	Priority string `json:"priority,omitempty"`
}

// Spec strips the machine-local ID, for re-registration elsewhere.
func (a PlacedApp) Spec() AppSpec {
	return AppSpec{
		Name: a.Name, AI: a.AI, Placement: a.Placement, HomeNode: a.HomeNode,
		MaxThreads: a.MaxThreads, TTLMillis: a.TTLMillis, Priority: a.Priority,
	}
}

// EffectiveSpec is Spec with the fitted AI substituted when the app has
// drifted — what re-registration on another machine should declare so
// the destination solves for measured behaviour.
func (a PlacedApp) EffectiveSpec() AppSpec {
	s := a.Spec()
	if a.Drifted && a.FittedAI > 0 {
		s.AI = a.FittedAI
	}
	return s
}

// placedFromView converts a coopd registry record.
func placedFromView(v ctrlplane.AppView) PlacedApp {
	p := PlacedApp{
		ID: v.ID, Name: v.Name, AI: v.AI, HomeNode: v.HomeNode,
		MaxThreads: v.MaxThreads, TTLMillis: v.TTLMillis,
		FittedAI: v.FittedAI, Drifted: v.Drifted,
	}
	if v.Placement != ctrlplane.PlacementPerfect {
		p.Placement = v.Placement
	}
	return p
}

// Member is a read-only snapshot of one fleet machine.
type Member struct {
	// ID names the machine in plans and views.
	ID string
	// Domain is the machine's failure domain (rack/zone); machines
	// sharing a domain are expected to fail together. Defaults to the
	// member's own ID.
	Domain string
	// Endpoints are the machine's coopd base URLs (several for an HA
	// pair); the inventory fails over between them.
	Endpoints []string
	// Topology is the machine's NUMA layout (nil until the first
	// successful poll).
	Topology *machine.Machine
	// Apps is the machine's registered demand set, sorted by ID.
	Apps []PlacedApp
	// TotalGFLOPS and Generation mirror the machine's last
	// /v1/allocations answer.
	TotalGFLOPS float64
	Generation  uint64
	// Failures counts consecutive failed polls; Dead is set once
	// Failures reaches the inventory's FailAfter.
	Failures int
	Dead     bool
	// Draining marks a member that should be emptied by the rebalancer
	// and receive no new placements.
	Draining bool
	// LastSeen is the time of the last successful poll.
	LastSeen time.Time
	// Stale lists app IDs that were re-homed to other machines while
	// this member was dead; if it revives, those registrations are
	// duplicates the rebalancer must clean up.
	Stale []string
	// Quarantined marks a member the flap detector benched: it is not a
	// placement target and its apps are evacuated, even while it answers
	// polls. QuarantineUntil is the earliest re-admission time;
	// Quarantines counts consecutive quarantines (the backoff exponent).
	Quarantined     bool
	QuarantineUntil time.Time
	Quarantines     int
}

// Healthy reports whether the member can accept placements: alive,
// not quarantined, and with a known topology.
func (m *Member) Healthy() bool { return !m.Dead && !m.Quarantined && m.Topology != nil }

// Alive reports whether the member answers polls (its coopd is
// reachable), regardless of quarantine — the gate for control calls
// like stale-duplicate cleanup and drain-style deregistration.
func (m *Member) Alive() bool { return !m.Dead && m.Topology != nil }

// NUMABadApps counts the member's numa-bad registrations — the
// anti-affinity input.
func (m *Member) NUMABadApps() int {
	n := 0
	for _, a := range m.Apps {
		if a.Placement == ctrlplane.PlacementBad {
			n++
		}
	}
	return n
}

// appendDemandSet appends the apps' scoring form to dst — the
// append-style core of Member.demandSet, so hot paths (candidate
// resets, rebalancer passes) rebuild demand sets into reused backing
// arrays. Apps with specs the model rejects (should not happen — coopd
// validated them) are skipped.
func appendDemandSet(dst []roofline.App, apps []PlacedApp) []roofline.App {
	for _, a := range apps {
		ra, err := a.EffectiveSpec().rooflineApp()
		if err != nil {
			continue
		}
		dst = append(dst, ra)
	}
	return dst
}

// demandSet converts the member's apps for scoring into a fresh slice.
func (m *Member) demandSet() []roofline.App {
	return appendDemandSet(make([]roofline.App, 0, len(m.Apps)), m.Apps)
}
