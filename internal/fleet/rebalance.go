package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/ctrlplane"
	"repro/internal/roofline"
)

// Move reasons, stable strings carried on the wire.
const (
	// ReasonMachineLost re-homes an app whose machine stopped answering.
	ReasonMachineLost = "machine-lost"
	// ReasonDrain empties a member marked draining.
	ReasonDrain = "drain"
	// ReasonRebalance closes an imbalance gap against the greedy re-pack.
	ReasonRebalance = "rebalance"
	// ReasonDrift re-places an app whose measured demand model drifted
	// from its declaration: the placement decision was made on stale
	// inputs, so it is re-taken with the fitted model.
	ReasonDrift = "drift"
	// ReasonQuarantine evacuates a member the flap detector benched: it
	// may still be answering polls, but it cannot be trusted to keep
	// serving, so its apps are re-homed like a lost machine's.
	ReasonQuarantine = "quarantine"
	// ReasonPreempt evicts a lower-class app from a machine past its
	// floor capacity so a higher class hosted there gets a floor-feasible
	// allocation (see preempt.go).
	ReasonPreempt = "preempt"
)

// Move is one planned app relocation.
type Move struct {
	// AppID is the app's ID on the source machine (its registration
	// there; the target assigns a fresh ID).
	AppID string `json:"app_id"`
	// App is the spec re-registered on the target.
	App AppSpec `json:"app"`
	// From and To are member IDs. From's registration is dropped (or
	// already gone, for a lost machine).
	From string `json:"from"`
	To   string `json:"to"`
	// Reason is one of the Reason* constants.
	Reason string `json:"reason"`
	// Score is the marginal aggregate GFLOPS of the placement on To.
	Score float64 `json:"score"`
}

// evacApp is one urgent evacuation candidate: an app still registered
// on a dead, quarantined, or draining member.
type evacApp struct {
	member string
	app    PlacedApp
	reason string
}

// StaleDereg is a duplicate registration left on a revived member: the
// app was re-homed while the member was dead, so the old local copy
// must be deregistered.
type StaleDereg struct {
	Member string `json:"member"`
	AppID  string `json:"app_id"`
}

// Plan is one rebalance round's decisions.
type Plan struct {
	Moves []Move `json:"moves,omitempty"`
	// Deferred counts moves the per-round bound pushed to later rounds.
	Deferred int `json:"deferred,omitempty"`
	// StaleDeregs are duplicate cleanups on revived members (not
	// counted against the move bound — they free capacity, never churn
	// it).
	StaleDeregs []StaleDereg `json:"stale_deregs,omitempty"`
	// CurrentGFLOPS is the solved aggregate over healthy members'
	// demand sets; RepackGFLOPS is the aggregate of the greedy
	// from-scratch re-pack the imbalance check compares against.
	CurrentGFLOPS float64 `json:"current_gflops"`
	RepackGFLOPS  float64 `json:"repack_gflops"`
	// Budget is the round's global move budget (MaxMovesPerRound after
	// defaults), shared across the urgent, drift, and imbalance passes;
	// BudgetSpent is how much of it this plan consumes.
	Budget      int `json:"budget,omitempty"`
	BudgetSpent int `json:"budget_spent,omitempty"`
	// Cooldowns maps app names still inside their post-move cooldown to
	// the number of upcoming rounds (including the planned one) in which
	// the drift and imbalance passes will not move them again.
	Cooldowns map[string]int `json:"cooldowns,omitempty"`
	// StormActive marks a degraded-mode round: enough members are down
	// with un-evacuated apps that urgent moves were triaged under the
	// storm budget and per-survivor admission cap, and the drift and
	// imbalance passes were skipped.
	StormActive bool `json:"storm_active,omitempty"`
}

// Rebalancer turns inventory drift — dead machines, draining members,
// imbalance — into bounded move plans and executes them.
type Rebalancer struct {
	Inv    *Inventory
	Placer *Placer
	Scorer *Scorer
	// MaxMovesPerRound bounds churn per round (default 4). The bound is
	// global: urgent evacuation, drift re-placement, and the imbalance
	// re-pack all draw from the same per-round budget. A negative value
	// is a misconfiguration (it would disable churn limiting) and falls
	// back to the default with a logged warning.
	MaxMovesPerRound int
	// Threshold triggers the imbalance pass when the current aggregate
	// falls below Threshold x the greedy re-pack (default 0.9). Values
	// outside (0, 1] are misconfigurations — negative or > 1 would arm
	// the re-pack permanently — and fall back to the default with a
	// logged warning.
	Threshold float64
	// StormFraction arms the storm brake: when the fraction of members
	// that are down (dead or quarantined) while still carrying
	// un-evacuated apps exceeds it, the round runs in degraded mode —
	// urgent moves are triaged by the aggregate GFLOPS their
	// re-placement recovers, rate-limited to StormBudget, and no
	// survivor admits more than AdmissionCap storm moves per round.
	// Degraded mode is detected statelessly from the snapshot (Plan
	// stays a side-effect-free dry run) and therefore persists until
	// the evacuation backlog drains. 0 selects the default (0.25);
	// values outside (0, 1] fall back with a logged warning.
	StormFraction float64
	// StormBudget caps urgent moves per degraded round (it can only
	// tighten the global budget, never exceed it). 0 selects the global
	// MaxMovesPerRound; negative falls back with a logged warning.
	StormBudget int
	// AdmissionCap bounds how many storm evacuations a single surviving
	// member admits per round, so a mass failure cannot crush the
	// remaining machines under simultaneous re-registrations. 0 selects
	// the default (2); negative falls back with a logged warning.
	AdmissionCap int
	// DisablePreemption turns the priority-inversion repair pass off:
	// lower-class apps are never evicted to give a higher class a
	// floor-feasible allocation. Only for A/B resilience experiments
	// such as the fleetsim priority-inversion regression, never for
	// production use.
	DisablePreemption bool
	// DisableStormBrake turns mass-failure triage off: urgent
	// evacuation behaves as if the fleet were losing one machine — all
	// moves planned immediately, no admission cap. Only for A/B
	// resilience experiments such as the fleetsim correlated-failure
	// regression, never for production use.
	DisableStormBrake bool
	// CooldownRounds is the anti-thrash guard: an app moved by the
	// drift or imbalance pass may not be moved by those passes again
	// for this many following rounds, and is excluded from the
	// imbalance re-pack's move list while cooling down. Urgent
	// evacuation (machine lost, drain) is never blocked. 0 selects the
	// default (2); negative disables the guard entirely — only for A/B
	// stability experiments such as the fleetsim oscillation
	// regression, never for production use.
	CooldownRounds int
	// Logf, when set, receives move logs.
	Logf func(format string, args ...any)

	// planMu serializes Plan calls: planning reuses the candidate sets
	// and demand buffer below, and Plan (dry-run over HTTP) may race
	// the background Round loop.
	planMu sync.Mutex
	// cands and fresh are the round's reusable candidate sets (current
	// state and the imbalance pass's from-scratch re-pack); demandBuf
	// backs the drift and imbalance passes' per-member demand rebuilds.
	// All three keep their backing arrays across rounds.
	cands     candidateSet
	fresh     candidateSet
	demandBuf []roofline.App

	// mu guards the anti-thrash state below; Plan (dry-run over HTTP)
	// and Round (background loop) may run concurrently.
	mu sync.Mutex
	// round counts completed Round calls; lastMove records, per app
	// name, the round in which its last drift/imbalance move executed.
	// Names key the map because a move re-registers the app under a
	// fresh machine-local ID.
	round    uint64
	lastMove map[string]uint64
	warned   map[string]bool
}

func (r *Rebalancer) maxMoves() int {
	if r.MaxMovesPerRound > 0 {
		return r.MaxMovesPerRound
	}
	if r.MaxMovesPerRound < 0 {
		r.warnOnce("max-moves", "fleet: MaxMovesPerRound %d would disable the churn bound; using default 4",
			r.MaxMovesPerRound)
	}
	return 4
}

func (r *Rebalancer) threshold() float64 {
	if r.Threshold > 0 && r.Threshold <= 1 {
		return r.Threshold
	}
	if r.Threshold != 0 {
		r.warnOnce("threshold", "fleet: Threshold %g outside (0, 1] would mis-arm the imbalance pass; using default 0.9",
			r.Threshold)
	}
	return 0.9
}

func (r *Rebalancer) stormFraction() float64 {
	if r.StormFraction > 0 && r.StormFraction <= 1 {
		return r.StormFraction
	}
	if r.StormFraction != 0 {
		r.warnOnce("storm-fraction", "fleet: StormFraction %g outside (0, 1] would mis-arm the storm brake; using default 0.25",
			r.StormFraction)
	}
	return 0.25
}

func (r *Rebalancer) stormBudget() int {
	if r.StormBudget > 0 {
		return r.StormBudget
	}
	if r.StormBudget < 0 {
		r.warnOnce("storm-budget", "fleet: StormBudget %d would disable degraded-mode churn limiting; using the global budget",
			r.StormBudget)
	}
	return r.maxMoves()
}

func (r *Rebalancer) admissionCap() int {
	if r.AdmissionCap > 0 {
		return r.AdmissionCap
	}
	if r.AdmissionCap < 0 {
		r.warnOnce("admission-cap", "fleet: AdmissionCap %d would disable survivor admission control; using default 2",
			r.AdmissionCap)
	}
	return 2
}

func (r *Rebalancer) cooldownRounds() int {
	switch {
	case r.CooldownRounds > 0:
		return r.CooldownRounds
	case r.CooldownRounds < 0:
		return 0 // explicitly disabled
	}
	return 2
}

// warnOnce logs a misconfiguration warning a single time per key.
func (r *Rebalancer) warnOnce(key, format string, args ...any) {
	r.mu.Lock()
	if r.warned == nil {
		r.warned = map[string]bool{}
	}
	logged := r.warned[key]
	r.warned[key] = true
	r.mu.Unlock()
	if !logged {
		r.logf(format, args...)
	}
}

// onCooldown reports whether the app's last drift/imbalance move is
// recent enough that moving it again would be churn.
func (r *Rebalancer) onCooldown(name string) bool {
	cd := uint64(r.cooldownRounds())
	if cd == 0 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	last, ok := r.lastMove[name]
	// Moved in round k => blocked for rounds k+1 .. k+cd.
	return ok && r.round-last <= cd
}

// noteMoved starts the app's cooldown (called when a drift/imbalance
// move executes).
func (r *Rebalancer) noteMoved(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lastMove == nil {
		r.lastMove = map[string]uint64{}
	}
	r.lastMove[name] = r.round
}

// cooldownView snapshots active cooldowns as app name -> rounds left
// (including the next planning round), pruning expired entries.
func (r *Rebalancer) cooldownView() map[string]int {
	cd := uint64(r.cooldownRounds())
	r.mu.Lock()
	defer r.mu.Unlock()
	var out map[string]int
	for name, last := range r.lastMove {
		if cd == 0 || r.round-last > cd {
			delete(r.lastMove, name)
			continue
		}
		if out == nil {
			out = map[string]int{}
		}
		out[name] = int(cd - (r.round - last) + 1)
	}
	return out
}

func (r *Rebalancer) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// Plan computes one round's moves from the current inventory snapshot
// without executing anything. Priority order: lost and quarantined
// machines first (their apps are getting no trustworthy cores at all),
// then draining members, then — only when nothing urgent is pending —
// the drift and imbalance passes. When enough members are down at once
// the round degrades into storm-braked triage (see planStorm). Every
// target decision runs against a simulated candidate set that
// accumulates the round's earlier moves, so a plan never over-commits
// one machine.
func (r *Rebalancer) Plan(ctx context.Context) (*Plan, error) {
	r.planMu.Lock()
	defer r.planMu.Unlock()
	members := r.Inv.Snapshot()
	cands := r.cands.reset(members, true, r.Scorer.DomainSpread)
	plan := &Plan{Budget: r.maxMoves(), Cooldowns: r.cooldownView()}

	// Duplicate cleanup on revived members: app IDs re-homed while the
	// member was dead (or quarantined — its coopd still answers, so the
	// duplicate can be deregistered) that its registry still carries.
	for i := range members {
		m := &members[i]
		if !m.Alive() || len(m.Stale) == 0 {
			continue
		}
		live := map[string]bool{}
		for _, a := range m.Apps {
			live[a.ID] = true
		}
		for _, id := range m.Stale {
			if live[id] {
				plan.StaleDeregs = append(plan.StaleDeregs, StaleDereg{Member: m.ID, AppID: id})
			}
		}
	}

	// Staleness-aware demand: apps listed in StaleDeregs are duplicates,
	// excluded from move planning and the imbalance aggregate.
	dup := map[string]bool{}
	for _, sd := range plan.StaleDeregs {
		dup[sd.Member+"/"+sd.AppID] = true
	}

	// Collect the round's evacuations — apps on dead, quarantined, or
	// draining members — and detect a failure storm: the fraction of
	// members down (dead or quarantined) with un-evacuated apps.
	var evacs []evacApp
	downBacklog := 0
	for i := range members {
		m := &members[i]
		if (m.Dead || m.Quarantined) && len(m.Apps) > 0 {
			downBacklog++
		}
		evacuate := m.Dead || m.Quarantined || (m.Healthy() && m.Draining)
		if !evacuate {
			continue
		}
		reason := ReasonDrain
		switch {
		case m.Dead:
			reason = ReasonMachineLost
		case m.Quarantined:
			reason = ReasonQuarantine
		}
		for _, app := range m.Apps {
			if dup[m.ID+"/"+app.ID] {
				continue
			}
			evacs = append(evacs, evacApp{member: m.ID, app: app, reason: reason})
		}
	}
	storm := !r.DisableStormBrake && len(members) > 0 &&
		float64(downBacklog) > r.stormFraction()*float64(len(members))
	plan.StormActive = storm

	// Higher classes evacuate first: under a tight budget the latency
	// app is re-homed before the batch backlog consumes the round. The
	// sort is stable, so all-batch fleets keep the historical order.
	sort.SliceStable(evacs, func(a, b int) bool {
		return ClassRank(evacs[a].app.Priority) > ClassRank(evacs[b].app.Priority)
	})

	urgent := 0
	if !storm {
		for _, e := range evacs {
			spec := e.app.EffectiveSpec()
			d, c, err := r.Scorer.decide(spec, cands)
			if err != nil {
				r.logf("fleet: cannot re-home %s from %s: %v", e.app.ID, e.member, err)
				continue
			}
			plan.Moves = append(plan.Moves, Move{
				AppID: e.app.ID, App: spec, From: e.member, To: d.Member,
				Reason: e.reason, Score: d.Score,
			})
			c.commit(spec)
			urgent++
		}
	} else {
		urgent = r.planStorm(plan, evacs, cands, downBacklog, len(members))
	}

	if urgent == 0 && !storm {
		// Quiet-round passes in priority order, all drawing from one
		// global budget: inversion repair first (a higher class starved
		// under its floor is worse than any efficiency gap), then drift
		// re-placement, then the imbalance re-pack. Each pass runs only
		// when the ones before it planned nothing, so a round stays
		// single-purpose and the combined moves never exceed the bound.
		budget := plan.Budget
		if r.planPreempt(plan, members, dup, cands, &budget) == 0 {
			if r.planDrift(plan, members, dup, cands, &budget) == 0 {
				r.planImbalance(plan, members, dup, &budget)
			}
		}
	}

	if limit := plan.Budget; len(plan.Moves) > limit {
		plan.Deferred += len(plan.Moves) - limit
		plan.Moves = plan.Moves[:limit]
	}
	plan.BudgetSpent = len(plan.Moves)
	return plan, ctx.Err()
}

// planStorm is the degraded-mode urgent pass: a correlated failure has
// taken down enough of the fleet that evacuating everything at once
// would crush the survivors. Evacuations are triaged by the aggregate
// GFLOPS their re-placement recovers (a pre-score against the current
// candidates), then admitted in that order under two limits — the
// storm budget (never above the round's global budget) and a
// per-survivor admission cap. Everything past the limits is deferred
// to later rounds; the backlog-based storm detection keeps degraded
// mode active until it drains. Returns the number of moves planned.
func (r *Rebalancer) planStorm(plan *Plan, evacs []evacApp, cands []*candidate, downBacklog, total int) int {
	budget := plan.Budget
	if sb := r.stormBudget(); sb < budget {
		budget = sb
	}
	capN := r.admissionCap()
	r.logf("fleet: storm brake engaged: %d/%d members down with %d apps pending; triaging (budget %d, admission cap %d)",
		downBacklog, total, len(evacs), budget, capN)

	// Triage order: highest marginal recovery first; (member, app ID)
	// breaks ties deterministically.
	scores := make([]float64, len(evacs))
	for i := range evacs {
		if d, _, err := r.Scorer.decide(evacs[i].app.EffectiveSpec(), cands); err == nil {
			scores[i] = d.Score
		} else {
			scores[i] = math.Inf(-1)
		}
	}
	order := make([]int, len(evacs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		// Class outranks recovered GFLOPS: a latency app is triaged
		// ahead of any batch app, whatever their marginal scores.
		ra, rb := ClassRank(evacs[ia].app.Priority), ClassRank(evacs[ib].app.Priority)
		if ra != rb {
			return ra > rb
		}
		if scores[ia] != scores[ib] {
			return scores[ia] > scores[ib]
		}
		if evacs[ia].member != evacs[ib].member {
			return evacs[ia].member < evacs[ib].member
		}
		return evacs[ia].app.ID < evacs[ib].app.ID
	})

	moves := 0
	inbound := map[string]int{}
	pool := make([]*candidate, 0, len(cands))
	for _, idx := range order {
		e := evacs[idx]
		if budget <= 0 {
			plan.Deferred++
			continue
		}
		// Survivors at their admission cap leave the pool; the decision
		// re-runs against the committed state, so earlier admissions are
		// visible.
		pool = pool[:0]
		for _, c := range cands {
			if inbound[c.id] < capN {
				pool = append(pool, c)
			}
		}
		spec := e.app.EffectiveSpec()
		d, c, err := r.Scorer.decide(spec, pool)
		if err != nil {
			plan.Deferred++
			continue
		}
		plan.Moves = append(plan.Moves, Move{
			AppID: e.app.ID, App: spec, From: e.member, To: d.Member,
			Reason: e.reason, Score: d.Score,
		})
		c.commit(spec)
		inbound[d.Member]++
		budget--
		moves++
	}
	return moves
}

// planPreempt is the priority-inversion repair pass: a healthy member
// hosting a higher-class app with more apps than its floor capacity
// (some app there is starved of its guaranteed core) gets its cheapest
// lower-class apps evicted until the demand set fits — or until the
// round budget, the victim supply, or cooldowns stop it. Victims are
// re-homed, never dropped, by planEvictions; partial relief is fine
// because evicting every lower-class app already removes the
// *inversion* even if starvation among equals remains. Returns the
// number of moves planned.
func (r *Rebalancer) planPreempt(plan *Plan, members []Member, dup map[string]bool, cands []*candidate, budget *int) int {
	if r.DisablePreemption {
		return 0
	}
	byID := make(map[string]*candidate, len(cands))
	for _, c := range cands {
		byID[c.id] = c
	}
	var ranks map[string]int
	moves := 0
	for i := range members {
		m := &members[i]
		c := byID[m.ID]
		if c == nil {
			continue // not a placement candidate (dead, draining, ...)
		}
		over := len(c.demand) - FloorCapacity(c.topo)
		if over <= 0 {
			continue
		}
		top := 0
		for _, a := range m.Apps {
			if rk := ClassRank(a.Priority); rk > top {
				top = rk
			}
		}
		if top == 0 {
			continue // starved, but all one class: nothing to repair
		}
		if *budget <= 0 {
			plan.Deferred++
			continue
		}
		need := over
		if need > *budget {
			need = *budget
		}
		if ranks == nil {
			ranks = hostRanks(members)
		}
		skip := func(a PlacedApp) bool {
			return dup[m.ID+"/"+a.ID] || r.onCooldown(a.Name)
		}
		planned := r.Scorer.planEvictions(c, m.Apps, top, need, cands, ranks, skip)
		for _, mv := range planned {
			plan.Moves = append(plan.Moves, mv)
			*budget--
			moves++
			r.logf("fleet: preempting %s (%s) off %s -> %s to unstarve class rank %d",
				mv.AppID, mv.App.Priority, mv.From, mv.To, top)
		}
	}
	return moves
}

// planDrift emits bounded moves for apps whose member coopd confirmed
// drift (fitted model applied). Each drifted app's placement decision
// is re-taken with its effective (fitted) spec against the other
// members; a move is planned only when the fleet-wide gain — the
// destination's marginal minus what the source loses by releasing the
// app — is meaningfully positive. Apps inside their post-move cooldown
// are skipped (anti-thrash), and each planned move debits the shared
// round budget; candidates past the budget are deferred, not planned.
// Returns the number of moves planned.
func (r *Rebalancer) planDrift(plan *Plan, members []Member, dup map[string]bool, cands []*candidate, budget *int) int {
	moves := 0
	for i := range members {
		m := &members[i]
		if !m.Healthy() || m.Draining {
			continue
		}
		for _, app := range m.Apps {
			if !app.Drifted || app.FittedAI <= 0 || dup[m.ID+"/"+app.ID] {
				continue
			}
			if r.onCooldown(app.Name) {
				continue
			}
			if *budget <= 0 {
				plan.Deferred++
				continue
			}
			spec := app.EffectiveSpec()
			r.demandBuf = appendDemandSet(r.demandBuf[:0], m.Apps)
			withApp, err := r.Scorer.SolveTotal(m.Topology, r.demandBuf)
			if err != nil {
				r.logf("fleet: scoring %s: %v", m.ID, err)
				continue
			}
			// Same member minus the drifted app, rebuilt into the same
			// reused buffer (SolveTotal never retains the demand slice).
			r.demandBuf = r.demandBuf[:0]
			for _, a := range m.Apps {
				if a.ID == app.ID {
					continue
				}
				if ra, err := a.EffectiveSpec().rooflineApp(); err == nil {
					r.demandBuf = append(r.demandBuf, ra)
				}
			}
			without, err := r.Scorer.SolveTotal(m.Topology, r.demandBuf)
			if err != nil {
				continue
			}
			// Candidate pool excludes the source (pointers shared with the
			// round's other passes, so commits accumulate).
			pool := make([]*candidate, 0, len(cands)-1)
			for _, c := range cands {
				if c.id != m.ID {
					pool = append(pool, c)
				}
			}
			d, c, err := r.Scorer.decide(spec, pool)
			if err != nil {
				continue
			}
			gain := d.Score - (withApp - without)
			if gain <= 0.01*withApp {
				continue // not worth the churn
			}
			plan.Moves = append(plan.Moves, Move{
				AppID: app.ID, App: spec, From: m.ID, To: d.Member,
				Reason: ReasonDrift, Score: d.Score,
			})
			c.commit(spec)
			moves++
			*budget--
			r.logf("fleet: drift re-placement of %s (fitted AI %.3g vs declared %.3g): %s -> %s, gain %+.1f GFLOPS",
				app.ID, app.FittedAI, app.AI, m.ID, d.Member, gain)
		}
	}
	return moves
}

// planImbalance compares the fleet's current solved aggregate with a
// greedy from-scratch re-pack of the same apps and, when the gap
// exceeds the threshold, emits moves for the apps whose re-pack target
// differs from their current machine. Apps inside their post-move
// cooldown are excluded from the move list (oscillation damping: an
// app the previous round just re-homed must not immediately bounce
// back because the load shifted again), and moves stop once the shared
// round budget is spent.
func (r *Rebalancer) planImbalance(plan *Plan, members []Member, dup map[string]bool, budget *int) {
	type owned struct {
		member string
		app    PlacedApp
	}
	var apps []owned
	current := 0.0
	for i := range members {
		m := &members[i]
		if !m.Healthy() || m.Draining {
			continue
		}
		r.demandBuf = r.demandBuf[:0]
		for _, a := range m.Apps {
			if dup[m.ID+"/"+a.ID] {
				continue
			}
			apps = append(apps, owned{member: m.ID, app: a})
			if ra, err := a.EffectiveSpec().rooflineApp(); err == nil {
				r.demandBuf = append(r.demandBuf, ra)
			}
		}
		total, err := r.Scorer.SolveTotal(m.Topology, r.demandBuf)
		if err != nil {
			r.logf("fleet: scoring %s: %v", m.ID, err)
			return
		}
		current += total
	}
	plan.CurrentGFLOPS = current
	if len(apps) == 0 {
		return
	}

	// Greedy re-pack: fresh candidates (empty demand), every app placed
	// from scratch in deterministic (member ID, app ID) order. The set
	// (and its demand backing) is reused across rounds.
	fresh := r.fresh.reset(members, false, r.Scorer.DomainSpread)
	// The re-pack scores with EffectiveSpec — the fitted model when an
	// app has drifted — matching demandSet above. Mixing declared AI
	// into the repack while the current aggregate reflects measured
	// behaviour would mis-arm the trigger in both directions.
	target := map[string]string{} // "member/appID" -> repack member
	for _, o := range apps {
		spec := o.app.EffectiveSpec()
		d, c, err := r.Scorer.decide(spec, fresh)
		if err != nil {
			return
		}
		target[o.member+"/"+o.app.ID] = d.Member
		c.commit(spec)
	}
	repack := 0.0
	for _, c := range fresh {
		total, err := r.Scorer.SolveTotal(c.topo, c.demand)
		if err != nil {
			return
		}
		repack += total
	}
	plan.RepackGFLOPS = repack
	if current >= r.threshold()*repack {
		return
	}

	// The gap is worth churn: move the apps the re-pack homes elsewhere.
	// Targets come from the re-pack simulation itself, so the moves land
	// the fleet at (a bounded prefix of) the re-packed assignment.
	for _, o := range apps {
		to := target[o.member+"/"+o.app.ID]
		if to == o.member {
			continue
		}
		if r.onCooldown(o.app.Name) {
			continue // damped: just moved, let the fleet settle first
		}
		if *budget <= 0 {
			plan.Deferred++
			continue
		}
		plan.Moves = append(plan.Moves, Move{
			AppID: o.app.ID, App: o.app.EffectiveSpec(), From: o.member, To: to,
			Reason: ReasonRebalance,
		})
		*budget--
	}
}

// Execute applies a plan: duplicate cleanups first, then each move as
// drain-then-place — deregister from a live source before registering
// on the target, so the app never counts twice. A lost machine cannot
// be drained; its moves register on the target first and record the old
// ID as stale for cleanup if the machine revives.
func (r *Rebalancer) Execute(ctx context.Context, plan *Plan) error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, sd := range plan.StaleDeregs {
		cli, err := r.Inv.Client(sd.Member)
		if err != nil {
			keep(err)
			continue
		}
		if err := cli.Deregister(ctx, sd.AppID); err != nil {
			keep(fmt.Errorf("fleet: cleaning stale %s on %s: %w", sd.AppID, sd.Member, err))
			continue
		}
		r.Inv.clearStale(sd.Member, sd.AppID)
		r.Inv.noteDeregistered(sd.Member, sd.AppID)
		r.logf("fleet: cleaned stale duplicate %s on revived %s", sd.AppID, sd.Member)
	}
	for _, mv := range plan.Moves {
		// Machine-lost and quarantine moves register on the target first:
		// the source is unreachable (lost) or untrusted mid-flap
		// (quarantine), so its copy is marked stale and cleaned up when —
		// or while — the member answers again.
		drained := mv.Reason != ReasonMachineLost && mv.Reason != ReasonQuarantine
		if drained {
			cli, err := r.Inv.Client(mv.From)
			if err != nil {
				keep(err)
				continue
			}
			if err := cli.Deregister(ctx, mv.AppID); err != nil {
				// The source refused the drain; skip the move rather than
				// double-register the app. Next round re-plans.
				keep(fmt.Errorf("fleet: draining %s from %s: %w", mv.AppID, mv.From, err))
				continue
			}
			r.Inv.noteDeregistered(mv.From, mv.AppID)
		}
		resp, err := r.Inv.rehome(ctx, mv, drained, r.logf)
		if err != nil {
			keep(err)
			continue
		}
		if !drained {
			r.Inv.noteDeregistered(mv.From, mv.AppID)
			r.Inv.noteStale(mv.From, mv.AppID)
		}
		r.Inv.noteRegistered(mv.To, mv.App.placed(resp.ID))
		if mv.Reason == ReasonDrift || mv.Reason == ReasonRebalance || mv.Reason == ReasonPreempt {
			r.noteMoved(mv.App.Name)
		}
		r.logf("fleet: moved %s: %s -> %s as %s (%s, score %+.1f)",
			mv.AppID, mv.From, mv.To, resp.ID, mv.Reason, mv.Score)
	}
	return firstErr
}

// rehome registers mv's app on mv.To. When drained (the app is already
// off mv.From) and that fails, it registers the app back on mv.From and
// records it there rather than leave it registered nowhere; the error
// then also carries the restore's failure, if any. The Rebalancer's
// drain-first moves and the gang's preemption victims both go through
// here.
func (inv *Inventory) rehome(ctx context.Context, mv Move, drained bool, logf func(string, ...any)) (*ctrlplane.RegisterResponse, error) {
	register := func(member string) (*ctrlplane.RegisterResponse, error) {
		cli, err := inv.Client(member)
		if err != nil {
			return nil, err
		}
		return cli.Register(ctx, mv.App.registerRequest())
	}
	resp, err := register(mv.To)
	if err == nil {
		return resp, nil
	}
	err = fmt.Errorf("fleet: re-homing %s to %s: %w", mv.AppID, mv.To, err)
	if !drained {
		return nil, err
	}
	back, rerr := register(mv.From)
	if rerr != nil {
		return nil, errors.Join(err, fmt.Errorf("fleet: restoring %s on %s: %w", mv.AppID, mv.From, rerr))
	}
	inv.noteRegistered(mv.From, mv.App.placed(back.ID))
	logf("fleet: move of %s to %s failed; restored on %s as %s", mv.AppID, mv.To, mv.From, back.ID)
	return nil, err
}

// Round runs one control-loop iteration: poll the fleet, plan, execute.
// Rounds advance the cooldown clock — Plan alone (the HTTP dry run)
// never does, so inspecting a plan has no side effects.
func (r *Rebalancer) Round(ctx context.Context) (*Plan, error) {
	r.Inv.Poll(ctx)
	plan, err := r.Plan(ctx)
	if err != nil {
		return plan, err
	}
	err = r.Execute(ctx, plan)
	r.mu.Lock()
	r.round++
	r.mu.Unlock()
	if err != nil {
		return plan, err
	}
	return plan, nil
}
