package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/machine"
)

// fleet-failover shape: twelve paper 4x8 members in four domains of
// three, each preloaded to floor capacity (eight apps).
const (
	failMembers     = 12
	failPerDomain   = 3
	failPerMember   = 8
	failDomainEvery = 4 // every 4th cycle isolates a whole domain
	// A domain is a quarter of the fleet; the storm brake engages when
	// more than this share of members is down with apps to evacuate.
	failStormFraction = 0.2
	// Bounds on the rounds a cycle phase may take before the cycle
	// counts as failed.
	failMaxRecoverRounds = 60
	failMaxHealRounds    = 20
	// failThreshold arms the imbalance re-pack only below half the
	// greedy re-pack's aggregate. At the default 0.9 the re-pack pass
	// and the preemption pass undo each other every round on this
	// fleet (see README.md), and the cycles never settle.
	failThreshold = 0.5
	// failHeapUntil is the last cycle before which the live heap is
	// read; it is read before every cycle up to it.
	failHeapUntil = 15
)

// failClasses are the preload's higher-class apps, by the member that
// hosts each one: a latency app in the first domain and a system app in
// the third, enough to run the preemption path.
var failClasses = map[int]string{1: fleet.PriorityLatency, 7: fleet.PrioritySystem}

type failEnv struct {
	members []*coopd
	ids     []string
	domains [][]string                // member ids per domain
	clis    map[string]*client.Client // direct clients, outside the partition
	rt      *http.Transport
	part    *faultinject.Partition
	srv     *fleet.Server
	spec    *countingSpec // traced run only
	apps    []string      // every app name, fixed for the run
	// Isolation targets are dealt from shuffled decks of the members and
	// of the domains, so every run isolates each about equally often
	// and only the order depends on the seed.
	rng                 *rand.Rand
	memberDeck, domDeck deck

	// simRound drives the inventory clock: one simulated second per
	// round, so flap quarantine and backoff follow the seed, not the
	// host's speed.
	simRound atomic.Int64
	epoch    time.Time
}

func (e *failEnv) close() {
	for _, c := range e.members {
		c.close()
	}
	e.rt.CloseIdleConnections()
}

// bootFailover starts the members, preloads them directly (apps that
// were running before the fleet controller looked) and primes the
// inventory.
func bootFailover(ctx context.Context, cfg runConfig, tr *tracer) (*failEnv, error) {
	if err := checkTableI(ctx); err != nil {
		return nil, err
	}
	e := &failEnv{
		clis:       map[string]*client.Client{},
		rt:         newTransport(),
		part:       faultinject.NewPartition(),
		rng:        rand.New(rand.NewSource(cfg.seed)),
		memberDeck: deck{n: failMembers},
		domDeck:    deck{n: failMembers / failPerDomain},
		epoch:      time.Unix(0, 0),
	}
	// The fleet's coopd clients go through the partition fabric, so polls
	// of an isolated member fail at once. Their timeout is well above the
	// default 2s: a registration solves the target's demand set before it
	// answers, and a move whose registration times out after its drain
	// has succeeded loses the app.
	fabric := wrapTransport(tr, e.part.Transport(e.rt))
	inv := fleet.NewInventory(fleet.InventoryConfig{
		NewClient: func(ep string) *client.Client {
			return client.New(ep, client.Config{HTTPClient: &http.Client{Transport: fabric}, MaxAttempts: 1, RequestTimeout: 10 * time.Second})
		},
		Clock: func() time.Time { return e.epoch.Add(time.Duration(e.simRound.Load()) * time.Second) },
	})
	for i := 0; i < failMembers; i++ {
		c, err := startCoopd(machine.PaperModel(), tr)
		if err != nil {
			e.close()
			return nil, err
		}
		id := fmt.Sprintf("m%02d", i)
		d := i / failPerDomain
		if d == len(e.domains) {
			e.domains = append(e.domains, nil)
		}
		e.domains[d] = append(e.domains[d], id)
		e.members = append(e.members, c)
		e.ids = append(e.ids, id)
		e.clis[id] = newCoopdClient(c.url, wrapTransport(tr, e.rt))
		if err := inv.AddDomain(id, fmt.Sprintf("d%d", d), c.url); err != nil {
			e.close()
			return nil, err
		}
	}
	srv, err := fleet.NewServer(fleet.ServerConfig{
		Inventory:     inv,
		Objective:     "weighted-priority",
		StormFraction: failStormFraction,
		Threshold:     failThreshold,
	})
	if err != nil {
		e.close()
		return nil, err
	}
	e.srv = srv
	if tr != nil {
		sc := srv.Placer().Scorer
		e.spec = newCountingSpec(sc.Objective, tr)
		sc.Objective = e.spec
	}

	// Every slot but the two higher-class apps' is a duplicate batch app.
	for i, id := range e.ids {
		for j := 0; j < failPerMember; j++ {
			name := fmt.Sprintf("%s-a%d", id, j)
			if p := failClasses[i]; j == 0 && p != "" {
				if err := inv.RecordPriority(name, p); err != nil {
					e.close()
					return nil, err
				}
			}
			e.apps = append(e.apps, name)
		}
	}
	if err := e.reset(ctx, 0); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// reset puts the fleet back to its preload for cycle k: every member
// holds its own eight apps and nothing else. Each cycle starts from it,
// so a cycle's work depends on what it isolates, not on how earlier
// cycles left the fleet; the inventory, the cooldowns and the flap
// history carry over. All apps share one intensity, which moves by one
// part in a million per cycle: the apps stay identical, so every solve
// is as hard as at AI 0.5, but no cycle replays an earlier cycle's
// demand sets out of the Scorer's memo or coopd's caches, just as a
// real failure does not.
func (e *failEnv) reset(ctx context.Context, k int) error {
	// A member the flap detector benched re-enters once its backoff has
	// run out and a poll succeeds; skip the simulated clock to the last
	// re-admission time rather than rebuild the preload around it.
	var until time.Time
	for _, m := range e.srv.Inventory().Snapshot() {
		if m.Quarantined && m.QuarantineUntil.After(until) {
			until = m.QuarantineUntil
		}
	}
	if now := e.epoch.Add(time.Duration(e.simRound.Load()) * time.Second); until.After(now) {
		e.simRound.Add(int64(until.Sub(now)/time.Second) + 1)
	}
	ai := 0.5 * (1 + 1e-6*float64(k))
	for _, id := range e.ids {
		apps, err := e.clis[id].Apps(ctx)
		if err != nil {
			return err
		}
		for _, a := range apps.Apps {
			if err := e.clis[id].Deregister(ctx, a.ID); err != nil {
				return err
			}
		}
	}
	for i, name := range e.apps {
		id := e.ids[i/failPerMember]
		if _, err := e.clis[id].Register(ctx, ctrlplane.RegisterRequest{Name: name, AI: ai}); err != nil {
			return err
		}
	}
	// Quiesce: isolate only a fleet with no moves pending and no
	// cooldown left to expire. A drain-then-place move toward a member
	// that is already cut off but not yet declared dead deregisters the
	// app and then fails to register it, losing the app (see README.md);
	// the failure injected here is the partition, not that race.
	for r := 0; ; r++ {
		plan, err := e.round(ctx)
		if err != nil {
			return err
		}
		if len(plan.Moves) == 0 && plan.Deferred == 0 && len(plan.Cooldowns) == 0 && e.settled() && e.recovered(nil) {
			return nil
		}
		if r == failMaxRecoverRounds {
			return fmt.Errorf("preloaded fleet still moving after %d rounds", r)
		}
	}
}

// round advances the simulated clock and runs one rebalance round.
func (e *failEnv) round(ctx context.Context) (*fleet.Plan, error) {
	e.simRound.Add(1)
	return e.srv.Rebalancer().Round(ctx)
}

func (e *failEnv) setIsolated(ids []string, cut bool) {
	for _, id := range ids {
		for i, mid := range e.ids {
			if mid != id {
				continue
			}
			if cut {
				e.part.Isolate(e.members[i].host)
			} else {
				e.part.Heal(e.members[i].host)
			}
		}
	}
}

// recovered reports whether every app runs on a healthy member outside
// the isolated set, and no member hosts a starved higher class over
// its floor capacity while lower classes hold slots there.
func (e *failEnv) recovered(isolated map[string]bool) bool {
	hosted := map[string]bool{}
	for _, m := range e.srv.Inventory().Snapshot() {
		if isolated[m.ID] || !m.Healthy() {
			continue
		}
		stale := map[string]bool{}
		for _, id := range m.Stale {
			stale[id] = true
		}
		top, lower, n := 0, false, 0
		ranks := map[int]bool{}
		for _, a := range m.Apps {
			if stale[a.ID] {
				continue
			}
			hosted[a.Name] = true
			n++
			r := fleet.ClassRank(a.Priority)
			ranks[r] = true
			top = max(top, r)
		}
		for r := range ranks {
			lower = lower || r < top
		}
		if !m.Draining && n > fleet.FloorCapacity(m.Topology) && top > 0 && lower {
			return false
		}
	}
	for _, name := range e.apps {
		if !hosted[name] {
			return false
		}
	}
	return true
}

// settled reports whether every member answers polls again and no
// stale duplicate awaits cleanup.
func (e *failEnv) settled() bool {
	for _, m := range e.srv.Inventory().Snapshot() {
		if !m.Alive() || len(m.Stale) > 0 {
			return false
		}
	}
	return true
}

// checkIsolated verifies, by asking the isolated members directly,
// that every app they still hold is a known stale duplicate: no app
// stays on an isolated member after recovery.
func (e *failEnv) checkIsolated(ctx context.Context, isolated []string) error {
	snap := map[string]fleet.Member{}
	for _, m := range e.srv.Inventory().Snapshot() {
		snap[m.ID] = m
	}
	for _, id := range isolated {
		stale := map[string]bool{}
		for _, s := range snap[id].Stale {
			stale[s] = true
		}
		apps, err := e.clis[id].Apps(ctx)
		if err != nil {
			return err
		}
		for _, a := range apps.Apps {
			if !stale[a.ID] {
				return checkFailf("app %s (%s) stays on isolated member %s after recovery", a.Name, a.ID, id)
			}
		}
	}
	return nil
}

// runFailover is the fleet-failover workload. Each cycle isolates a
// member (a whole domain every fourth cycle, which engages the storm
// brake), runs rebalance rounds back to back until every lost app is
// re-homed with no priority inversion, then heals the partition and
// runs rounds until the revived members' stale duplicates are cleaned
// up. The op is the cycle; its latency is the recovery time.
func runFailover(ctx context.Context, cfg runConfig) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	env, setupS, err := setupRuns(cfg.setupReps,
		func() (*failEnv, error) { return bootFailover(ctx, cfg, tr) },
		func(e *failEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	oc := &outcome{setupS: setupS}
	log := newOpLog()
	tally := newPlanTally()
	clis := make([]*client.Client, len(env.ids))
	for i, id := range env.ids {
		clis[i] = env.clis[id]
	}
	var before coopdCounters
	var beforeSearch searchStats
	if cfg.trace {
		if before, err = readCoopdCounters(ctx, clis); err != nil {
			return nil, err
		}
		beforeSearch = env.spec.stats()
	}
	sc := env.srv.Placer().Scorer
	hits0, misses0 := sc.CacheStats()

	var roundMs []float64
	rounds, roundErrs := 0, 0
	// runRound runs one timed round inside the current cycle. A round
	// whose moves partly fail — a target cut off before the fleet
	// declared it dead — is part of the failure being absorbed: the
	// next round re-plans, as in production.
	runRound := func() {
		s := tr.begin()
		t := time.Now()
		plan, err := env.round(ctx)
		roundMs = append(roundMs, float64(time.Since(t))/1e6)
		tr.end("fleet.round", s)
		rounds++
		if err != nil {
			roundErrs++
		}
		tally.add(plan)
		if plan != nil {
			oc.gflops = append(oc.gflops, plan.CurrentGFLOPS)
		}
	}

	var checkErr error
	clk := startClock(cfg, 1, failHeapUntil)
	for cyc := 0; clk.running(cyc) && checkErr == nil; cyc++ {
		clk.tick(cyc)
		var isolated []string
		if cyc%failDomainEvery == failDomainEvery-1 {
			isolated = env.domains[env.domDeck.deal(env.rng)]
		} else {
			isolated = []string{env.ids[env.memberDeck.deal(env.rng)]}
		}
		cut := map[string]bool{}
		for _, id := range isolated {
			cut[id] = true
		}
		log.add("isolate %v", isolated)
		oc.attempted++
		tr.setOp(cyc)

		span := tr.begin()
		start := time.Now()
		env.setIsolated(isolated, true)
		ok := false
		for r := 0; r < failMaxRecoverRounds && !ok; r++ {
			runRound()
			ok = env.recovered(cut)
		}
		lat := time.Since(start)
		tr.end("client.recover", span)
		if !ok {
			oc.failed++
		} else {
			oc.opMs = append(oc.opMs, float64(lat)/1e6)
			tr.setOp(-1)
			checkErr = clk.off(func() error { return env.checkIsolated(ctx, isolated) })
			tr.setOp(cyc)
		}

		span = tr.begin()
		env.setIsolated(isolated, false)
		settled := false
		for r := 0; r < failMaxHealRounds && !settled; r++ {
			runRound()
			settled = env.settled()
		}
		tr.end("client.heal", span)
		if !settled && ok {
			oc.failed++
		}
		tr.setOp(-1)
		if checkErr == nil && settled {
			checkErr = clk.off(func() error { return checkExactlyOnce(ctx, env.ids, env.clis, env.apps) })
		}
		if checkErr == nil {
			checkErr = clk.off(func() error { return env.reset(ctx, cyc+1) })
		}
	}
	oc.timed = clk.elapsed()
	tr.setOp(-1)
	oc.digest = log.sum()
	oc.moves = tally.moves
	oc.heapMB = clk.liveHeap()
	oc.report = []metricLine{
		{"recover_p50_ms", quantile(oc.opMs, 0.50), "ms"},
		{"round_p50_ms", quantile(roundMs, 0.50), "ms"},
		{"round_p90_ms", quantile(roundMs, 0.90), "ms"},
		{"rounds_per_cycle", ratio(float64(rounds), float64(oc.attempted)), "count"},
		{"round_errors", float64(roundErrs), "count"},
	}
	if checkErr != nil {
		return oc, checkErr
	}
	if cfg.trace {
		after, err := readCoopdCounters(ctx, clis)
		if err != nil {
			return nil, err
		}
		hits1, misses1 := sc.CacheStats()
		oc.spans = tr.finish()
		ix := indexSpans(oc.spans)
		oc.layers = map[string]float64{}
		coopdLayer(oc.layers, ix, before, after, oc.attempted)
		fleetLayer(oc.layers, ix, env.spec.stats().sub(beforeSearch), hits1-hits0, misses1-misses0, oc.attempted)
		tally.fill(oc.layers)
	}
	return oc, nil
}
