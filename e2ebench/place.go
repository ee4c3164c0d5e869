package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/fleet"
	"repro/internal/machine"
)

// fleet-place shape: 48 members cycling through three topologies, four
// members per failure domain, held at about three apps per machine.
const (
	placeMembers   = 48
	placeDomains   = 12
	placePerMember = 3
	placeGangEvery = 20 // every 20th op is a 4-replica spread gang
	placeGangSize  = 4
	placePollAt    = 12 // Inventory.Poll at this op of every 25
	placeRoundAt   = 24 // Rebalancer.Round at this op of every 25
	placePeriod    = 25
	placeHeapEvery = 100 // the live heap is read every 100 ops
	placeHeapUntil = 1500
)

var placeModels = []func() *machine.Machine{machine.PaperModel, machine.SkylakeQuad, machine.KNLSNC4}

// placeGen draws fleet-place apps: AI log-uniform on the two-octave
// grid 1/32, 1/8, 1/2, 2, 8, one in ten NUMA-bad on a uniform home
// node, and priorities mostly batch. Each property is dealt from its
// own shuffled deck, so every seed places the same mix and only the
// order differs. The grid keeps the demand classes few enough that the
// Scorer's memo answers most solves.
type placeGen struct {
	rng                 *rand.Rand
	seq                 int
	ai, bad, home, prio deck
}

func newPlaceGen(seed int64) *placeGen {
	return &placeGen{
		rng:  rand.New(rand.NewSource(seed)),
		ai:   deck{n: 5},
		bad:  deck{n: 10},
		home: deck{n: 4},
		prio: deck{n: 20},
	}
}

func (g *placeGen) spec(prefix string) fleet.AppSpec {
	g.seq++
	s := fleet.AppSpec{Name: fmt.Sprintf("%s%d", prefix, g.seq), AI: math.Exp2(float64(2*g.ai.deal(g.rng) - 5))}
	if g.bad.deal(g.rng) == 0 {
		s.Placement = ctrlplane.PlacementBad
		s.HomeNode = g.home.deal(g.rng)
	}
	switch p := g.prio.deal(g.rng); {
	case p == 0:
		s.Priority = fleet.PrioritySystem
	case p <= 2:
		s.Priority = fleet.PriorityLatency
	}
	return s
}

// where is an app's current registration.
type where struct{ member, id string }

type placeEnv struct {
	members []*coopd
	ids     []string
	clis    map[string]*client.Client // the benchmark's own coopd clients
	rt      *http.Transport           // coopd traffic, traced in a traced run
	fleetRT *http.Transport           // client -> fleetd traffic
	srv     *fleet.Server
	stop    func() // stops fleetd's HTTP server
	fc      *fleet.Client
	spec    *countingSpec // traced run only
	gen     *placeGen

	live []string // app names, in arrival order
	at   map[string]where
}

func (e *placeEnv) close() {
	if e.stop != nil {
		e.stop()
	}
	for _, c := range e.members {
		c.close()
	}
	e.rt.CloseIdleConnections()
	e.fleetRT.CloseIdleConnections()
}

func fleetRoute(r *http.Request) string {
	return strings.TrimPrefix(r.URL.Path, "/v1/fleet/")
}

// bootPlace starts the members and fleetd and preloads the fleet.
func bootPlace(ctx context.Context, cfg runConfig, tr *tracer) (*placeEnv, error) {
	if err := checkTableI(ctx); err != nil {
		return nil, err
	}
	e := &placeEnv{
		clis:    map[string]*client.Client{},
		rt:      newTransport(),
		fleetRT: newTransport(),
		gen:     newPlaceGen(cfg.seed),
		at:      map[string]where{},
	}
	traced := wrapTransport(tr, e.rt)
	inv := fleet.NewInventory(fleet.InventoryConfig{
		NewClient: func(ep string) *client.Client { return newCoopdClient(ep, traced) },
	})
	for i := 0; i < placeMembers; i++ {
		c, err := startCoopd(placeModels[i%len(placeModels)](), tr)
		if err != nil {
			e.close()
			return nil, err
		}
		id := fmt.Sprintf("m%02d", i)
		e.members = append(e.members, c)
		e.ids = append(e.ids, id)
		e.clis[id] = newCoopdClient(c.url, traced)
		if err := inv.AddDomain(id, fmt.Sprintf("d%02d", i%placeDomains), c.url); err != nil {
			e.close()
			return nil, err
		}
	}
	srv, err := fleet.NewServer(fleet.ServerConfig{Inventory: inv, DomainSpread: true})
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
	url, stop, err := serve(traceHandler(tr, "fleetd.", fleetRoute, srv.Handler()))
	if err != nil {
		e.close()
		return nil, err
	}
	e.stop = stop
	e.fc = fleet.NewClient(url, &http.Client{Transport: e.fleetRT})

	inv.Poll(ctx)
	for len(e.live) < placeMembers*placePerMember {
		if _, err := e.place(ctx); err != nil {
			e.close()
			return nil, err
		}
	}
	// Settle: one round absorbs whatever re-pack the preload invites,
	// so the first timed round is not the odd one out.
	if _, err := e.round(ctx); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *placeEnv) place(ctx context.Context) (string, error) {
	spec := e.gen.spec("p")
	resp, err := e.fc.Place(ctx, spec)
	if err != nil {
		return spec.Name, err
	}
	e.live = append(e.live, spec.Name)
	e.at[spec.Name] = where{resp.Machine, resp.ID}
	return spec.Name, nil
}

func (e *placeEnv) gang(ctx context.Context) (fleet.GangSpec, error) {
	app := e.gen.spec("g")
	g := fleet.GangSpec{Name: app.Name, Replicas: placeGangSize, Policy: fleet.GangSpread, App: app}
	res, err := e.fc.PlaceGang(ctx, g)
	if err != nil {
		return g, err
	}
	for _, p := range res.Placements {
		e.live = append(e.live, p.App.Name)
		e.at[p.App.Name] = where{p.Member, p.App.ID}
	}
	return g, nil
}

// depart deregisters the oldest resident app directly on its coopd,
// as an app finishing on its own would; the fleet learns at its next
// poll. Oldest-first gives every app the same lifetime, so the fleet's
// mix follows the dealt sequence and only its order depends on the
// seed.
func (e *placeEnv) depart(ctx context.Context) (string, error) {
	name := e.live[0]
	w := e.at[name]
	if err := e.clis[w.member].Deregister(ctx, w.id); err != nil {
		return name, err
	}
	e.live = e.live[1:]
	delete(e.at, name)
	return name, nil
}

// round runs one rebalance round and re-reads where every app lives,
// since moves re-register apps under new ids.
func (e *placeEnv) round(ctx context.Context) (*fleet.Plan, error) {
	plan, err := e.srv.Rebalancer().Round(ctx)
	if err != nil {
		return plan, err
	}
	e.relocate()
	return plan, nil
}

// relocate refreshes app locations from the inventory snapshot.
func (e *placeEnv) relocate() {
	for _, m := range e.srv.Inventory().Snapshot() {
		stale := map[string]bool{}
		for _, id := range m.Stale {
			stale[id] = true
		}
		for _, a := range m.Apps {
			if _, ok := e.at[a.Name]; ok && !stale[a.ID] {
				e.at[a.Name] = where{m.ID, a.ID}
			}
		}
	}
}

// registrations counts every app name registered on the members, read
// from each coopd directly.
func registrations(ctx context.Context, ids []string, clis map[string]*client.Client) (map[string]int, error) {
	count := map[string]int{}
	for _, id := range ids {
		apps, err := clis[id].Apps(ctx)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", id, err)
		}
		for _, a := range apps.Apps {
			count[a.Name]++
		}
	}
	return count, nil
}

// checkExactlyOnce verifies that every live app is registered exactly
// once across the members and nothing else is registered.
func checkExactlyOnce(ctx context.Context, ids []string, clis map[string]*client.Client, live []string) error {
	count, err := registrations(ctx, ids, clis)
	if err != nil {
		return err
	}
	for _, name := range live {
		if count[name] != 1 {
			return checkFailf("app %s is registered %d times", name, count[name])
		}
		delete(count, name)
	}
	for name := range count {
		return checkFailf("app %s is registered but should have left", name)
	}
	return nil
}

// checkGang verifies all-or-nothing admission: a placed gang has every
// replica registered once, a refused one has none.
func checkGang(ctx context.Context, e *placeEnv, g fleet.GangSpec, placed bool) error {
	count, err := registrations(ctx, e.ids, e.clis)
	if err != nil {
		return err
	}
	n := 0
	for i := 0; i < g.Replicas; i++ {
		n += count[fmt.Sprintf("%s-%d", g.Name, i)]
	}
	if placed && n != g.Replicas || !placed && n != 0 {
		return checkFailf("gang %s (placed=%v) has %d of %d replicas registered", g.Name, placed, n, g.Replicas)
	}
	return nil
}

// runPlace is the fleet-place workload: single-app placements through
// fleetd, a 4-replica spread gang every 20th op, and departures that
// hold occupancy at three apps per machine, with an inventory poll and
// a rebalance round every 25 ops.
func runPlace(ctx context.Context, cfg runConfig) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	env, setupS, err := setupRuns(cfg.setupReps,
		func() (*placeEnv, error) { return bootPlace(ctx, cfg, tr) },
		func(e *placeEnv) { e.close() })
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
	var checkErr error
	clk := startClock(cfg, placeHeapEvery, placeHeapUntil)
	for op := 0; clk.running(op) && checkErr == nil; op++ {
		clk.tick(op)
		tr.setOp(op)
		span := tr.begin()
		start := time.Now()
		switch {
		case op%placeGangEvery == placeGangEvery-1:
			g, err := env.gang(ctx)
			tr.end("client.gang", span)
			log.add("gang %s %g %s %d %s", g.Name, g.App.AI, g.App.Placement, g.App.HomeNode, g.App.Priority)
			oc.attempted++
			if err != nil {
				oc.failed++
			}
			tr.setOp(-1)
			checkErr = clk.off(func() error { return checkGang(ctx, env, g, err == nil) })
		case len(env.live) > placeMembers*placePerMember:
			name, err := env.depart(ctx)
			tr.end("client.depart", span)
			log.add("depart %s", name)
			oc.attempted++
			if err != nil {
				oc.failed++
			}
		default:
			name, err := env.place(ctx)
			lat := time.Since(start)
			tr.end("client.place", span)
			log.add("place %s", name)
			oc.attempted++
			if err != nil {
				oc.failed++
			} else {
				oc.opMs = append(oc.opMs, float64(lat)/1e6)
			}
		}
		tr.setOp(op)
		switch op % placePeriod {
		case placePollAt:
			s := tr.begin()
			env.srv.Inventory().Poll(ctx)
			tr.end("fleet.poll", s)
		case placeRoundAt:
			s := tr.begin()
			t := time.Now()
			plan, err := env.srv.Rebalancer().Round(ctx)
			roundMs = append(roundMs, float64(time.Since(t))/1e6)
			tr.end("fleet.round", s)
			if err != nil {
				return nil, fmt.Errorf("rebalance round: %w", err)
			}
			tally.add(plan)
			oc.gflops = append(oc.gflops, plan.CurrentGFLOPS)
			clk.off(func() error { env.relocate(); return nil })
		}
	}
	oc.timed = clk.elapsed()
	tr.setOp(-1)
	if checkErr == nil {
		checkErr = checkExactlyOnce(ctx, env.ids, env.clis, env.live)
	}
	oc.digest = log.sum()
	oc.moves = tally.moves
	oc.heapMB = clk.liveHeap()
	oc.report = []metricLine{
		{"place_p50_ms", quantile(oc.opMs, 0.50), "ms"},
		{"place_p99_ms", quantile(oc.opMs, 0.99), "ms"},
		{"round_p50_ms", quantile(roundMs, 0.50), "ms"},
		{"round_p90_ms", quantile(roundMs, 0.90), "ms"},
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
