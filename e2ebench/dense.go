package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/ctrlplane/client"
	"repro/internal/machine"
	"repro/internal/roofline"
)

// The machine-dense resident count sweeps between these bounds, set
// up from eight residents. Above 8 (the paper machine's cores per
// node) the floor-1 solve is infeasible and coopd falls back to floor
// 0, whose search barely prunes on near-identical apps. The sweep
// stays above 8 so that fast ops (cache hits and compute-bound
// residents) stay a small minority, clear of the median.
const (
	denseStart = 8
	denseLow   = 9
	denseHigh  = 13
	// denseCompAt is where the compute-bound card sits in every deck:
	// early, so its residency falls inside the first denseModelOps ops.
	denseCompAt = 20
	// denseModelOps is how many ops model_gflops averages; the compute
	// resident alone moves the aggregate by a third, so every run
	// averages the same stretch of the sequence, however far it gets.
	denseModelOps = 160
	// The live heap is read at every sweep (8 ops) up to op 200.
	denseHeapEvery = 8
	denseHeapUntil = 200
)

// denseClass is one entry of the machine-dense arrival alphabet.
type denseClass struct {
	tag   string
	ai    float64
	bad   bool // NUMA-bad, home node dealt per arrival
	cards int  // copies in one deck
}

// denseDeck is dealt shuffled, one deck at a time, so every seed sees
// the same class mix and only the order differs. Memory-bound
// duplicates dominate; a single compute-bound card per 160 keeps most
// resident sets compute-free, because one AI-10 app lets the search
// prune almost everything. That card is always dealt at the same place
// in the deck, so the share of ops with a compute-bound resident —
// which decides whether a solve takes microseconds or hundreds of
// milliseconds — is the same for every seed. The four NUMA-bad home
// nodes, the streaming class and the long deck make resident multisets
// rarely repeat, which keeps coopd's solve-cache hit share far below
// one half; a 20-card deck repeats them so often that on some seeds
// most ops are cache hits.
var denseDeck = []denseClass{
	{tag: "mem", ai: 0.5, cards: 72},
	{tag: "stream", ai: 1.0 / 32, cards: 39},
	{tag: "bad", ai: 1.0 / 16, bad: true, cards: 48},
	{tag: "comp", ai: 10, cards: 1},
}

type denseGen struct {
	rng  *rand.Rand
	deck []int // indexes into denseDeck, in deal order
	next int
	seq  int
	home deck // NUMA-bad home nodes
}

func newDenseGen(seed int64) *denseGen {
	g := &denseGen{rng: rand.New(rand.NewSource(seed)), home: deck{n: 4}}
	for i, c := range denseDeck {
		for k := 0; k < c.cards; k++ {
			g.deck = append(g.deck, i)
		}
	}
	g.next = len(g.deck)
	return g
}

// draw deals the next arrival.
func (g *denseGen) draw() ctrlplane.RegisterRequest {
	if g.next == len(g.deck) {
		g.rng.Shuffle(len(g.deck), func(a, b int) { g.deck[a], g.deck[b] = g.deck[b], g.deck[a] })
		for i, c := range g.deck {
			if denseDeck[c].tag == "comp" {
				g.deck[i], g.deck[denseCompAt] = g.deck[denseCompAt], g.deck[i]
				break
			}
		}
		g.next = 0
	}
	c := denseDeck[g.deck[g.next]]
	g.next++
	g.seq++
	req := ctrlplane.RegisterRequest{Name: fmt.Sprintf("%s-%d", c.tag, g.seq), AI: c.ai}
	if c.bad {
		req.Placement = ctrlplane.PlacementBad
		req.HomeNode = g.home.deal(g.rng)
	}
	return req
}

type resident struct {
	id  string
	req ctrlplane.RegisterRequest
}

type denseEnv struct {
	m         *machine.Machine
	c         *coopd
	rt        *http.Transport
	cli       *client.Client
	gen       *denseGen
	residents []resident // oldest first
	lastGen   uint64
}

func (e *denseEnv) close() {
	e.c.close()
	e.rt.CloseIdleConnections()
}

// bootDense starts coopd and preloads it with eight apps.
func bootDense(ctx context.Context, cfg runConfig, tr *tracer) (*denseEnv, error) {
	if err := checkTableI(ctx); err != nil {
		return nil, err
	}
	m := machine.PaperModel()
	c, err := startCoopd(m, tr)
	if err != nil {
		return nil, err
	}
	rt := newTransport()
	e := &denseEnv{m: m, c: c, rt: rt, cli: newCoopdClient(c.url, wrapTransport(tr, rt)), gen: newDenseGen(cfg.seed)}
	for len(e.residents) < denseStart {
		if _, err := e.register(ctx); err != nil {
			e.close()
			return nil, err
		}
	}
	alloc, err := e.readAllocation(ctx)
	if err == nil {
		err = e.validate(alloc)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *denseEnv) register(ctx context.Context) (ctrlplane.RegisterRequest, error) {
	req := e.gen.draw()
	resp, err := e.cli.Register(ctx, req)
	if err != nil {
		return req, err
	}
	e.residents = append(e.residents, resident{id: resp.ID, req: req})
	return req, nil
}

// deregister removes the oldest resident.
func (e *denseEnv) deregister(ctx context.Context) (ctrlplane.RegisterRequest, error) {
	r := e.residents[0]
	if err := e.cli.Deregister(ctx, r.id); err != nil {
		return r.req, err
	}
	e.residents = e.residents[1:]
	return r.req, nil
}

// readAllocation reads /v1/allocations until it reflects the latest
// write (the registry is synchronous, so the first read normally does).
func (e *denseEnv) readAllocation(ctx context.Context) (*ctrlplane.AllocationsResponse, error) {
	for i := 0; i < 100; i++ {
		alloc, err := e.cli.Allocations(ctx)
		if err != nil {
			return nil, err
		}
		if alloc.Generation > e.lastGen {
			e.lastGen = alloc.Generation
			return alloc, nil
		}
	}
	return nil, fmt.Errorf("allocation generation stuck at %d", e.lastGen)
}

// validate checks a served allocation: every resident app present
// exactly once, per-node counts within the node's cores, and the
// served aggregate equal to the roofline model on the served counts.
func (e *denseEnv) validate(alloc *ctrlplane.AllocationsResponse) error {
	byID := make(map[string]ctrlplane.RegisterRequest, len(e.residents))
	for _, r := range e.residents {
		byID[r.id] = r.req
	}
	if len(alloc.Apps) != len(byID) {
		return checkFailf("allocation lists %d apps, %d resident", len(alloc.Apps), len(byID))
	}
	nodes := e.m.NumNodes()
	used := make([]int, nodes)
	apps := make([]roofline.App, len(alloc.Apps))
	al := roofline.Allocation{Threads: make([][]int, len(alloc.Apps))}
	for i, a := range alloc.Apps {
		req, ok := byID[a.ID]
		if !ok {
			return checkFailf("allocation lists %s twice or unregistered", a.ID)
		}
		delete(byID, a.ID)
		if len(a.PerNode) != nodes {
			return checkFailf("app %s has %d node counts on a %d-node machine", a.ID, len(a.PerNode), nodes)
		}
		for j, n := range a.PerNode {
			if n < 0 {
				return checkFailf("app %s has %d threads on node %d", a.ID, n, j)
			}
			used[j] += n
		}
		apps[i] = roofline.App{Name: req.Name, AI: req.AI}
		if req.Placement == ctrlplane.PlacementBad {
			apps[i].Placement = roofline.NUMABad
			apps[i].HomeNode = machine.NodeID(req.HomeNode)
		}
		al.Threads[i] = a.PerNode
	}
	for j, n := range used {
		if n > e.m.Nodes[j].Cores {
			return checkFailf("node %d holds %d threads on %d cores", j, n, e.m.Nodes[j].Cores)
		}
	}
	res, err := roofline.Evaluate(e.m, apps, al)
	if err != nil {
		return checkFailf("evaluating served counts: %v", err)
	}
	if math.Abs(res.TotalGFLOPS-alloc.TotalGFLOPS) > 1e-9*math.Max(1, res.TotalGFLOPS) {
		return checkFailf("served %.9f GFLOPS, model gives %.9f on the served counts", alloc.TotalGFLOPS, res.TotalGFLOPS)
	}
	return nil
}

// demand returns the resident set as roofline apps in a canonical
// order, and its multiset key.
func (e *denseEnv) demand() ([]roofline.App, string) {
	apps := make([]roofline.App, len(e.residents))
	keys := make([]string, len(e.residents))
	for i, r := range e.residents {
		apps[i] = roofline.App{Name: r.req.Name, AI: r.req.AI}
		if r.req.Placement == ctrlplane.PlacementBad {
			apps[i].Placement = roofline.NUMABad
			apps[i].HomeNode = machine.NodeID(r.req.HomeNode)
		}
	}
	sort.Slice(apps, func(a, b int) bool {
		x, y := apps[a], apps[b]
		if x.Placement != y.Placement {
			return x.Placement < y.Placement
		}
		if x.AI != y.AI {
			return x.AI < y.AI
		}
		return x.HomeNode < y.HomeNode
	})
	for i, a := range apps {
		keys[i] = fmt.Sprintf("%d/%g/%d", a.Placement, a.AI, a.HomeNode)
	}
	return apps, strings.Join(keys, ",")
}

// runDense is the machine-dense workload: register and deregister apps
// on one coopd so the resident count sweeps 9 -> 13 -> 9, reading the
// allocation after every write. The op is the write plus the reads;
// its latency is until the client holds the allocation reflecting it.
func runDense(ctx context.Context, cfg runConfig) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	env, setupS, err := setupRuns(cfg.setupReps,
		func() (*denseEnv, error) { return bootDense(ctx, cfg, tr) },
		func(e *denseEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	oc := &outcome{setupS: setupS}
	log := newOpLog()
	var before coopdCounters
	if cfg.trace {
		if before, err = readCoopdCounters(ctx, []*client.Client{env.cli}); err != nil {
			return nil, err
		}
	}

	// Demand multisets in op order, first occurrence only: the solves
	// coopd's cache could not serve, less the rare repeat its 256-entry
	// LRU had already dropped.
	var replay [][]roofline.App
	seen := map[string]bool{}
	up := true
	clk := startClock(cfg, denseHeapEvery, denseHeapUntil)
	var checkErr error
	for op := 0; clk.running(op); op++ {
		clk.tick(op)
		n := len(env.residents)
		if n >= denseHigh {
			up = false
		} else if n <= denseLow {
			up = true
		}
		tr.setOp(op)
		start := time.Now()
		span := tr.begin()
		var req ctrlplane.RegisterRequest
		kind := "dereg"
		if up {
			kind = "reg"
			req, err = env.register(ctx)
		} else {
			req, err = env.deregister(ctx)
		}
		var alloc *ctrlplane.AllocationsResponse
		if err == nil {
			alloc, err = env.readAllocation(ctx)
		}
		lat := time.Since(start)
		tr.end("client.alloc", span)
		log.add("%s %s %g %s %d", kind, req.Name, req.AI, req.Placement, req.HomeNode)
		oc.attempted++
		if err != nil {
			oc.failed++
			continue
		}
		oc.opMs = append(oc.opMs, float64(lat)/1e6)
		oc.gflops = append(oc.gflops, alloc.TotalGFLOPS)
		tr.setOp(-1)
		checkErr = clk.off(func() error {
			if cfg.trace {
				apps, key := env.demand()
				if !seen[key] {
					seen[key] = true
					replay = append(replay, apps)
				}
			}
			return env.validate(alloc)
		})
		if checkErr != nil {
			break
		}
	}
	oc.timed = clk.elapsed()
	tr.setOp(-1)
	oc.gflops = oc.gflops[:min(len(oc.gflops), denseModelOps)]
	oc.digest = log.sum()
	oc.heapMB = clk.liveHeap()
	oc.report = []metricLine{
		{"alloc_p50_ms", quantile(oc.opMs, 0.50), "ms"},
		{"alloc_p99_ms", quantile(oc.opMs, 0.99), "ms"},
	}
	if checkErr != nil {
		return oc, checkErr
	}
	if cfg.trace {
		after, err := readCoopdCounters(ctx, []*client.Client{env.cli})
		if err != nil {
			return nil, err
		}
		oc.spans = tr.finish()
		oc.layers = map[string]float64{}
		coopdLayer(oc.layers, indexSpans(oc.spans), before, after, oc.attempted)
		if err := replaySolves(oc.layers, env.m, replay, oc.attempted); err != nil {
			return nil, err
		}
	}
	return oc, nil
}

// replaySolves reruns the recorded demand multisets through the same
// search coopd uses — floor 1, falling back to floor 0 — on one worker
// so the counts repeat exactly, and times the evaluator on each
// optimum. coopd's solver takes no objective spec, so this replay is
// how the roofline layer is counted on machine-dense.
func replaySolves(layers map[string]float64, m *machine.Machine, replay [][]roofline.App, ops int) error {
	spec := newCountingSpec(roofline.ObjTotalGFLOPS, nil)
	search := roofline.Search{Parallelism: 1}
	var solveMs []float64
	var evalNs float64
	var hits, misses uint64
	for _, apps := range replay {
		start := time.Now()
		_, al, _, err := search.BestPerNodeCountsFloorSpec(spec, nil, m, apps, 1)
		if errors.Is(err, roofline.ErrNoAllocation) {
			_, al, _, err = search.BestPerNodeCountsFloorSpec(spec, nil, m, apps, 0)
		}
		if err != nil {
			return fmt.Errorf("replaying a %d-app solve: %w", len(apps), err)
		}
		solveMs = append(solveMs, float64(time.Since(start))/1e6)

		ev, err := roofline.NewEvaluator(m, apps)
		if err != nil {
			return err
		}
		var res roofline.Result
		start = time.Now()
		if err := ev.EvaluateInto(&res, al); err != nil {
			return err
		}
		evalNs += float64(time.Since(start))
		h, ms := ev.MemoStats()
		hits += h
		misses += ms
	}
	searchLayer(layers, spec.stats(), ops)
	layers["roofline.solve_ms.p50"] = quantile(solveMs, 0.50)
	layers["roofline.solve_ms.p99"] = quantile(solveMs, 0.99)
	layers["roofline.eval_ns"] = ratio(evalNs, float64(len(replay)))
	layers["roofline.eval_memo_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	return nil
}
