package agent

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/machine"
	"repro/internal/osched"
	"repro/internal/roofline"
	"repro/internal/taskrt"
	"repro/internal/workload"
)

func newSim(m *machine.Machine) (*des.Engine, *osched.OS) {
	eng := des.NewEngine(1)
	o := osched.New(eng, osched.Config{
		Machine:           m,
		ContextSwitchCost: -1,
		MigrationPenalty:  -1,
		LoadBalancePeriod: -1,
	})
	o.Start()
	return eng, o
}

func feed(rt *taskrt.Runtime, n int, gflop, ai float64) {
	var one func()
	one = func() {
		t := rt.NewTask("t", gflop, ai, nil)
		t.OnComplete = one
		rt.Submit(t)
	}
	for i := 0; i < n; i++ {
		one()
	}
}

func TestFairShareEliminatesOversubscription(t *testing.T) {
	m := machine.PaperModel()
	eng, o := newSim(m)
	// Two applications, both starting with a full set of 32 workers
	// (the paper's over-subscribed default).
	a := taskrt.New(o, taskrt.Config{Name: "a", BindMode: taskrt.BindNode})
	b := taskrt.New(o, taskrt.Config{Name: "b", BindMode: taskrt.BindNode})
	feed(a, 64, 0.01, 0)
	feed(b, 64, 0.01, 0)

	ag := New(o, Config{Period: 5 * des.Millisecond}, FairShare{}, a, b)
	ag.Start()
	eng.RunUntil(1)

	sa, sb := a.Stats(), b.Stats()
	if sa.Suspended != 16 || sb.Suspended != 16 {
		t.Errorf("suspended = %d/%d, want 16/16", sa.Suspended, sb.Suspended)
	}
	// Total running threads equals the core count: no over-subscription.
	if running := sa.Running + sa.Idle + sb.Running + sb.Idle; running > 32 {
		t.Errorf("active threads = %d, want <= 32", running)
	}
	if ag.Decisions() == 0 || ag.Commands() == 0 {
		t.Error("agent made no decisions/commands")
	}
	// Command deduplication: fair share is stable, so far fewer
	// commands than decisions.
	if ag.Commands() > 4 {
		t.Errorf("commands = %d, want few (deduplicated)", ag.Commands())
	}
}

func TestFairSharePerNode(t *testing.T) {
	m := machine.PaperModel()
	eng, o := newSim(m)
	a := taskrt.New(o, taskrt.Config{Name: "a", BindMode: taskrt.BindNode})
	b := taskrt.New(o, taskrt.Config{Name: "b", BindMode: taskrt.BindNode})
	feed(a, 64, 0.01, 0.5)
	feed(b, 64, 0.01, 0.5)
	ag := New(o, Config{Period: 5 * des.Millisecond}, FairShare{PerNode: true}, a, b)
	ag.Start()
	eng.RunUntil(0.5)
	if sa := a.Stats(); sa.Suspended != 16 {
		t.Errorf("a suspended = %d, want 16", sa.Suspended)
	}
	if ag.Errors() != 0 {
		t.Errorf("errors = %d, want 0", ag.Errors())
	}
}

func TestLoadReporting(t *testing.T) {
	m := machine.PaperModel()
	eng, o := newSim(m)
	a := taskrt.New(o, taskrt.Config{Name: "a", BindMode: taskrt.BindCore, Workers: 8})
	feed(a, 16, 0.01, 0)
	ag := New(o, Config{Period: 10 * des.Millisecond}, Static{}, a)
	ag.Start()
	eng.RunUntil(0.5)
	s := ag.LoadSeries(0)
	if s.Len() == 0 {
		t.Fatal("no load samples")
	}
	// 8 busy workers -> load ~8 cores.
	if st := s.Stats(); math.Abs(st.Mean-8) > 0.5 {
		t.Errorf("mean load = %.2f, want ~8", st.Mean)
	}
	if ag.RateSeries(0).Stats().Mean <= 0 {
		t.Error("task rate should be positive")
	}
}

func TestAlignKeepsLeadBounded(t *testing.T) {
	m := machine.PaperModel()
	eng, o := newSim(m)
	prod := taskrt.New(o, taskrt.Config{Name: "producer", BindMode: taskrt.BindNode})
	cons := taskrt.New(o, taskrt.Config{Name: "consumer", BindMode: taskrt.BindNode})
	p := &workload.Pipeline{
		Producer: prod, Consumer: cons,
		TasksPerIter:      16,
		ProducerTaskGFlop: 0.01, // producer is 4x lighter: races ahead
		ConsumerTaskGFlop: 0.04,
		Iterations:        200,
		ItemSizeGB:        1,
	}
	pol := &Align{Pipeline: p, ProducerClient: 0, ConsumerClient: 1, MinLead: 1, MaxLead: 4}
	ag := New(o, Config{Period: 5 * des.Millisecond}, pol, prod, cons)
	ag.Start()
	var done bool
	p.Start(func() { done = true })
	eng.RunUntil(30)
	if !done {
		t.Fatalf("pipeline did not finish: produced %d consumed %d", p.ProducedIterations(), p.ConsumedIterations())
	}
	// The initial transient builds some queue before the policy bites;
	// afterwards the lead stays within the band. 200 uncoordinated
	// iterations would reach depth > 100.
	if p.MaxQueueDepth() > 16 {
		t.Errorf("max queue depth = %d, want bounded (<=16)", p.MaxQueueDepth())
	}
}

func TestAlignReducesIntermediateData(t *testing.T) {
	// The paper's observed benefit: with the agent the intermediate
	// data stays small versus the uncoordinated run.
	run := func(withAgent bool) float64 {
		m := machine.PaperModel()
		eng, o := newSim(m)
		prod := taskrt.New(o, taskrt.Config{Name: "producer", BindMode: taskrt.BindNode})
		cons := taskrt.New(o, taskrt.Config{Name: "consumer", BindMode: taskrt.BindNode})
		p := &workload.Pipeline{
			Producer: prod, Consumer: cons,
			TasksPerIter:      16,
			ProducerTaskGFlop: 0.01,
			ConsumerTaskGFlop: 0.04,
			Iterations:        150,
			ItemSizeGB:        1,
		}
		if withAgent {
			pol := &Align{Pipeline: p, ProducerClient: 0, ConsumerClient: 1, MinLead: 1, MaxLead: 4}
			New(o, Config{Period: 5 * des.Millisecond}, pol, prod, cons).Start()
		}
		p.Start(nil)
		eng.RunUntil(30)
		return p.MeanQueueDepth()
	}
	coordinated := run(true)
	free := run(false)
	if coordinated >= free {
		t.Errorf("agent should reduce intermediate data: coordinated %.1f vs free %.1f", coordinated, free)
	}
}

func TestRooflineOptimalPolicy(t *testing.T) {
	m := machine.PaperModel()
	eng, o := newSim(m)
	// Three memory-bound apps and one compute-bound app, node-bound
	// workers, continuously fed.
	specs := []AppSpec{{AI: 0.5}, {AI: 0.5}, {AI: 0.5}, {AI: 10}}
	var rts []*taskrt.Runtime
	var clients []Client
	for i, s := range specs {
		rt := taskrt.New(o, taskrt.Config{Name: "app", BindMode: taskrt.BindNode})
		feed(rt, 128, 0.02, s.AI)
		rts = append(rts, rt)
		clients = append(clients, rt)
		_ = i
	}
	pol := &RooflineOptimal{Specs: specs}
	ag := New(o, Config{Period: 10 * des.Millisecond}, pol, clients...)
	ag.Start()
	eng.RunUntil(2)

	// The compute-bound app should have received most threads per node
	// (Table I shape: 1,1,1,5).
	comp := rts[3].Stats()
	mem := rts[0].Stats()
	activeComp := comp.Workers - comp.Suspended
	activeMem := mem.Workers - mem.Suspended
	if activeComp <= activeMem {
		t.Errorf("compute-bound active=%d should exceed memory-bound active=%d", activeComp, activeMem)
	}
	// Aggregate throughput should approach the model's 254 GFLOPS
	// optimum (generously: above the even allocation's 140).
	total := 0.0
	for _, rt := range rts {
		total += rt.Stats().GFlopDone
	}
	total /= 2 // per second (2 s window)
	if total < 200 {
		t.Errorf("aggregate throughput %.1f GFLOPS, want > 200 (even split would give 140)", total)
	}
}

func TestBoostAndRestore(t *testing.T) {
	m := machine.PaperModel()
	eng, o := newSim(m)
	a := taskrt.New(o, taskrt.Config{Name: "a", BindMode: taskrt.BindNode})
	b := taskrt.New(o, taskrt.Config{Name: "b", BindMode: taskrt.BindNode})
	feed(a, 64, 0.01, 0)
	feed(b, 64, 0.01, 0)
	ag := New(o, Config{}, Static{}, a, b)
	eng.RunUntil(0.1)
	ag.Boost(1)
	eng.RunUntil(0.2)
	if sa := a.Stats(); sa.Suspended != 32 {
		t.Errorf("boosted-away client suspended = %d, want 32", sa.Suspended)
	}
	if sb := b.Stats(); sb.Suspended != 0 {
		t.Errorf("boosted client suspended = %d, want 0", sb.Suspended)
	}
	ag.Restore()
	eng.RunUntil(0.3)
	if sa, sb := a.Stats(), b.Stats(); sa.Suspended != 16 || sb.Suspended != 16 {
		t.Errorf("after restore suspended = %d/%d, want 16/16", sa.Suspended, sb.Suspended)
	}
}

func TestDecisionCostOccupiesCore(t *testing.T) {
	m := machine.PaperModel()
	eng, o := newSim(m)
	a := taskrt.New(o, taskrt.Config{Name: "a", BindMode: taskrt.BindCore, Workers: 1})
	// Heavy decision cost: 0.05 GFlop per 10 ms period = 5 ms of a
	// 10 GFLOPS core every period -> ~0.5 cores of load.
	ag := New(o, Config{Period: 10 * des.Millisecond, DecisionGFlop: 0.05}, Static{}, a)
	ag.Start()
	eng.RunUntil(1)
	var agentProc *osched.Process
	for _, p := range o.Processes() {
		if p.Name() == "agent" {
			agentProc = p
		}
	}
	if agentProc == nil {
		t.Fatal("agent process not created")
	}
	if busy := agentProc.BusySeconds(); busy < 0.3 || busy > 0.7 {
		t.Errorf("agent busy = %.3f s, want ~0.5", busy)
	}
}

func TestAgentErrors(t *testing.T) {
	m := machine.PaperModel()
	eng, o := newSim(m)
	// Unbound workers reject SetNodeThreads: the agent must surface it.
	a := taskrt.New(o, taskrt.Config{Name: "a", BindMode: taskrt.BindNone})
	var got error
	ag := New(o, Config{Period: 5 * des.Millisecond, OnError: func(err error) { got = err }},
		FairShare{PerNode: true}, a)
	ag.Start()
	eng.RunUntil(0.1)
	if ag.Errors() == 0 || got == nil {
		t.Error("expected SetNodeThreads errors to be reported")
	}
}

func TestAgentValidation(t *testing.T) {
	m := machine.PaperModel()
	_, o := newSim(m)
	a := taskrt.New(o, taskrt.Config{Name: "a"})
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("nil policy", func() { New(o, Config{}, nil, a) })
	expectPanic("no clients", func() { New(o, Config{}, Static{}) })
}

func TestBadCommands(t *testing.T) {
	m := machine.PaperModel()
	eng, o := newSim(m)
	a := taskrt.New(o, taskrt.Config{Name: "a"})
	bad := policyFunc(func(des.Time, *machine.Machine, []Info) []Command {
		return []Command{{Client: 7}, {Client: 0}} // unknown client; empty command
	})
	ag := New(o, Config{Period: 5 * des.Millisecond}, bad, a)
	ag.Start()
	eng.RunUntil(0.02)
	if ag.Errors() < 2 {
		t.Errorf("errors = %d, want >= 2", ag.Errors())
	}
}

// policyFunc adapts a function to Policy for tests.
type policyFunc func(des.Time, *machine.Machine, []Info) []Command

func (policyFunc) Name() string { return "test" }
func (f policyFunc) Decide(now des.Time, m *machine.Machine, infos []Info) []Command {
	return f(now, m, infos)
}

func TestStopHaltsDecisions(t *testing.T) {
	m := machine.PaperModel()
	eng, o := newSim(m)
	a := taskrt.New(o, taskrt.Config{Name: "a"})
	ag := New(o, Config{Period: 5 * des.Millisecond}, Static{}, a)
	ag.Start()
	ag.Start() // idempotent
	eng.RunUntil(0.1)
	n := ag.Decisions()
	ag.Stop()
	ag.Stop() // idempotent
	eng.RunUntil(0.2)
	if ag.Decisions() != n {
		t.Error("decisions after Stop")
	}
}

func TestPolicyNames(t *testing.T) {
	if (FairShare{}).Name() == "" || (&Align{}).Name() == "" || (&RooflineOptimal{}).Name() == "" || (Static{}).Name() == "" {
		t.Error("policies must have names")
	}
}

func TestRooflineOptimalMatchesTableI(t *testing.T) {
	// The policy's precomputed counts should equal the exhaustive
	// optimum from the roofline package (1,1,1,5 shape).
	m := machine.PaperModel()
	apps := []roofline.App{{AI: 0.5}, {AI: 0.5}, {AI: 0.5}, {AI: 10}}
	var s roofline.Search
	counts, _, res, err := s.BestPerNodeCountsFloorSpec(roofline.ObjTotalGFLOPS, nil, m, apps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalGFLOPS < 254-1e-9 {
		t.Errorf("optimum %.1f < 254", res.TotalGFLOPS)
	}
	if counts[3] < counts[0] {
		t.Errorf("counts %v should favor compute-bound", counts)
	}
}

func TestInfoRates(t *testing.T) {
	m := machine.PaperModel()
	eng, o := newSim(m)
	a := taskrt.New(o, taskrt.Config{Name: "a", BindMode: taskrt.BindCore, Workers: 4})
	feed(a, 8, 0.01, 0.5)
	var last Info
	probe := policyFunc(func(_ des.Time, _ *machine.Machine, infos []Info) []Command {
		last = infos[0]
		return nil
	})
	New(o, Config{Period: 10 * des.Millisecond}, probe, a).Start()
	eng.RunUntil(1)
	// 4 threads on node 0 at AI=0.5 demand 80 GB/s of the node's 32:
	// they saturate it -> 32 GB/s moved, 16 GFLOPS computed.
	if math.Abs(last.GFlopRate-16) > 1.5 {
		t.Errorf("GFlopRate = %.2f, want ~16", last.GFlopRate)
	}
	if math.Abs(last.GBRate-32) > 3 {
		t.Errorf("GBRate = %.2f, want ~32", last.GBRate)
	}
	if ai := last.GFlopRate / last.GBRate; math.Abs(ai-0.5) > 0.02 {
		t.Errorf("online AI estimate = %.3f, want 0.5", ai)
	}
}

func TestAdaptiveRooflineConvergesToTableI(t *testing.T) {
	// Like TestRooflineOptimalPolicy, but the policy is never told the
	// applications' arithmetic intensities: it estimates them online.
	m := machine.PaperModel()
	eng, o := newSim(m)
	ais := []float64{0.5, 0.5, 0.5, 10}
	var rts []*taskrt.Runtime
	var clients []Client
	for _, ai := range ais {
		rt := taskrt.New(o, taskrt.Config{Name: "app", BindMode: taskrt.BindNode})
		feed(rt, 128, 0.02, ai)
		rts = append(rts, rt)
		clients = append(clients, rt)
	}
	pol := &AdaptiveRoofline{Warmup: 5}
	ag := New(o, Config{Period: 10 * des.Millisecond}, pol, clients...)
	ag.Start()
	eng.RunUntil(2)

	est := pol.EstimatedAI()
	if len(est) != 4 {
		t.Fatalf("no AI estimates: %v", est)
	}
	for i := 0; i < 3; i++ {
		if math.Abs(est[i]-0.5) > 0.1 {
			t.Errorf("estimated AI[%d] = %.3f, want ~0.5", i, est[i])
		}
	}
	if math.Abs(est[3]-10) > 2 {
		t.Errorf("estimated AI[3] = %.3f, want ~10", est[3])
	}
	// Allocation quality: well above the even split's 140 GFLOPS.
	total := 0.0
	for _, rt := range rts {
		total += rt.Stats().GFlopDone
	}
	total /= 2
	if total < 190 {
		t.Errorf("adaptive aggregate = %.1f GFLOPS, want > 190", total)
	}
}

func TestAdaptiveRooflineName(t *testing.T) {
	if (&AdaptiveRoofline{}).Name() == "" {
		t.Error("policy needs a name")
	}
}
