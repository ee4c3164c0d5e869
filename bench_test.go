// Package repro's root benchmark harness regenerates every table and
// figure of the paper (see DESIGN.md's per-experiment index). Each
// benchmark prints the reproduced numbers next to the paper's via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as the
// experiment runner:
//
//	BenchmarkTableI / BenchmarkTableII     — the worked examples
//	BenchmarkNodePerApp                    — the in-text third scenario
//	BenchmarkFig2 / BenchmarkFig3          — allocation scenario sets
//	BenchmarkTableIII                      — model vs simulated hardware
//	BenchmarkProducerConsumer              — the Fig. 1 agent experiment
//	BenchmarkBlockingOptions               — thread-control options 1-3
//	BenchmarkOversubscription              — shared vs partitioned cores
//	BenchmarkLibraryDelegation             — fast core shifting
//	BenchmarkCalibration                   — Section III.B fitting
//	BenchmarkNonWorkerThreads              — Section IV master threads
//	BenchmarkDistributed                   — Section V cluster schemes
//	BenchmarkHeterogeneousRuntimes         — OCR-like + TBB-like mix
//	BenchmarkAblation*                     — design-choice ablations
package repro

import (
	"fmt"
	"testing"

	"repro/internal/agent"
	"repro/internal/arena"
	"repro/internal/calibrate"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/osched"
	"repro/internal/roofline"
	"repro/internal/taskrt"
	"repro/internal/workload"
)

// modelGFLOPS evaluates a scenario's analytic model once per iteration
// and reports the result.
func modelGFLOPS(b *testing.B, s *core.Scenario, paper float64) {
	b.Helper()
	var total float64
	for i := 0; i < b.N; i++ {
		r, err := s.RunModel()
		if err != nil {
			b.Fatal(err)
		}
		total = r.TotalGFLOPS
	}
	b.ReportMetric(total, "model-GFLOPS")
	b.ReportMetric(paper, "paper-GFLOPS")
}

// BenchmarkTableI regenerates Table I: uneven allocation (1,1,1,5) on
// the 4x8 model machine. Paper: 254 GFLOPS.
func BenchmarkTableI(b *testing.B) {
	modelGFLOPS(b, core.TableIScenario(), 254)
}

// BenchmarkTableII regenerates Table II: even allocation (2,2,2,2).
// Paper: 140 GFLOPS.
func BenchmarkTableII(b *testing.B) {
	modelGFLOPS(b, core.TableIIScenario(), 140)
}

// BenchmarkNodePerApp regenerates the in-text scenario: one node per
// application. Paper: 128 GFLOPS.
func BenchmarkNodePerApp(b *testing.B) {
	modelGFLOPS(b, core.NodePerAppScenario(), 128)
}

// BenchmarkFig2 regenerates all three Fig. 2 allocation scenarios.
func BenchmarkFig2(b *testing.B) {
	paper := []float64{254, 140, 128}
	names := []string{"uneven", "even", "node-per-app"}
	for i, s := range core.Fig2Scenarios() {
		b.Run(names[i], func(b *testing.B) { modelGFLOPS(b, s, paper[i]) })
	}
}

// BenchmarkFig3 regenerates the NUMA-bad ranking reversal. Paper: ~138
// (even) vs 150 (node per app).
func BenchmarkFig3(b *testing.B) {
	even, npa := core.Fig3Scenarios()
	b.Run("even", func(b *testing.B) { modelGFLOPS(b, even, 138) })
	b.Run("node-per-app", func(b *testing.B) { modelGFLOPS(b, npa, 150) })
}

// BenchmarkTableIII regenerates Table III: the analytic model versus
// the synthetic benchmark on the (simulated) Skylake machine, for all
// five scenarios. One iteration simulates 0.25 s of machine time.
func BenchmarkTableIII(b *testing.B) {
	for _, row := range core.TableIIIScenarios() {
		row := row
		b.Run(row.Name, func(b *testing.B) {
			var model, sim float64
			for i := 0; i < b.N; i++ {
				row.Scenario.Sim.Duration = 0.25
				cmp, err := row.Scenario.Run(row.Name)
				if err != nil {
					b.Fatal(err)
				}
				model, sim = cmp.Model.TotalGFLOPS, cmp.Sim.TotalGFLOPS
			}
			b.ReportMetric(model, "model-GFLOPS")
			b.ReportMetric(sim, "sim-GFLOPS")
			b.ReportMetric(row.PaperModel, "paper-model")
			b.ReportMetric(row.PaperReal, "paper-real")
		})
	}
}

// BenchmarkProducerConsumer regenerates the Fig. 1 experiment: the
// producer-consumer pipeline with and without the coordinating agent,
// reporting runtime and mean intermediate-data size.
func BenchmarkProducerConsumer(b *testing.B) {
	run := func(coordinated bool) (seconds, meanDepth float64) {
		m := machine.PaperModel()
		eng := des.NewEngine(1)
		o := osched.New(eng, osched.Config{Machine: m})
		o.Start()
		prod := taskrt.New(o, taskrt.Config{Name: "producer", BindMode: taskrt.BindNode})
		cons := taskrt.New(o, taskrt.Config{Name: "consumer", BindMode: taskrt.BindNode})
		p := &workload.Pipeline{
			Producer: prod, Consumer: cons,
			TasksPerIter:      16,
			ProducerTaskGFlop: 0.02,
			ConsumerTaskGFlop: 0.08,
			Iterations:        40,
			ItemSizeGB:        1,
		}
		if coordinated {
			pol := &agent.Align{Pipeline: p, ProducerClient: 0, ConsumerClient: 1, MinLead: 1, MaxLead: 4}
			agent.New(o, agent.Config{Period: 5 * des.Millisecond}, pol, prod, cons).Start()
		}
		var doneAt des.Time
		p.Start(func() { doneAt = eng.Now(); eng.Halt() })
		eng.RunUntil(600)
		return float64(doneAt), p.MeanQueueDepth()
	}
	for _, mode := range []struct {
		name        string
		coordinated bool
	}{{"uncoordinated", false}, {"agent-coordinated", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var sec, depth float64
			for i := 0; i < b.N; i++ {
				sec, depth = run(mode.coordinated)
			}
			b.ReportMetric(sec, "sim-seconds")
			b.ReportMetric(depth, "mean-intermediate-items")
		})
	}
}

// BenchmarkBlockingOptions measures the three thread-control options'
// reaction latency: simulated time from issuing a "halve the threads"
// command until the target is reached.
func BenchmarkBlockingOptions(b *testing.B) {
	type setup struct {
		name  string
		bind  taskrt.BindMode
		apply func(rt *taskrt.Runtime, m *machine.Machine)
	}
	setups := []setup{
		{"option1-total", taskrt.BindNode, func(rt *taskrt.Runtime, m *machine.Machine) {
			rt.SetTotalThreads(m.TotalCores() / 2)
		}},
		{"option2-cores", taskrt.BindCore, func(rt *taskrt.Runtime, m *machine.Machine) {
			var cores []machine.CoreID
			for c := 0; c < m.TotalCores()/2; c++ {
				cores = append(cores, machine.CoreID(c))
			}
			_ = rt.BlockCores(cores)
		}},
		{"option3-pernode", taskrt.BindNode, func(rt *taskrt.Runtime, m *machine.Machine) {
			counts := make([]int, m.NumNodes())
			for j := range counts {
				counts[j] = m.Nodes[j].Cores / 2
			}
			_ = rt.SetNodeThreads(counts)
		}},
	}
	for _, s := range setups {
		s := s
		b.Run(s.name, func(b *testing.B) {
			var latency float64
			for i := 0; i < b.N; i++ {
				m := machine.PaperModel()
				eng := des.NewEngine(1)
				o := osched.New(eng, osched.Config{Machine: m})
				o.Start()
				rt := taskrt.New(o, taskrt.Config{Name: "app", BindMode: s.bind})
				w := &workload.Continuous{RT: rt, TaskGFlop: 0.05, AI: 0.5}
				w.Start()
				eng.RunUntil(0.2)
				start := eng.Now()
				s.apply(rt, m)
				// Run until the suspension target is reached.
				for eng.Now() < 5 {
					if rt.Stats().Suspended >= m.TotalCores()/2 {
						break
					}
					eng.RunUntil(eng.Now() + des.Millisecond)
				}
				latency = float64(eng.Now() - start)
			}
			b.ReportMetric(latency*1e3, "reaction-ms")
		})
	}
}

// BenchmarkOversubscription compares two applications sharing all
// cores (each with a full worker set, the paper's over-subscribed
// default) against agent-imposed fair splits using option 1 (total
// thread counts) and option 3 (per-node counts).
//
// The option-1 result reproduces the paper's Section III warning:
// because the runtime blocks whichever threads go inactive first, the
// surviving threads cluster on a subset of the NUMA nodes, leaving
// other nodes idle — "allocating cores by specifying the total number
// of worker threads could be very inefficient". Option 3 keeps every
// node populated.
func BenchmarkOversubscription(b *testing.B) {
	run := func(policy agent.Policy) float64 {
		m := machine.PaperModel()
		eng := des.NewEngine(1)
		o := osched.New(eng, osched.Config{Machine: m})
		o.Start()
		a1 := taskrt.New(o, taskrt.Config{Name: "a", BindMode: taskrt.BindNode})
		a2 := taskrt.New(o, taskrt.Config{Name: "b", BindMode: taskrt.BindNode})
		w1 := &workload.Continuous{RT: a1, TaskGFlop: 0.05, AI: 0}
		w2 := &workload.Continuous{RT: a2, TaskGFlop: 0.05, AI: 0}
		w1.Start()
		w2.Start()
		if policy != nil {
			agent.New(o, agent.Config{Period: 5 * des.Millisecond}, policy, a1, a2).Start()
		}
		eng.RunUntil(1)
		return (a1.Stats().GFlopDone + a2.Stats().GFlopDone) / 1
	}
	for _, mode := range []struct {
		name   string
		policy agent.Policy
	}{
		{"oversubscribed", nil},
		{"fair-share-option1-total", agent.FairShare{}},
		{"fair-share-option3-pernode", agent.FairShare{PerNode: true}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var gflops float64
			for i := 0; i < b.N; i++ {
				gflops = run(mode.policy)
			}
			b.ReportMetric(gflops, "GFLOPS")
		})
	}
}

// BenchmarkLibraryDelegation regenerates the tight-integration
// scenario: static split vs agent core shifting per library call.
func BenchmarkLibraryDelegation(b *testing.B) {
	run := func(boost bool) float64 {
		m := machine.PaperModel()
		eng := des.NewEngine(1)
		o := osched.New(eng, osched.Config{Machine: m})
		o.Start()
		main := taskrt.New(o, taskrt.Config{Name: "main", BindMode: taskrt.BindNode})
		lib := taskrt.New(o, taskrt.Config{Name: "lib", BindMode: taskrt.BindNode})
		ag := agent.New(o, agent.Config{}, agent.Static{}, main, lib)
		main.SetTotalThreads(16)
		lib.SetTotalThreads(16)
		d := &workload.Delegation{
			Main: main, Library: lib,
			PhaseGFlop: 2.0,
			LibTasks:   64, LibTaskGFlop: 0.1,
			Calls: 5,
		}
		if boost {
			d.OnCallStart = func(int) { ag.Boost(1) }
			d.OnCallEnd = func(int) { ag.Restore() }
		}
		var doneAt des.Time
		d.Start(func() { doneAt = eng.Now(); eng.Halt() })
		eng.RunUntil(600)
		return float64(doneAt)
	}
	for _, mode := range []struct {
		name  string
		boost bool
	}{{"static-split", false}, {"core-shifting", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var sec float64
			for i := 0; i < b.N; i++ {
				sec = run(mode.boost)
			}
			b.ReportMetric(sec, "sim-seconds")
		})
	}
}

// BenchmarkCalibration regenerates the Section III.B methodology: fit
// machine parameters from the even-allocation run and report them
// (paper: 100 GB/s, 0.29 GFLOPS per thread).
func BenchmarkCalibration(b *testing.B) {
	truth := machine.SkylakeQuad()
	apps := []roofline.App{
		{Name: "m1", AI: 1.0 / 32}, {Name: "m2", AI: 1.0 / 32}, {Name: "m3", AI: 1.0 / 32},
		{Name: "c", AI: 1},
	}
	counts := []int{5, 5, 5, 5}
	measured := roofline.MustEvaluate(truth, apps, roofline.MustPerNodeCounts(truth, counts)).AppGFLOPS
	var est calibrate.Estimate
	var err error
	for i := 0; i < b.N; i++ {
		est, err = calibrate.FitEvenAllocation(truth, apps, counts, measured)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(est.PeakGFLOPS, "fitted-GFLOPS-per-thread")
	b.ReportMetric(est.NodeBandwidth, "fitted-GBps")
}

// BenchmarkNonWorkerThreads regenerates the Section IV discussion: a
// TBB-like master thread and I/O threads beside the worker pool. It
// reports the master's share of the executed jobs.
func BenchmarkNonWorkerThreads(b *testing.B) {
	var masterShare, total float64
	for i := 0; i < b.N; i++ {
		m := machine.PaperModel()
		eng := des.NewEngine(1)
		o := osched.New(eng, osched.Config{Machine: m})
		o.Start()
		rt := arena.New(o, arena.Config{Name: "tbb", Workers: 8})
		rt.NewIOThread("io", 10*des.Millisecond, 0.001)
		rt.NewMaster("main", []arena.Step{
			{Kind: arena.StepSerial, GFlop: 0.02},
			{Kind: arena.StepParallel, Node: 0, Tasks: 32, GFlop: 0.02},
		}, true)
		eng.RunUntil(1)
		st := rt.Stats()
		total = float64(st.TasksExecuted)
		// The master's GFlop shows up in the process but not in any
		// RML worker; approximate its share via busy time.
		masterShare = st.BusySeconds
	}
	b.ReportMetric(total, "jobs-executed")
	b.ReportMetric(masterShare, "process-busy-seconds")
}

// BenchmarkDistributed regenerates Section V: makespans of static/
// barrier, static/loose, and dynamic distribution with one slow node.
func BenchmarkDistributed(b *testing.B) {
	run := func(dist cluster.DistMode, sync cluster.SyncMode, slow bool) float64 {
		c := cluster.New(cluster.Config{
			Nodes:      4,
			Machine:    machine.PaperModel(),
			OS:         osched.Config{ContextSwitchCost: -1, MigrationPenalty: -1, LoadBalancePeriod: -1},
			NetLatency: 50 * des.Microsecond,
			Seed:       1,
		})
		j := cluster.NewJob(c, cluster.JobConfig{
			TotalChunks:   32,
			TasksPerChunk: 32,
			TaskGFlop:     0.05,
			Dist:          dist,
			Sync:          sync,
			RuntimeConfig: taskrt.Config{BindMode: taskrt.BindCore},
		})
		if slow {
			j.Runtime(0).SetTotalThreads(8)
		}
		j.Run(nil)
		c.Eng.RunUntil(600)
		_, at := j.Done()
		return float64(at)
	}
	cases := []struct {
		name string
		dist cluster.DistMode
		sync cluster.SyncMode
	}{
		{"static-barrier", cluster.Static, cluster.Barrier},
		{"static-loose", cluster.Static, cluster.Loose},
		{"dynamic", cluster.Dynamic, cluster.Loose},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var fast, slow float64
			for i := 0; i < b.N; i++ {
				fast = run(c.dist, c.sync, false)
				slow = run(c.dist, c.sync, true)
			}
			b.ReportMetric(fast, "makespan-s")
			b.ReportMetric(slow, "makespan-slow-node-s")
			b.ReportMetric(slow/fast, "slowdown-x")
		})
	}
}

// BenchmarkHeterogeneousRuntimes regenerates the future-work scenario:
// an OCR-like and a TBB-like runtime sharing one machine under one
// roofline-driven agent.
func BenchmarkHeterogeneousRuntimes(b *testing.B) {
	var ocrG, tbbG float64
	for i := 0; i < b.N; i++ {
		m := machine.PaperModel()
		eng := des.NewEngine(1)
		o := osched.New(eng, osched.Config{Machine: m})
		o.Start()
		ocr := taskrt.New(o, taskrt.Config{Name: "ocr", BindMode: taskrt.BindNode, Scheduler: taskrt.NUMAAware})
		(&workload.Continuous{RT: ocr, TaskGFlop: 0.05, AI: 0.5}).Start()
		tbb := arena.New(o, arena.Config{Name: "tbb"})
		var feed func(n machine.NodeID)
		feed = func(n machine.NodeID) { tbb.Arena(n).Submit(0.05, 10, func() { feed(n) }) }
		for n := 0; n < m.NumNodes(); n++ {
			for k := 0; k < 16; k++ {
				feed(machine.NodeID(n))
			}
		}
		pol := &agent.RooflineOptimal{
			Specs:     []agent.AppSpec{{AI: 0.5}, {AI: 10}},
			Objective: roofline.ObjMaxMinGFLOPS,
		}
		agent.New(o, agent.Config{Period: 10 * des.Millisecond}, pol, ocr, tbb).Start()
		eng.RunUntil(1)
		ocrG = ocr.Stats().GFlopDone
		tbbG = tbb.Stats().GFlopDone
	}
	b.ReportMetric(ocrG, "ocr-GFLOPS")
	b.ReportMetric(tbbG, "tbb-GFLOPS")
	b.ReportMetric(ocrG+tbbG, "total-GFLOPS")
}

// --- Ablations (DESIGN.md section 5) ---

// BenchmarkAblationBandwidthSplit compares the paper's baseline+
// proportional bandwidth split against a pure proportional split on
// Table I: without the baseline guarantee the compute-bound app is
// starved and the total drops.
func BenchmarkAblationBandwidthSplit(b *testing.B) {
	m := machine.PaperModel()
	apps := []roofline.App{{AI: 0.5}, {AI: 0.5}, {AI: 0.5}, {AI: 10}}
	al := roofline.MustPerNodeCounts(m, []int{1, 1, 1, 5})
	var withBase, noBase float64
	for i := 0; i < b.N; i++ {
		r1 := roofline.MustEvaluate(m, apps, al)
		r2, err := roofline.EvaluateOpts(m, apps, al, roofline.Options{NoBaseline: true})
		if err != nil {
			b.Fatal(err)
		}
		withBase, noBase = r1.TotalGFLOPS, r2.TotalGFLOPS
	}
	b.ReportMetric(withBase, "baseline+proportional-GFLOPS")
	b.ReportMetric(noBase, "pure-proportional-GFLOPS")
}

// BenchmarkAblationRemoteFirst compares remote-first vs local-first
// memory service on the Table III NUMA-bad scenario: local-first
// starves the NUMA-bad application's remote threads.
func BenchmarkAblationRemoteFirst(b *testing.B) {
	m := machine.SkylakeQuad()
	apps := []roofline.App{
		{AI: 1.0 / 32}, {AI: 1.0 / 32}, {AI: 1.0 / 32},
		{AI: 1.0 / 16, Placement: roofline.NUMABad, HomeNode: 0},
	}
	al := roofline.MustPerNodeCounts(m, []int{5, 5, 5, 5})
	var remoteFirst, localFirst float64
	for i := 0; i < b.N; i++ {
		r1 := roofline.MustEvaluate(m, apps, al)
		r2, err := roofline.EvaluateOpts(m, apps, al, roofline.Options{LocalFirst: true})
		if err != nil {
			b.Fatal(err)
		}
		remoteFirst, localFirst = r1.AppGFLOPS[3], r2.AppGFLOPS[3]
	}
	b.ReportMetric(remoteFirst, "remote-first-badapp-GFLOPS")
	b.ReportMetric(localFirst, "local-first-badapp-GFLOPS")
}

// BenchmarkAblationScheduler compares the NUMA-aware task scheduler
// against the NUMA-oblivious FIFO on a workload with per-node data.
func BenchmarkAblationScheduler(b *testing.B) {
	run := func(kind taskrt.SchedulerKind) float64 {
		m := machine.SkylakeQuad()
		eng := des.NewEngine(1)
		o := osched.New(eng, osched.Config{Machine: m})
		o.Start()
		rt := taskrt.New(o, taskrt.Config{Name: "app", BindMode: taskrt.BindCore, Scheduler: kind})
		blocks := make([]*taskrt.DataBlock, m.NumNodes())
		for n := range blocks {
			blocks[n] = &taskrt.DataBlock{Name: "blk", Node: machine.NodeID(n)}
		}
		i := 0
		var feed func()
		feed = func() {
			t := rt.NewTask("t", 0.003, 1.0/32, blocks[i%len(blocks)])
			i++
			t.OnComplete = feed
			rt.Submit(t)
		}
		for k := 0; k < 2*m.TotalCores(); k++ {
			feed()
		}
		eng.RunUntil(1)
		return rt.Stats().GFlopDone
	}
	for _, kind := range []taskrt.SchedulerKind{taskrt.NUMAAware, taskrt.FIFO} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			var gflops float64
			for i := 0; i < b.N; i++ {
				gflops = run(kind)
			}
			b.ReportMetric(gflops, "GFLOPS")
		})
	}
}

// BenchmarkAblationAgentPeriod sweeps the agent's control period in the
// producer-consumer experiment: too slow and the queue grows, too fast
// and commands churn.
func BenchmarkAblationAgentPeriod(b *testing.B) {
	run := func(period des.Time) (float64, float64) {
		m := machine.PaperModel()
		eng := des.NewEngine(1)
		o := osched.New(eng, osched.Config{Machine: m})
		o.Start()
		prod := taskrt.New(o, taskrt.Config{Name: "p", BindMode: taskrt.BindNode})
		cons := taskrt.New(o, taskrt.Config{Name: "c", BindMode: taskrt.BindNode})
		p := &workload.Pipeline{
			Producer: prod, Consumer: cons,
			TasksPerIter: 16, ProducerTaskGFlop: 0.02, ConsumerTaskGFlop: 0.08,
			Iterations: 40, ItemSizeGB: 1,
		}
		pol := &agent.Align{Pipeline: p, ProducerClient: 0, ConsumerClient: 1, MinLead: 1, MaxLead: 4}
		agent.New(o, agent.Config{Period: period}, pol, prod, cons).Start()
		var doneAt des.Time
		p.Start(func() { doneAt = eng.Now(); eng.Halt() })
		eng.RunUntil(600)
		return float64(doneAt), p.MeanQueueDepth()
	}
	for _, period := range []des.Time{2 * des.Millisecond, 10 * des.Millisecond, 50 * des.Millisecond} {
		period := period
		b.Run(metricsName(period), func(b *testing.B) {
			var sec, depth float64
			for i := 0; i < b.N; i++ {
				sec, depth = run(period)
			}
			b.ReportMetric(sec, "sim-seconds")
			b.ReportMetric(depth, "mean-intermediate-items")
		})
	}
}

func metricsName(p des.Time) string {
	switch p {
	case 2 * des.Millisecond:
		return "period-2ms"
	case 10 * des.Millisecond:
		return "period-10ms"
	default:
		return "period-50ms"
	}
}

// BenchmarkAblationOption1vs3 compares thread-control options 1 and 3
// for a NUMA-aware application: option 1 (total count, arbitrary
// threads blocked) can leave nodes unevenly populated, while option 3
// keeps the allocation balanced across nodes — the paper's Section III
// motivation.
func BenchmarkAblationOption1vs3(b *testing.B) {
	run := func(option3 bool) float64 {
		m := machine.SkylakeQuad()
		eng := des.NewEngine(3)
		o := osched.New(eng, osched.Config{Machine: m})
		o.Start()
		rt := taskrt.New(o, taskrt.Config{Name: "app", BindMode: taskrt.BindNode, Scheduler: taskrt.NUMAAware})
		blocks := make([]*taskrt.DataBlock, m.NumNodes())
		for n := range blocks {
			blocks[n] = &taskrt.DataBlock{Name: "blk", Node: machine.NodeID(n)}
		}
		i := 0
		var feed func()
		feed = func() {
			t := rt.NewTask("t", 0.003, 1.0/32, blocks[i%len(blocks)])
			i++
			t.OnComplete = feed
			rt.Submit(t)
		}
		for k := 0; k < 2*m.TotalCores(); k++ {
			feed()
		}
		eng.RunUntil(0.1)
		if option3 {
			_ = rt.SetNodeThreads([]int{10, 10, 10, 10})
		} else {
			rt.SetTotalThreads(40)
		}
		eng.RunUntil(1.1)
		return rt.Stats().GFlopDone
	}
	for _, mode := range []struct {
		name    string
		option3 bool
	}{{"option1-total-40", false}, {"option3-10-per-node", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var gflops float64
			for i := 0; i < b.N; i++ {
				gflops = run(mode.option3)
			}
			b.ReportMetric(gflops, "GFLOPS")
		})
	}
}

// BenchmarkAblationBalancedOption1 regenerates the fix the paper
// proposes for option 1 ("spread the blocked threads evenly across the
// NUMA nodes"): the same total thread budget applied naively vs
// balanced, on the two-application fair-share scenario where naive
// option 1 leaves half the machine idle.
func BenchmarkAblationBalancedOption1(b *testing.B) {
	run := func(balanced bool) float64 {
		m := machine.PaperModel()
		eng := des.NewEngine(1)
		o := osched.New(eng, osched.Config{Machine: m})
		o.Start()
		a1 := taskrt.New(o, taskrt.Config{Name: "a", BindMode: taskrt.BindNode})
		a2 := taskrt.New(o, taskrt.Config{Name: "b", BindMode: taskrt.BindNode})
		(&workload.Continuous{RT: a1, TaskGFlop: 0.05, AI: 0}).Start()
		(&workload.Continuous{RT: a2, TaskGFlop: 0.05, AI: 0}).Start()
		eng.RunUntil(0.05) // let the over-subscribed default run briefly
		if balanced {
			a1.SetTotalThreadsBalanced(16)
			a2.SetTotalThreadsBalanced(16)
		} else {
			a1.SetTotalThreads(16)
			a2.SetTotalThreads(16)
		}
		eng.RunUntil(1.05)
		return a1.Stats().GFlopDone + a2.Stats().GFlopDone
	}
	for _, mode := range []struct {
		name     string
		balanced bool
	}{{"naive-option1", false}, {"balanced-option1", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var gflops float64
			for i := 0; i < b.N; i++ {
				gflops = run(mode.balanced)
			}
			b.ReportMetric(gflops, "GFLOP-in-1s")
		})
	}
}

// BenchmarkDataMigration regenerates the paper's Section III.A wish
// ("the application should be able to move the data to a different
// NUMA node"): a NUMA-bad application pinned to node 3 with data on
// node 0, static vs migrating the block to node 3 first.
func BenchmarkDataMigration(b *testing.B) {
	run := func(migrate bool) float64 {
		m := machine.SkylakeQuad()
		eng := des.NewEngine(1)
		o := osched.New(eng, osched.Config{Machine: m})
		o.Start()
		rt := taskrt.New(o, taskrt.Config{
			Name: "app", BindMode: taskrt.BindCore, Scheduler: taskrt.NUMAAware,
			Cores: m.CoresOfNode(3),
		})
		blk := &taskrt.DataBlock{Name: "data", Node: 0, SizeGB: 1}
		var feed func()
		feed = func() {
			t := rt.NewTask("t", 0.003, 1.0/16, blk).PreferNode(3)
			t.OnComplete = feed
			rt.Submit(t)
		}
		for i := 0; i < 40; i++ {
			feed()
		}
		if migrate {
			if _, err := rt.MigrateBlock(blk, 3, nil); err != nil {
				b.Fatal(err)
			}
		}
		eng.RunUntil(1)
		return rt.Stats().GFlopDone
	}
	for _, mode := range []struct {
		name    string
		migrate bool
	}{{"static-cross-node", false}, {"migrate-to-local", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var gflops float64
			for i := 0; i < b.N; i++ {
				gflops = run(mode.migrate)
			}
			b.ReportMetric(gflops, "GFLOPS")
		})
	}
}

// BenchmarkAdaptiveAgent compares the oracle roofline policy (told
// every application's AI) with the adaptive one that estimates AI from
// OS-level observation, on the Table I application mix.
func BenchmarkAdaptiveAgent(b *testing.B) {
	run := func(pol agent.Policy) float64 {
		m := machine.PaperModel()
		eng := des.NewEngine(1)
		o := osched.New(eng, osched.Config{Machine: m})
		o.Start()
		ais := []float64{0.5, 0.5, 0.5, 10}
		var total func() float64
		var rts []*taskrt.Runtime
		var clients []agent.Client
		for _, ai := range ais {
			rt := taskrt.New(o, taskrt.Config{Name: "app", BindMode: taskrt.BindNode})
			(&workload.Continuous{RT: rt, TaskGFlop: 0.02, AI: ai}).Start()
			rts = append(rts, rt)
			clients = append(clients, rt)
		}
		total = func() float64 {
			s := 0.0
			for _, rt := range rts {
				s += rt.Stats().GFlopDone
			}
			return s
		}
		agent.New(o, agent.Config{Period: 10 * des.Millisecond}, pol, clients...).Start()
		eng.RunUntil(2)
		return total() / 2
	}
	cases := []struct {
		name string
		pol  func() agent.Policy
	}{
		{"oracle", func() agent.Policy {
			return &agent.RooflineOptimal{Specs: []agent.AppSpec{{AI: 0.5}, {AI: 0.5}, {AI: 0.5}, {AI: 10}}}
		}},
		{"adaptive", func() agent.Policy { return &agent.AdaptiveRoofline{Warmup: 5} }},
		{"fair-share", func() agent.Policy { return agent.FairShare{PerNode: true} }},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var gflops float64
			for i := 0; i < b.N; i++ {
				gflops = run(c.pol())
			}
			b.ReportMetric(gflops, "GFLOPS")
		})
	}
}

// BenchmarkPriorities regenerates the Section IV lever: a busy
// non-worker (background) thread with normal vs lowered priority, and
// its impact on a co-located worker's throughput. (With strict
// priorities the lowered thread only runs when the core is otherwise
// idle.)
func BenchmarkPriorities(b *testing.B) {
	run := func(lowered bool) (worker, background float64) {
		m := machine.PaperModel()
		eng := des.NewEngine(1)
		o := osched.New(eng, osched.Config{Machine: m})
		o.Start()
		p := o.NewProcess("app")
		w := p.NewThread("worker", osched.RunnerFunc(func(*osched.Thread) osched.Work {
			return osched.Work{Kind: osched.WorkCompute, GFlop: 1e9, AI: 0}
		}), osched.SingleCore(m, 0))
		bg := p.NewThread("background", osched.RunnerFunc(func(*osched.Thread) osched.Work {
			return osched.Work{Kind: osched.WorkCompute, GFlop: 1e9, AI: 0}
		}), osched.SingleCore(m, 0))
		w.SetPriority(1)
		if !lowered {
			bg.SetPriority(1)
		}
		eng.RunUntil(1)
		return w.GFlopDone(), bg.GFlopDone()
	}
	for _, mode := range []struct {
		name    string
		lowered bool
	}{{"equal-priority", false}, {"background-lowered", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var wk, bg float64
			for i := 0; i < b.N; i++ {
				wk, bg = run(mode.lowered)
			}
			b.ReportMetric(wk, "worker-GFLOPS")
			b.ReportMetric(bg, "background-GFLOPS")
		})
	}
}

// BenchmarkDynamicNodeSharing regenerates the Section V "dynamic
// variant": every cluster node hosts the distributed job plus a bursty
// co-located application; per-node work-conserving agents shift cores
// into the job during the co-app's idle phases.
func BenchmarkDynamicNodeSharing(b *testing.B) {
	run := func(dynamic bool) float64 {
		c := cluster.New(cluster.Config{
			Nodes:      4,
			Machine:    machine.PaperModel(),
			OS:         osched.Config{ContextSwitchCost: -1, MigrationPenalty: -1, LoadBalancePeriod: -1},
			NetLatency: 50 * des.Microsecond,
			Seed:       1,
		})
		j := cluster.NewJob(c, cluster.JobConfig{
			TotalChunks:   32,
			TasksPerChunk: 128,
			TaskGFlop:     0.0125,
			Dist:          cluster.Dynamic,
			Sync:          cluster.Loose,
			RuntimeConfig: taskrt.Config{BindMode: taskrt.BindCore},
		})
		for n := 0; n < c.Nodes(); n++ {
			co := taskrt.New(c.Node(n).OS, taskrt.Config{Name: "coapp", BindMode: taskrt.BindNode})
			submitted := 0
			c.Eng.Ticker(50*des.Millisecond, func(des.Time) {
				if submitted >= 5 {
					return
				}
				submitted++
				for i := 0; i < 32; i++ {
					co.Submit(co.NewTask("burst", 0.02, 0, nil))
				}
			})
			if dynamic {
				agent.New(c.Node(n).OS, agent.Config{Period: 5 * des.Millisecond},
					agent.WorkConserving{}, j.Runtime(n), co).Start()
			} else {
				j.Runtime(n).SetTotalThreads(16)
				co.SetTotalThreads(16)
			}
		}
		j.Run(nil)
		c.Eng.RunUntil(60)
		_, at := j.Done()
		return float64(at)
	}
	for _, mode := range []struct {
		name    string
		dynamic bool
	}{{"static-split", false}, {"work-conserving-agent", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var sec float64
			for i := 0; i < b.N; i++ {
				sec = run(mode.dynamic)
			}
			b.ReportMetric(sec, "job-makespan-s")
		})
	}
}

// BenchmarkOpenMPScheduling regenerates the Section IV observation
// about codes that assume equal thread progress: a static parallel-for
// loop collapses when an agent takes half the team's threads, while a
// dynamic one redistributes the iterations.
func BenchmarkOpenMPScheduling(b *testing.B) {
	run := func(sched omp.Schedule, blocked int) float64 {
		m := machine.PaperModel()
		eng := des.NewEngine(1)
		o := osched.New(eng, osched.Config{Machine: m})
		o.Start()
		rt := omp.New(o, omp.Config{Name: "omp"})
		rt.BlockThreads(blocked)
		var doneAt des.Time
		rt.ParallelFor(320, sched, 1, 0.01, 0, func() { doneAt = eng.Now() })
		eng.RunUntil(10)
		return float64(doneAt)
	}
	cases := []struct {
		name    string
		sched   omp.Schedule
		blocked int
	}{
		{"static-full-team", omp.Static, 0},
		{"dynamic-full-team", omp.Dynamic, 0},
		{"static-half-team", omp.Static, 16},
		{"dynamic-half-team", omp.Dynamic, 16},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var sec float64
			for i := 0; i < b.N; i++ {
				sec = run(c.sched, c.blocked)
			}
			b.ReportMetric(sec, "loop-seconds")
		})
	}
}

// BenchmarkAblationRemoteEfficiency sweeps the simulator's
// remote-access efficiency factor on the Table III cross-node scenario,
// showing how far real-hardware remote-access losses (which the
// analytic model ignores) can push the measured value below the model's
// 13.98.
func BenchmarkAblationRemoteEfficiency(b *testing.B) {
	for _, eff := range []float64{1.0, 0.92, 0.8, 0.6} {
		eff := eff
		name := fmt.Sprintf("efficiency-%.2f", eff)
		b.Run(name, func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				rows := core.TableIIIScenarios()
				s := rows[3].Scenario // NUMA-bad cross-node, even
				s.Sim.Duration = 0.25
				s.Sim.RemoteEfficiency = eff
				r, err := s.RunSim()
				if err != nil {
					b.Fatal(err)
				}
				sim = r.TotalGFLOPS
			}
			b.ReportMetric(sim, "sim-GFLOPS")
			b.ReportMetric(13.98, "model-GFLOPS")
		})
	}
}
