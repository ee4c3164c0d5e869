// Heterogeneous runtimes: the paper's future-work scenario — an
// OCR-Vx-style task runtime and a TBB-style arena runtime cooperating
// on one machine. Both implement the same agent control interface
// (per-NUMA-node thread counts), so a single roofline-driven agent can
// arbitrate cores between them; a decentralized negotiation reaches the
// same split without any agent.
//
//	go run ./examples/heterogeneous_runtimes
package main

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/arena"
	"repro/internal/consensus"
	"repro/internal/des"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/osched"
	"repro/internal/roofline"
	"repro/internal/taskrt"
	"repro/internal/workload"
)

func main() {
	m := machine.PaperModel()
	eng := des.NewEngine(1)
	o := osched.New(eng, osched.Config{Machine: m})
	o.Start()

	// An OCR-like application: memory-bound tasks under a NUMA-aware
	// scheduler.
	ocr := taskrt.New(o, taskrt.Config{Name: "ocr-app", BindMode: taskrt.BindNode, Scheduler: taskrt.NUMAAware})
	stream := &workload.Continuous{RT: ocr, TaskGFlop: 0.05, AI: 0.5}
	stream.Start()

	// A TBB-like application: a master thread alternating serial phases
	// with parallel regions spread over per-node arenas.
	tbb := arena.New(o, arena.Config{Name: "tbb-app"})
	var steps []arena.Step
	for n := 0; n < m.NumNodes(); n++ {
		steps = append(steps,
			arena.Step{Kind: arena.StepSerial, GFlop: 0.05},
			arena.Step{Kind: arena.StepParallel, Node: machine.NodeID(n), Tasks: 16, GFlop: 0.05, AI: 10},
		)
	}
	tbb.NewMaster("tbb-main", steps, true)

	// One agent arbitrates both runtimes under a fairness objective:
	// the memory-bound OCR app only needs enough threads per node to
	// saturate the memory bandwidth, so the compute-bound TBB app gets
	// the rest (the roofline model's Table I insight).
	pol := &agent.RooflineOptimal{
		Specs:     []agent.AppSpec{{AI: 0.5}, {AI: 10}},
		Objective: roofline.ObjMaxMinGFLOPS,
	}
	ag := agent.New(o, agent.Config{Period: 10 * des.Millisecond}, pol, ocr, tbb)
	ag.Start()

	eng.RunUntil(1)
	so, st := ocr.Stats(), tbb.Stats()
	t := metrics.NewTable("after 1 simulated second under one agent",
		"runtime", "kind", "active threads", "GFLOPS", "tasks done")
	t.AddRow("ocr-app", "task DAG + NUMA-aware scheduler", so.Workers-so.Suspended, so.GFlopDone, so.TasksExecuted)
	t.AddRow("tbb-app", "arenas + RML + master thread", st.Workers-st.Suspended, st.GFlopDone, st.TasksExecuted)
	fmt.Println(t)

	// The decentralized variant: both runtimes negotiate the same kind
	// of split over a message bus, no agent involved.
	eng2 := des.NewEngine(1)
	o2 := osched.New(eng2, osched.Config{Machine: m})
	o2.Start()
	ocr2 := taskrt.New(o2, taskrt.Config{Name: "ocr-app", BindMode: taskrt.BindNode})
	tbb2 := arena.New(o2, arena.Config{Name: "tbb-app"})
	bus := consensus.NewBus(eng2, m, des.Millisecond)
	pOCR := bus.Join(ocr2, []int{2, 2, 2, 2}, true) // memory-bound: wants few
	pTBB := bus.Join(tbb2, []int{6, 6, 6, 6}, true) // compute-bound: wants many
	bus.Start()
	eng2.RunUntil(0.1)

	fmt.Println("decentralized negotiation (no agent):")
	fmt.Printf("  agreed epochs: ocr=%d tbb=%d, conflicts: %d\n", pOCR.Agreed(), pTBB.Agreed(), pOCR.Conflicts())
	fmt.Printf("  agreed plan (threads per node): ocr=%v tbb=%v\n", pOCR.Applied()[0], pOCR.Applied()[1])
	fmt.Printf("  messages exchanged: %d\n", bus.Messages())
}
