// Quickstart: define a NUMA machine, describe two co-running
// applications, and compare thread allocations with the analytic
// roofline model and the full simulator.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/roofline"
)

func main() {
	// A machine with 2 NUMA nodes, 8 cores each, 10 GFLOPS per core and
	// 40 GB/s of memory bandwidth per node.
	m := machine.Uniform("demo", 2, 8, 10, 40, 12)

	// Two applications: a memory-bound stream kernel and a compute-bound
	// solver.
	apps := []core.AppConfig{
		{Name: "stream", AI: 0.4},
		{Name: "solver", AI: 8},
	}

	// Compare three ways to split the 16 cores.
	allocations := map[string]roofline.Allocation{
		"even 4+4 per node": roofline.MustPerNodeCounts(m, []int{4, 4}),
		"stream-heavy 6+2":  roofline.MustPerNodeCounts(m, []int{6, 2}),
		"solver-heavy 2+6":  roofline.MustPerNodeCounts(m, []int{2, 6}),
		"one node per app":  roofline.MustNodePerApp(m, 2, nil),
	}

	t := metrics.NewTable("allocation comparison", "allocation", "model GFLOPS", "simulated GFLOPS")
	for name, al := range allocations {
		s := &core.Scenario{Machine: m, Apps: apps, Allocation: al}
		s.Sim.Duration = 0.5
		cmp, err := s.Run(name)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(name, cmp.Model.TotalGFLOPS, cmp.Sim.TotalGFLOPS)
	}
	fmt.Println(t)

	// Let the optimizer find the best uniform per-node allocation,
	// both for raw throughput and under a fairness objective (the
	// throughput optimum may starve the memory-bound app entirely).
	rapps := []roofline.App{apps[0].App(), apps[1].App()}
	var search roofline.Search
	counts, _, best, err := search.BestPerNodeCountsFloorSpec(roofline.ObjTotalGFLOPS, nil, m, rapps, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimizer (total GFLOPS):  counts %v -> %.1f GFLOPS total\n", counts, best.TotalGFLOPS)
	fcounts, _, fair, err := search.BestPerNodeCountsFloorSpec(roofline.ObjMaxMinGFLOPS, nil, m, rapps, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimizer (fairness):      counts %v -> %.1f / %.1f GFLOPS per app\n",
		fcounts, fair.AppGFLOPS[0], fair.AppGFLOPS[1])
}
