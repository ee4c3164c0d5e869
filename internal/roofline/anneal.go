package roofline

import (
	"math"
	"math/rand"

	"repro/internal/machine"
)

// AnnealConfig tunes the simulated-annealing search.
type AnnealConfig struct {
	// Seed drives the deterministic random walk.
	Seed int64
	// Iters is the number of proposal steps (default 20000).
	Iters int
	// StartTemp and EndTemp bound the geometric cooling schedule,
	// in objective units (defaults 10 and 0.01).
	StartTemp, EndTemp float64
}

// Anneal searches the full space of (non-uniform) allocations with
// simulated annealing: random single-thread moves — shifting one
// thread of one application between nodes, reassigning a core to
// another application, adding a thread on a free core, or removing one
// — accepted when they improve the objective or probabilistically when
// they do not. Unlike the uniform per-node search
// (Search.BestPerNodeCountsFloorSpec) it can express asymmetric optima
// (e.g. giving a NUMA-bad application threads only on its home node),
// and unlike Optimize's hill climbing it escapes local optima.
func Anneal(m *machine.Machine, apps []App, obj Objective, cfg AnnealConfig) (Allocation, *Result, error) {
	if obj == nil {
		obj = TotalGFLOPS
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 20000
	}
	if cfg.StartTemp <= 0 {
		cfg.StartTemp = 10
	}
	if cfg.EndTemp <= 0 || cfg.EndTemp >= cfg.StartTemp {
		cfg.EndTemp = cfg.StartTemp / 1000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nApps, nNodes := len(apps), m.NumNodes()
	if nApps == 0 {
		return Allocation{}, nil, ErrNoAllocation
	}

	cur := FairShare(m, nApps)
	res, err := Evaluate(m, apps, cur)
	if err != nil {
		return Allocation{}, nil, err
	}
	curScore := obj(res)
	best := cur.Clone()
	bestRes := res
	bestScore := curScore

	cooling := math.Pow(cfg.EndTemp/cfg.StartTemp, 1/float64(cfg.Iters))
	temp := cfg.StartTemp

	for it := 0; it < cfg.Iters; it++ {
		temp *= cooling
		// Propose a random single-thread move.
		i := rng.Intn(nApps)
		j := rng.Intn(nNodes)
		undo := func() {}
		switch rng.Intn(4) {
		case 0: // move a thread of app i from node j to node k
			if cur.Threads[i][j] == 0 {
				continue
			}
			k := rng.Intn(nNodes)
			if k == j || cur.NodeThreads(machine.NodeID(k)) >= m.Nodes[k].Cores {
				continue
			}
			cur.Threads[i][j]--
			cur.Threads[i][k]++
			undo = func() { cur.Threads[i][j]++; cur.Threads[i][k]-- }
		case 1: // reassign a core on node j from app i to app i2
			if cur.Threads[i][j] == 0 || nApps < 2 {
				continue
			}
			i2 := rng.Intn(nApps)
			if i2 == i {
				continue
			}
			cur.Threads[i][j]--
			cur.Threads[i2][j]++
			undo = func() { cur.Threads[i][j]++; cur.Threads[i2][j]-- }
		case 2: // grow onto a free core
			if cur.NodeThreads(machine.NodeID(j)) >= m.Nodes[j].Cores {
				continue
			}
			cur.Threads[i][j]++
			undo = func() { cur.Threads[i][j]-- }
		default: // shrink
			if cur.Threads[i][j] == 0 {
				continue
			}
			cur.Threads[i][j]--
			undo = func() { cur.Threads[i][j]++ }
		}
		r2, err := Evaluate(m, apps, cur)
		if err != nil {
			undo()
			continue
		}
		s2 := obj(r2)
		if s2 >= curScore || rng.Float64() < math.Exp((s2-curScore)/temp) {
			curScore, res = s2, r2
			if s2 > bestScore {
				bestScore = s2
				best = cur.Clone()
				bestRes = r2
			}
		} else {
			undo()
		}
	}
	return best, bestRes, nil
}
