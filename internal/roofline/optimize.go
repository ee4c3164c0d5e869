package roofline

import (
	"repro/internal/machine"
)

// Objective scores a model result; optimizers maximize it.
type Objective func(*Result) float64

// TotalGFLOPS is the default objective: machine-wide throughput.
func TotalGFLOPS(r *Result) float64 { return r.TotalGFLOPS }

// MinAppGFLOPS is a fairness objective: the slowest application's rate.
func MinAppGFLOPS(r *Result) float64 {
	if len(r.AppGFLOPS) == 0 {
		return 0
	}
	m := r.AppGFLOPS[0]
	for _, g := range r.AppGFLOPS[1:] {
		if g < m {
			m = g
		}
	}
	return m
}

// WeightedAppGFLOPS returns an objective computing a weighted sum of
// per-application rates, e.g. to prioritize a latency-critical app.
func WeightedAppGFLOPS(weights []float64) Objective {
	return func(r *Result) float64 {
		s := 0.0
		for i, g := range r.AppGFLOPS {
			w := 1.0
			if i < len(weights) {
				w = weights[i]
			}
			s += w * g
		}
		return s
	}
}

// Optimize searches for the allocation maximizing obj, starting from a
// fair-share allocation and hill-climbing with single-thread moves:
// shifting one thread of one app between two nodes, or reassigning one
// core on a node from one app to another. It also tries the structured
// candidates (even, node-per-app permutations for small app counts) as
// alternative starting points and returns the best local optimum found.
//
// The search is deterministic. maxIters bounds the number of accepted
// improvement moves per start (<=0 means a generous default). All
// starts share one memoizing Evaluator, so a move's score costs only
// the touched nodes.
func Optimize(m *machine.Machine, apps []App, obj Objective, maxIters int) (Allocation, *Result, error) {
	if obj == nil {
		obj = TotalGFLOPS
	}
	if maxIters <= 0 {
		maxIters = 10000
	}
	starts := candidateStarts(m, apps)
	if len(starts) == 0 {
		return Allocation{}, nil, ErrNoAllocation
	}
	ev, err := NewEvaluator(m, apps)
	if err != nil {
		return Allocation{}, nil, ErrNoAllocation
	}
	var bestAl Allocation
	var bestRes *Result
	bestScore := -1.0
	for _, s := range starts {
		al, res, score, err := hillClimb(m, apps, ev, s, obj, maxIters)
		if err != nil {
			continue
		}
		if score > bestScore {
			bestScore, bestAl, bestRes = score, al, res
		}
	}
	if bestRes == nil {
		return Allocation{}, nil, ErrNoAllocation
	}
	return bestAl, bestRes, nil
}

func candidateStarts(m *machine.Machine, apps []App) []Allocation {
	var starts []Allocation
	nApps := len(apps)
	starts = append(starts, FairShare(m, nApps))
	if al, err := Even(m, nApps); err == nil {
		starts = append(starts, al)
	}
	if nApps <= m.NumNodes() {
		// Identity node-per-app plus the rotation placing each app on
		// each node once; full permutations would explode for big inputs.
		for rot := 0; rot < m.NumNodes(); rot++ {
			nodeOf := make([]machine.NodeID, nApps)
			for i := range nodeOf {
				nodeOf[i] = machine.NodeID((i + rot) % m.NumNodes())
			}
			if al, err := NodePerApp(m, nApps, nodeOf); err == nil {
				starts = append(starts, al)
			}
		}
	}
	return starts
}

// hillClimb greedily improves the allocation with single-thread moves
// until a full sweep over (app, node) positions accepts nothing. An
// accepted move continues scanning from the current position instead of
// restarting the sweep — the neighbourhood is position-symmetric, so
// the reachable local optima are the same, without the
// O(moves·apps·nodes) re-scan of already-rejected prefixes.
func hillClimb(m *machine.Machine, apps []App, ev *Evaluator, al Allocation, obj Objective, maxIters int) (Allocation, *Result, float64, error) {
	scratch := &Result{}
	if err := ev.EvaluateInto(scratch, al); err != nil {
		return Allocation{}, nil, 0, err
	}
	score := obj(scratch)
	nApps, nNodes := len(apps), m.NumNodes()
	moves := 0
	for moves < maxIters {
		improved := false
		for i := 0; i < nApps && moves < maxIters; i++ {
			for j := 0; j < nNodes && moves < maxIters; j++ {
				// Move one thread of app i from node j to node k (if k
				// has a free core). An accepted move can empty (i, j), so
				// the inner loops re-check the count.
				for k := 0; k < nNodes && moves < maxIters; k++ {
					if al.Threads[i][j] == 0 {
						break
					}
					if k == j || al.NodeThreads(machine.NodeID(k)) >= m.Nodes[k].Cores {
						continue
					}
					al.Threads[i][j]--
					al.Threads[i][k]++
					if err := ev.EvaluateInto(scratch, al); err == nil {
						if s2 := obj(scratch); s2 > score+1e-9 {
							score, improved = s2, true
							moves++
							continue
						}
					}
					al.Threads[i][j]++
					al.Threads[i][k]--
				}
				// Reassign one of app i's cores on node j to app i2.
				for i2 := 0; i2 < nApps && moves < maxIters; i2++ {
					if al.Threads[i][j] == 0 {
						break
					}
					if i2 == i {
						continue
					}
					al.Threads[i][j]--
					al.Threads[i2][j]++
					if err := ev.EvaluateInto(scratch, al); err == nil {
						if s2 := obj(scratch); s2 > score+1e-9 {
							score, improved = s2, true
							moves++
							continue
						}
					}
					al.Threads[i][j]++
					al.Threads[i2][j]--
				}
			}
		}
		if !improved {
			break
		}
	}
	// Final result through the reference model, so callers always hold
	// reference-bitwise outputs.
	res, err := Evaluate(m, apps, al)
	if err != nil {
		return Allocation{}, nil, 0, err
	}
	return al.Clone(), res, obj(res), nil
}

// EnumeratePerNodeCounts calls fn for every uniform per-node allocation
// (every app gets the same count on all nodes) whose counts sum to at
// most the smallest node's core count. It is exhaustive for the paper's
// small examples. fn returning false stops the enumeration early.
//
// counts is a fresh copy per candidate; al and r are scratch reused
// between candidates and are only valid for the duration of the call.
func EnumeratePerNodeCounts(m *machine.Machine, nApps int, fn func(counts []int, al Allocation, r *Result) bool, apps []App) error {
	return EnumeratePerNodeCountsFloor(m, nApps, 0, fn, apps)
}

// EnumeratePerNodeCountsFloor is EnumeratePerNodeCounts restricted to
// allocations granting every app at least floor threads per node — the
// no-starvation constraint under which the paper's Table I uneven
// allocation (1,1,1,5) is the optimum. Candidates are evaluated with
// the memoizing Evaluator (bit-identical to Evaluate), so symmetric
// siblings share per-node work.
func EnumeratePerNodeCountsFloor(m *machine.Machine, nApps, floor int, fn func(counts []int, al Allocation, r *Result) bool, apps []App) error {
	capCores := m.Nodes[0].Cores
	for _, n := range m.Nodes[1:] {
		if n.Cores < capCores {
			capCores = n.Cores
		}
	}
	if floor < 0 {
		floor = 0
	}
	ev, err := NewEvaluator(m, apps)
	if err != nil {
		return nil // invalid inputs: no candidates, as before
	}
	counts := make([]int, nApps)
	al := NewAllocation(nApps, m.NumNodes())
	res := &Result{}
	var rec func(pos, remaining int) bool
	rec = func(pos, remaining int) bool {
		if pos == nApps {
			if err := ev.EvaluateInto(res, al); err != nil {
				return true
			}
			cp := append([]int(nil), counts...)
			return fn(cp, al, res)
		}
		for c := floor; c <= remaining; c++ {
			counts[pos] = c
			row := al.Threads[pos]
			for j := range row {
				row[j] = c
			}
			if !rec(pos+1, remaining-c) {
				return false
			}
		}
		counts[pos] = 0
		row := al.Threads[pos]
		for j := range row {
			row[j] = 0
		}
		return true
	}
	rec(0, capCores)
	return nil
}
