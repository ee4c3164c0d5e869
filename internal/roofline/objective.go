package roofline

import (
	"fmt"
	"math"

	"repro/internal/machine"
)

// BoundFunc is an admissible upper bound for the branch-and-bound
// search: given the partial assignment counts[0..pos-1] with rem
// per-node cores left for apps pos..n-1, it must return a value no
// smaller than the objective of any completion. Soundness is the
// caller's proof obligation — an inadmissible bound silently prunes
// optima.
type BoundFunc func(counts []int, pos, rem int) float64

// ObjectiveSpec couples an objective with the search machinery it
// needs. Objective returns the scoring function for a concrete demand
// set (specs like weighted-priority read per-app fields such as
// App.Weight). Bound returns an admissible branch-and-bound upper bound
// for the (machine, demand) pair, or nil to declare the spec
// bound-free: the search then falls back to the unpruned enumeration
// over the memoizing incremental Evaluator, which is exact for any
// objective.
//
// An objective must be invariant under permuting interchangeable apps
// (equal AI, placement, home node when NUMA-bad, and effective weight):
// swapping two such apps' counts must leave its value bit-identical,
// because the search enumerates only one member of each such orbit.
// All three built-ins satisfy this, as does any wrapper that returns a
// built-in's values unchanged.
type ObjectiveSpec interface {
	Name() string
	Objective(apps []App) Objective
	Bound(m *machine.Machine, apps []App) BoundFunc
}

// Built-in objective specs.
var (
	// ObjTotalGFLOPS maximizes machine-wide throughput. Its bound is
	// the fractional relaxation of the bandwidth pool with every
	// thread's guaranteed baseline share charged first (see
	// forcedBound); solves through it are bit-identical to the naive
	// exhaustive enumeration (objective_test.go pins this
	// differentially).
	ObjTotalGFLOPS ObjectiveSpec = totalGFLOPSSpec{}
	// ObjWeightedPriority maximizes Σ wᵢ·gᵢ with wᵢ = App.Weight
	// (0 or negative means 1). The bound is the same relaxation with
	// apps granted bandwidth in descending wᵢ·AIᵢ order, each capped
	// at wᵢ·countsᵢ·Σpeak.
	ObjWeightedPriority ObjectiveSpec = weightedPrioritySpec{}
	// ObjMaxMinGFLOPS maximizes the slowest app's rate (a fairness
	// floor). Its bound is the least per-app ceiling (see
	// maxMinSpec.Bound).
	ObjMaxMinGFLOPS ObjectiveSpec = maxMinSpec{}
)

// ObjectiveSpecByName resolves a wire/CLI objective name.
func ObjectiveSpecByName(name string) (ObjectiveSpec, error) {
	switch name {
	case "", ObjTotalGFLOPS.Name():
		return ObjTotalGFLOPS, nil
	case ObjWeightedPriority.Name():
		return ObjWeightedPriority, nil
	case ObjMaxMinGFLOPS.Name():
		return ObjMaxMinGFLOPS, nil
	}
	return nil, fmt.Errorf("roofline: unknown objective %q (have %s, %s, %s)",
		name, ObjTotalGFLOPS.Name(), ObjWeightedPriority.Name(), ObjMaxMinGFLOPS.Name())
}

type totalGFLOPSSpec struct{}

func (totalGFLOPSSpec) Name() string              { return "total-gflops" }
func (totalGFLOPSSpec) Objective([]App) Objective { return TotalGFLOPS }
func (totalGFLOPSSpec) Bound(m *machine.Machine, apps []App) BoundFunc {
	return newForcedBound(m, apps, nil).bound
}

type weightedPrioritySpec struct{}

func (weightedPrioritySpec) Name() string { return "weighted-priority" }

func (weightedPrioritySpec) Objective(apps []App) Objective {
	w := make([]float64, len(apps))
	for i := range apps {
		w[i] = appWeight(apps[i])
	}
	return WeightedAppGFLOPS(w)
}

func (weightedPrioritySpec) Bound(m *machine.Machine, apps []App) BoundFunc {
	w := make([]float64, len(apps))
	for i := range apps {
		w[i] = appWeight(apps[i])
	}
	return newForcedBound(m, apps, w).bound
}

// appWeight maps App.Weight to an effective weight: unset (zero) and
// nonsensical negative weights score as 1, so demand sets that never
// set Weight behave exactly like plain per-app GFLOPS sums.
func appWeight(a App) float64 {
	if a.Weight <= 0 {
		return 1
	}
	return a.Weight
}

type maxMinSpec struct{}

func (maxMinSpec) Name() string              { return "max-min" }
func (maxMinSpec) Objective([]App) Objective { return MinAppGFLOPS }

// Bound is the max-min ceiling: app i computes at most
// min(countsᵢ·Σpeak, AIᵢ·reachᵢ), where reachᵢ is the bandwidth its
// threads can draw from at all — every node's for a NUMA-perfect app,
// its home node's alone for a NUMA-bad one, whose every access is
// served there. An unassigned app holds at most the rem remaining
// cores. The slowest app is no faster than the least of these
// ceilings.
func (maxMinSpec) Bound(m *machine.Machine, apps []App) BoundFunc {
	sumPeak, totalBW := 0.0, 0.0
	for _, n := range m.Nodes {
		sumPeak += n.PeakGFLOPS
		totalBW += n.MemBandwidth
	}
	nApps := len(apps)
	ceil := make([]float64, 2*nApps+1)
	reach, sufReach := ceil[:nApps:nApps], ceil[nApps:]
	sufReach[nApps] = math.Inf(1)
	for i := nApps - 1; i >= 0; i-- {
		bw := totalBW
		if a := apps[i]; a.Placement == NUMABad && int(a.HomeNode) >= 0 && int(a.HomeNode) < len(m.Nodes) {
			bw = m.Nodes[a.HomeNode].MemBandwidth
		}
		reach[i] = apps[i].AI * bw
		sufReach[i] = min(sufReach[i+1], reach[i])
	}
	return func(counts []int, pos, rem int) float64 {
		ub := math.Inf(1)
		if pos < nApps {
			ub = min(float64(rem)*sumPeak, sufReach[pos])
		}
		for i, c := range counts[:pos] {
			ub = min(ub, float64(c)*sumPeak, reach[i])
		}
		return ub
	}
}

// forcedScale shrinks every forced grant of forcedBound by a relative
// 1e-9, far above the rounding that separates the bound's own sums from
// the model's, so a forced term never exceeds what the model grants.
const forcedScale = 1 - 1e-9

// forcedBound is the admissible upper bound shared by the total-GFLOPS
// and weighted-priority objectives (DESIGN.md §3.3). It relaxes the
// model to one bandwidth pool, the machine's total: app i, consuming
// Bᵢ GB/s in all, is worth at most min(capᵢ, densᵢ·Bᵢ), with
// densᵢ = wᵢ·AIᵢ and capᵢ = wᵢ·countsᵢ·Σpeak, since every thread
// computes at most min(peak, granted·AI) and no node hands out more
// than its bandwidth.
//
// Two rules of the §III.A model give an assigned app a floor Fᵢ on
// the bandwidth it consumes, whatever its density:
//   - A thread served locally at node h receives at least
//     min(demand, (bw_h − R_h)/cores_h), its baseline share of what
//     remote service R_h leaves. R_h is 0 where no NUMA-bad app is
//     homed; once every app homed at h has its count (or no cores are
//     left for the rest) it is exact; before that it is at most
//     min(bw_h, Σ links into h).
//   - Once R_h is exact, so is each homed app's remote grant.
//
// The bound charges each Fᵢ (shrunk by forcedScale) to app i at
// density densᵢ, lowers its cap by as much, and then grants the rest
// of the pool greedily in descending density order: the LP optimum
// with lower bounds on what apps consume, never looser than the plain
// greedy relaxation, which it is when every Fᵢ is 0. Unassigned apps
// pos..n-1 collapse into one pseudo-app holding the remaining core
// budget rem at the suffix-maximum density, capped at (suffix-max
// weight)·rem·Σpeak: any real completion spends suffix bandwidth at no
// better density and attains no more value, so the pseudo-app
// dominates it. When the whole demand fits the pool, every cap is
// granted whatever is forced, and the bound returns the caps.
//
// The floors hold for the model as Search evaluates it, with the
// default Options{} (remote-first service, baseline on); under the
// LocalFirst or NoBaseline ablations they do not.
type forcedBound struct {
	// apps holds each app's per-core terms, plus a last entry whose
	// only use is the empty suffix's zero maxima.
	apps    []boundApp
	homes   []homeNode // nil when no app is NUMA-bad
	m       *machine.Machine
	totalBW float64
}

// boundApp is one app's per-granted-core terms in forcedBound.
type boundApp struct {
	dens    float64 // value density: w·AI (AI when unweighted)
	capPer  float64 // value cap: w·Σpeak
	needPer float64 // bandwidth at full rate: Σpeak/AI
	// forcedPer is the forced bandwidth, shrunk by forcedScale, with
	// every home node's R_h at its upper estimate; forcedVal is its
	// value, dens·forcedPer, and capRest what is left of the cap,
	// capPer − forcedVal.
	forcedPer, forcedVal, capRest float64
	// sufDens and sufCapPer are the maxima of dens and capPer over
	// this app and every later one in enumeration order.
	sufDens, sufCapPer float64
	// remoteDem and remoteMax are the sum and the maximum of a NUMA-bad
	// app's per-thread demand over the nodes other than its home; 0 for
	// a NUMA-perfect app.
	remoteDem, remoteMax float64
	invAI                float64 // 1/AI: per-thread demand on node h is peak_h·invAI
	// home is a NUMA-bad app's home node, -1 for a NUMA-perfect one;
	// nextHomed is the next app homed there, -1 after the last.
	home, nextHomed int
	// order is the index of the app at this rank in descending density
	// order, ties by index.
	order int
}

// homeNode is the remote-service state of one node some NUMA-bad app
// calls home.
type homeNode struct {
	node            int
	first, last     int // lowest and highest app index homed here: R_h is exact once pos > last
	bw, cores, peak float64
	// baseEst is the local baseline while R_h is unknown:
	// (bw − min(bw, Σ links into h))/cores.
	baseEst float64
	linkMin float64 // the narrowest link into this memory
}

func newForcedBound(m *machine.Machine, apps []App, weights []float64) *forcedBound {
	nApps, nNodes := len(apps), len(m.Nodes)
	b := &forcedBound{apps: make([]boundApp, nApps+1), m: m}
	var homeIdxBuf [8]int
	var baseBuf [8]float64
	homeIdx := homeIdxBuf[:] // node → position in homes, or -1
	base := baseBuf[:]       // node → local baseline, estimated at homes
	if nNodes > len(homeIdx) {
		homeIdx, base = make([]int, nNodes), make([]float64, nNodes)
	}
	homeIdx, base = homeIdx[:nNodes], base[:nNodes]
	for h := range homeIdx {
		homeIdx[h] = -1
	}
	nHomes := 0
	for i := nApps - 1; i >= 0; i-- {
		ba, a := &b.apps[i], apps[i]
		ba.home, ba.nextHomed = -1, -1
		if h := int(a.HomeNode); a.Placement == NUMABad && h >= 0 && h < nNodes {
			ba.home = h
			if homeIdx[h] < 0 {
				homeIdx[h] = nHomes
				nHomes++
			}
		}
	}
	if nHomes > 0 {
		b.homes = make([]homeNode, nHomes)
	}
	sumPeak := 0.0
	for h, n := range m.Nodes {
		sumPeak += n.PeakGFLOPS
		b.totalBW += n.MemBandwidth
		base[h] = n.MemBandwidth / float64(n.Cores)
		k := homeIdx[h]
		if k < 0 {
			continue
		}
		hn := &b.homes[k]
		hn.node, hn.first, hn.last = h, -1, -1
		hn.bw, hn.cores, hn.peak = n.MemBandwidth, float64(n.Cores), n.PeakGFLOPS
		linksIn := 0.0
		hn.linkMin = math.Inf(1)
		for j := range m.Nodes {
			if j != h {
				link := m.Link(machine.NodeID(j), machine.NodeID(h))
				linksIn += link
				hn.linkMin = min(hn.linkMin, link)
			}
		}
		hn.baseEst = (hn.bw - min(hn.bw, linksIn)) / hn.cores
		base[h] = hn.baseEst
	}
	for i := nApps - 1; i >= 0; i-- { // builds each home's list in ascending order
		if h := b.apps[i].home; h >= 0 {
			hn := &b.homes[homeIdx[h]]
			if hn.last < 0 {
				hn.last = i
			}
			b.apps[i].nextHomed, hn.first = hn.first, i
		}
	}
	for i, a := range apps {
		ba := &b.apps[i]
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		ba.dens, ba.capPer = w*a.AI, w*sumPeak
		ba.needPer = sumPeak / a.AI
		ba.invAI = 1 / a.AI
		for h, n := range m.Nodes {
			d := n.PeakGFLOPS * ba.invAI
			if ba.home >= 0 && ba.home != h {
				ba.remoteDem += d // served remotely
				ba.remoteMax = max(ba.remoteMax, d)
				continue
			}
			ba.forcedPer += min(d, base[h])
		}
		ba.forcedPer *= forcedScale
		ba.forcedVal = ba.dens * ba.forcedPer
		ba.capRest = ba.capPer - ba.forcedVal
		ba.order = i
	}
	// Insertion sort by density descending (index tie-break for
	// determinism).
	for r := 1; r < nApps; r++ {
		x := b.apps[r].order
		j := r
		for j > 0 && b.apps[b.apps[j-1].order].dens < b.apps[x].dens {
			b.apps[j].order = b.apps[j-1].order
			j--
		}
		b.apps[j].order = x
	}
	for i := nApps - 1; i >= 0; i-- {
		ba, next := &b.apps[i], &b.apps[i+1]
		ba.sufDens = max(next.sufDens, ba.dens)
		ba.sufCapPer = max(next.sufCapPer, ba.capPer)
	}
	return b
}

func (b *forcedBound) bound(counts []int, pos, rem int) float64 {
	pseudoDens := b.apps[pos].sufDens
	pseudoCap := float64(rem) * b.apps[pos].sufCapPer
	pseudoDone := pseudoCap <= 0 || pseudoDens <= 0
	need, caps, forcedBW, forcedVal := 0.0, 0.0, 0.0, 0.0
	if !pseudoDone {
		need, caps = pseudoCap/pseudoDens, pseudoCap
	}
	assigned := b.apps[:pos]
	for i, c := range counts[:len(assigned)] {
		a, fc := &assigned[i], float64(c)
		need += fc * a.needPer
		caps += fc * a.capPer
		forcedBW += fc * a.forcedPer
		forcedVal += fc * a.forcedVal
	}
	if need <= b.totalBW {
		return caps // the pool covers every app at full rate
	}
	pool, ub := b.totalBW-forcedBW, forcedVal
	// settled holds what settled homes add to each assigned app's
	// forced term; up to 32 apps keep it on the stack.
	var settled []float64
	if len(b.homes) > 0 {
		var buf [32]float64
		settled = buf[:]
		if pos > len(buf) {
			settled = make([]float64, pos)
		}
		for k := range b.homes {
			// With no cores left, the unassigned apps run no threads, so
			// the assigned ones settle every home.
			if hn := &b.homes[k]; hn.last < pos || rem == 0 {
				bw, val := b.settle(hn, counts[:pos], settled)
				pool -= bw
				ub += val
			}
		}
	}

	grant := func(cap, dens float64) float64 {
		need := cap / dens
		if need <= pool {
			pool -= need
			return cap
		}
		g := pool * dens
		pool = 0
		return g
	}
	for r := range len(b.apps) - 1 {
		if pool <= 0 {
			break
		}
		i := b.apps[r].order
		a := &b.apps[i]
		if !pseudoDone && pseudoDens >= a.dens {
			ub += grant(pseudoCap, pseudoDens)
			pseudoDone = true
			if pool <= 0 {
				break
			}
		}
		if i >= pos {
			continue // part of the pseudo-app
		}
		cap := float64(counts[i]) * a.capRest
		if settled != nil {
			cap -= a.dens * settled[i]
		}
		if cap > 0 {
			ub += grant(cap, a.dens)
		}
	}
	if !pseudoDone && pool > 0 {
		ub += grant(pseudoCap, pseudoDens)
	}
	return ub
}

// settle replaces hn's estimated remote service with the exact one,
// once the assigned apps fix it: the model's remote-first rule caps
// each requesting link, splitting it in proportion to demand, and
// serves at most the node's bandwidth. It adds each homed app's
// remote grant to settled, and to each local accessor's entry the rise
// of its forced share from the estimated baseline to the exact one,
// and returns the bandwidth and value it added. counts holds the
// assigned prefix only; unassigned apps run no threads here.
func (b *forcedBound) settle(hn *homeNode, counts []int, settled []float64) (bw, val float64) {
	// Links cannot bind while the worst-case demand on any one of them,
	// Σ counts·(largest per-thread demand), stays within the narrowest.
	served, worst := 0.0, 0.0
	for i := hn.first; i >= 0 && i < len(counts); i = b.apps[i].nextHomed {
		c := float64(counts[i])
		served += c * b.apps[i].remoteDem
		worst += c * b.apps[i].remoteMax
	}
	nodes := b.m.Nodes
	var perLinkBuf [8]float64
	var perLink []float64 // demand per requesting node, once a link may bind
	if worst > hn.linkMin {
		perLink = perLinkBuf[:]
		if len(nodes) > len(perLink) {
			perLink = make([]float64, len(nodes))
		}
		perLink = perLink[:len(nodes)]
		for i := hn.first; i >= 0 && i < len(counts); i = b.apps[i].nextHomed {
			c := float64(counts[i]) * b.apps[i].invAI
			for j := range perLink {
				perLink[j] += c * nodes[j].PeakGFLOPS
			}
		}
		served = 0
		for j, d := range perLink {
			if j != hn.node { // threads on the home node are local accessors
				served += min(d, b.link(j, hn.node))
			}
		}
	}
	scale := forcedScale
	if served > hn.bw {
		scale *= hn.bw / served
		served = hn.bw
	}
	for i := hn.first; i >= 0 && i < len(counts); i = b.apps[i].nextHomed {
		c := float64(counts[i])
		if c == 0 {
			continue
		}
		g := c * b.apps[i].remoteDem
		if perLink != nil {
			g = 0
			for j := range perLink {
				if j == hn.node {
					continue
				}
				d := c * nodes[j].PeakGFLOPS * b.apps[i].invAI
				if link := b.link(j, hn.node); perLink[j] > link {
					d *= link / perLink[j]
				}
				g += d
			}
		}
		g *= scale
		settled[i] += g
		bw += g
		val += b.apps[i].dens * g
	}
	base := (hn.bw - served) / hn.cores
	if base <= hn.baseEst {
		return bw, val
	}
	for i, c := range counts {
		a := &b.apps[i]
		if c == 0 || a.home >= 0 && a.home != hn.node {
			continue // no thread here, or served remotely
		}
		d := hn.peak * a.invAI
		g := float64(c) * (min(d, base) - min(d, hn.baseEst)) * forcedScale
		settled[i] += g
		bw += g
		val += a.dens * g
	}
	return bw, val
}

// link is the bandwidth from node j's cores into node h's memory.
func (b *forcedBound) link(j, h int) float64 {
	return b.m.Link(machine.NodeID(j), machine.NodeID(h))
}
