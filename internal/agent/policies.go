package agent

import (
	"repro/internal/des"
	"repro/internal/machine"
	"repro/internal/roofline"
)

// FairShare divides the machine's cores evenly among the clients. With
// PerNode it issues per-NUMA-node counts (option 3, an even slice of
// every node); otherwise it issues total thread counts (option 1).
// This is the paper's "simple core allocation strategy ... so that the
// total number of worker threads across all applications is equal to
// the total number of available CPU cores", eliminating
// over-subscription.
type FairShare struct {
	// PerNode selects option 3 instead of option 1.
	PerNode bool
}

// Name implements Policy.
func (FairShare) Name() string { return "fair-share" }

// Decide implements Policy.
func (p FairShare) Decide(_ des.Time, m *machine.Machine, infos []Info) []Command {
	n := len(infos)
	if n == 0 {
		return nil
	}
	var cmds []Command
	if p.PerNode {
		for i := 0; i < n; i++ {
			counts := make([]int, m.NumNodes())
			for j, nd := range m.Nodes {
				counts[j] = nd.Cores / n
				if r := nd.Cores % n; i < r {
					counts[j]++
				}
			}
			cmds = append(cmds, Command{Client: i, PerNode: counts})
		}
		return cmds
	}
	total := m.TotalCores()
	for i := 0; i < n; i++ {
		share := total / n
		if i < total%n {
			share++
		}
		cmds = append(cmds, Command{Client: i, Total: &share})
	}
	return cmds
}

// IterationReporter exposes pipeline progress to the alignment policy.
// *workload.Pipeline implements it.
type IterationReporter interface {
	ProducedIterations() int
	ConsumedIterations() int
}

// Align keeps a producer application only a bounded number of
// iterations ahead of its consumer (the paper's prior-work experiment):
// when the lead exceeds MaxLead, cores shift from producer to consumer;
// when it falls below MinLead they shift back.
type Align struct {
	// Pipeline reports produced/consumed iteration counts.
	Pipeline IterationReporter
	// ProducerClient and ConsumerClient index the agent's client list.
	ProducerClient, ConsumerClient int
	// MinLead..MaxLead is the target band for produced-consumed.
	MinLead, MaxLead int
	// Step is the number of threads moved per decision (default 1).
	Step int
	// MinThreads floors each side's allocation (default 1).
	MinThreads int

	producerShare int // current producer share; 0 = uninitialized
}

// Name implements Policy.
func (*Align) Name() string { return "producer-consumer-align" }

// Decide implements Policy.
func (p *Align) Decide(_ des.Time, m *machine.Machine, infos []Info) []Command {
	if p.Pipeline == nil {
		return nil
	}
	step := p.Step
	if step <= 0 {
		step = 1
	}
	minThreads := p.MinThreads
	if minThreads <= 0 {
		minThreads = 1
	}
	total := m.TotalCores()
	if p.producerShare == 0 {
		p.producerShare = total / 2
	}
	lead := p.Pipeline.ProducedIterations() - p.Pipeline.ConsumedIterations()
	switch {
	case lead > p.MaxLead:
		p.producerShare -= step
	case lead < p.MinLead:
		p.producerShare += step
	default:
		return nil
	}
	if p.producerShare < minThreads {
		p.producerShare = minThreads
	}
	if p.producerShare > total-minThreads {
		p.producerShare = total - minThreads
	}
	prod, cons := p.producerShare, total-p.producerShare
	return []Command{
		{Client: p.ProducerClient, Total: &prod},
		{Client: p.ConsumerClient, Total: &cons},
	}
}

// AppSpec describes one client's performance character for the
// model-driven policy.
type AppSpec struct {
	// AI is the application's arithmetic intensity.
	AI float64
	// Placement and HomeNode describe its NUMA behaviour.
	Placement roofline.Placement
	HomeNode  machine.NodeID
}

// RooflineOptimal allocates per-node thread counts by exhaustively
// optimizing the paper's roofline model over uniform per-node
// allocations (Section III.A) — the NUMA-aware allocation the paper
// argues for. The decision is computed once and re-issued only if a
// client set change invalidates it.
type RooflineOptimal struct {
	// Specs describe the clients, in agent client order.
	Specs []AppSpec
	// Objective scores allocations; nil means roofline.ObjTotalGFLOPS.
	Objective roofline.ObjectiveSpec
	// MinPerNode guarantees every client at least this many threads on
	// every node (no starvation: under pure throughput maximization a
	// memory-bound app's threads contribute nothing once bandwidth is
	// saturated and would be handed to compute-bound neighbours). 0
	// applies no floor; 1 reproduces the paper's Table I optimum.
	MinPerNode int
	// Search, when set, runs the solve through a shared roofline.Search
	// (pooled evaluators); nil allocates a private one on first use.
	Search *roofline.Search

	counts []int
	failed bool
}

// Name implements Policy.
func (*RooflineOptimal) Name() string { return "roofline-optimal" }

// Decide implements Policy.
func (p *RooflineOptimal) Decide(_ des.Time, m *machine.Machine, infos []Info) []Command {
	if p.failed || len(p.Specs) != len(infos) {
		return nil
	}
	if p.counts == nil {
		apps := make([]roofline.App, len(p.Specs))
		for i, s := range p.Specs {
			apps[i] = roofline.App{Name: infos[i].Name, AI: s.AI, Placement: s.Placement, HomeNode: s.HomeNode}
		}
		spec := p.Objective
		if spec == nil {
			spec = roofline.ObjTotalGFLOPS
		}
		if p.Search == nil {
			p.Search = new(roofline.Search)
		}
		counts, _, _, err := p.Search.BestPerNodeCountsFloorSpec(spec, nil, m, apps, p.MinPerNode)
		if err != nil {
			p.failed = true
			return nil
		}
		p.counts = counts
	}
	cmds := make([]Command, len(infos))
	for i := range infos {
		perNode := make([]int, m.NumNodes())
		for j := range perNode {
			perNode[j] = p.counts[i]
		}
		cmds[i] = Command{Client: i, PerNode: perNode}
	}
	return cmds
}

// AdaptiveRoofline is RooflineOptimal without the oracle: it estimates
// each application's arithmetic intensity online from the measured
// compute and memory-traffic rates (AI ≈ GFlopRate / GBRate), then
// optimizes the per-node allocation with the roofline model. This is
// the paper's "way to figure out the access patterns" realized from
// OS-level observation alone — no cooperation from the applications.
//
// The policy observes for Warmup periods (during which the paper's
// over-subscribed default or any prior allocation runs), averages the
// AI estimates, optimizes once, and re-optimizes every Reoptimize
// periods if the estimates drift by more than 25%.
type AdaptiveRoofline struct {
	// Warmup is the number of observation periods before the first
	// decision (default 5).
	Warmup int
	// Reoptimize re-estimates every N periods; 0 disables.
	Reoptimize int
	// MaxAI clamps the estimate for compute-only applications whose
	// measured traffic is ~0 (default 1e3).
	MaxAI float64
	// Placements optionally supplies NUMA placements per client
	// (default: all NUMA-perfect). AI is always estimated.
	Placements []AppSpec
	// Search, when set, runs re-optimizations through a shared
	// roofline.Search; nil allocates a private one on first use.
	Search *roofline.Search

	ticks    int
	sumAI    []float64
	nAI      []int
	lastAI   []float64
	counts   []int
	sinceOpt int
}

// Name implements Policy.
func (*AdaptiveRoofline) Name() string { return "adaptive-roofline" }

// Decide implements Policy.
func (p *AdaptiveRoofline) Decide(_ des.Time, m *machine.Machine, infos []Info) []Command {
	if p.Warmup <= 0 {
		p.Warmup = 5
	}
	if p.MaxAI <= 0 {
		p.MaxAI = 1e3
	}
	if p.sumAI == nil || len(p.sumAI) != len(infos) {
		// First call, or the client set changed under us (an app joined
		// or deregistered mid-reallocation): restart the estimation so
		// the accumulators stay aligned with the client list.
		p.sumAI = make([]float64, len(infos))
		p.nAI = make([]int, len(infos))
		p.lastAI = make([]float64, len(infos))
		p.counts = nil
		p.ticks = 0
	}
	// Accumulate AI estimates from clients that did measurable work.
	for i, in := range infos {
		if in.GFlopRate <= 0 {
			continue
		}
		ai := p.MaxAI
		if in.GBRate > 1e-9 {
			ai = in.GFlopRate / in.GBRate
			if ai > p.MaxAI {
				ai = p.MaxAI
			}
		}
		p.sumAI[i] += ai
		p.nAI[i]++
	}
	p.ticks++
	p.sinceOpt++
	if p.ticks < p.Warmup {
		return nil
	}
	needOpt := p.counts == nil
	if !needOpt && p.Reoptimize > 0 && p.sinceOpt >= p.Reoptimize {
		p.sinceOpt = 0
		for i := range infos {
			if est, ok := p.estimate(i); ok && p.lastAI[i] > 0 {
				if est > p.lastAI[i]*1.25 || est < p.lastAI[i]*0.8 {
					needOpt = true
				}
			}
		}
	}
	if !needOpt {
		return p.commands(m, len(infos))
	}
	apps := make([]roofline.App, len(infos))
	for i := range infos {
		est, ok := p.estimate(i)
		if !ok {
			est = 1 // never observed: neutral guess
		}
		p.lastAI[i] = est
		apps[i] = roofline.App{Name: infos[i].Name, AI: est}
		if i < len(p.Placements) {
			apps[i].Placement = p.Placements[i].Placement
			apps[i].HomeNode = p.Placements[i].HomeNode
		}
		// Reset accumulators so re-optimization sees fresh data.
		p.sumAI[i], p.nAI[i] = 0, 0
	}
	if p.Search == nil {
		p.Search = new(roofline.Search)
	}
	counts, _, _, err := p.Search.BestPerNodeCountsFloorSpec(roofline.ObjTotalGFLOPS, nil, m, apps, 0)
	if err != nil {
		return nil
	}
	p.counts = counts
	return p.commands(m, len(infos))
}

func (p *AdaptiveRoofline) estimate(i int) (float64, bool) {
	if p.nAI[i] == 0 {
		return 0, false
	}
	return p.sumAI[i] / float64(p.nAI[i]), true
}

// EstimatedAI returns the policy's last AI estimate per client (for
// inspection), or nil before the first decision.
func (p *AdaptiveRoofline) EstimatedAI() []float64 {
	return append([]float64(nil), p.lastAI...)
}

func (p *AdaptiveRoofline) commands(m *machine.Machine, n int) []Command {
	cmds := make([]Command, n)
	for i := 0; i < n; i++ {
		perNode := make([]int, m.NumNodes())
		for j := range perNode {
			perNode[j] = p.counts[i]
		}
		cmds[i] = Command{Client: i, PerNode: perNode}
	}
	return cmds
}

// WorkConserving reallocates cores every period in proportion to each
// client's instantaneous demand (running + queued tasks), so an
// application bursts to the whole machine while its neighbours are
// idle and shrinks back when they wake — the paper's Section V
// suggestion of "dynamically shifting resources between" components
// co-located on a node.
type WorkConserving struct {
	// MinThreads floors every client's share (default 1) so a waking
	// application always has a thread to signal demand with.
	MinThreads int
}

// Name implements Policy.
func (WorkConserving) Name() string { return "work-conserving" }

// Decide implements Policy.
func (p WorkConserving) Decide(_ des.Time, m *machine.Machine, infos []Info) []Command {
	minThreads := p.MinThreads
	if minThreads <= 0 {
		minThreads = 1
	}
	total := m.TotalCores()
	n := len(infos)
	demands := make([]int, n)
	sum := 0
	for i, in := range infos {
		d := in.Stats.Running + in.Stats.Pending + in.Stats.Outstanding
		if d > in.Stats.Workers {
			d = in.Stats.Workers
		}
		demands[i] = d
		sum += d
	}
	shares := make([]int, n)
	if sum == 0 {
		// Nobody wants anything: even split keeps everyone responsive.
		for i := range shares {
			shares[i] = total / n
		}
	} else {
		used := 0
		for i, d := range demands {
			shares[i] = total * d / sum
			if shares[i] < minThreads {
				shares[i] = minThreads
			}
			used += shares[i]
		}
		// Trim overshoot caused by the floors, largest share first.
		for used > total {
			max := 0
			for i := range shares {
				if shares[i] > shares[max] {
					max = i
				}
			}
			if shares[max] <= minThreads {
				break
			}
			shares[max]--
			used--
		}
	}
	cmds := make([]Command, n)
	for i := range infos {
		s := shares[i]
		cmds[i] = Command{Client: i, Total: &s, Balanced: true}
	}
	return cmds
}

// Static issues one fixed allocation (per-node counts per client) and
// never changes it; useful as an experimental control.
type Static struct {
	// PerNode[i] is client i's per-node count vector.
	PerNode [][]int
}

// Name implements Policy.
func (Static) Name() string { return "static" }

// Decide implements Policy.
func (p Static) Decide(_ des.Time, m *machine.Machine, infos []Info) []Command {
	var cmds []Command
	for i := range infos {
		if i < len(p.PerNode) && p.PerNode[i] != nil {
			cmds = append(cmds, Command{Client: i, PerNode: p.PerNode[i]})
		}
	}
	return cmds
}
