package roofline

import (
	"encoding/binary"
	"fmt"

	"repro/internal/machine"
)

// Evaluator is a scratch-reusing, memoizing implementation of the model
// in EvaluateOpts, built for optimizer hot loops that evaluate many
// allocations over one (machine, apps) pair.
//
// It exploits the model's per-node independence: memory node h's
// bandwidth split depends only on
//
//   - the thread counts on h of its local accessors (NUMA-perfect apps
//     plus NUMA-bad apps homed at h), and
//   - the full thread rows of NUMA-bad apps homed at h (their threads
//     elsewhere are h's remote accessors);
//
// NUMA-bad apps homed at other nodes are invisible to h. Each node's
// outcome is therefore memoized under a key built from exactly those
// counts, so a hill-climb move or enumeration step recomputes only the
// touched nodes. Nodes with identical hardware that are nobody's home
// node share one memo class: on a uniform machine a symmetric
// allocation computes one node and reuses it for the rest.
//
// Results are bit-identical to EvaluateOpts: the arithmetic (including
// the canonical summation order of claims and totals) is replicated
// exactly, and memoized outcomes are copies of previously computed
// float64 values. The differential tests in evaluator_test.go and the
// FuzzEvaluatorEquivalence corpus enforce this with exact ==
// comparisons.
//
// An Evaluator is NOT safe for concurrent use; Search hands each worker
// goroutine its own.
type Evaluator struct {
	m    *machine.Machine
	apps []App
	opt  Options

	nApps  int
	nNodes int

	// demand[i][j] is apps[i].demandPerThread(Nodes[j].PeakGFLOPS),
	// precomputed so the hot path never divides by AI.
	demand [][]float64

	// localApps[h] lists (in app order) the apps whose threads on h are
	// served by h's local split; homeApps[h] lists the NUMA-bad apps
	// homed at h (their full rows feed h's remote service).
	localApps [][]int32
	homeApps  [][]int32

	// classOf maps a node to its memo class. Home nodes are singleton
	// classes; the rest share by (cores, peak, bandwidth).
	classOf []int
	memo    []map[string]*nodeOutcome

	hits, misses uint64

	// Scratch reused across evaluations.
	keyBuf  []byte
	perLink []float64
	rclaims []remoteClaim
	lclaims []localClaim
	missOut nodeOutcome
}

// maxMemoEntriesPerClass bounds each memo class; past it the class
// freezes: misses are still computed (into reusable scratch, so they
// cost no allocation) but no longer inserted. Dense enumerations visit
// each key once, so storing past this point is pure churn, while the
// workloads that genuinely revisit keys (within-candidate node dedup,
// hill-climb column reuse) never need more than a fraction of this.
const maxMemoEntriesPerClass = 1 << 13

// nodeOutcome is one memoized node evaluation: the node's bandwidth
// accounting plus every per-app cell it determines. node < 0 in an
// entry means "the node being evaluated" (so hardware-identical nodes
// can share outcomes); remote entries carry absolute node indices and
// only occur in singleton home classes.
type nodeOutcome struct {
	baseline     float64
	remoteServed float64
	localServed  float64
	entries      []outcomeEntry
}

type outcomeEntry struct {
	app  int32
	node int32
	res  AppNodeResult
}

// NewEvaluator builds an evaluator for the machine and apps with
// default options.
func NewEvaluator(m *machine.Machine, apps []App) (*Evaluator, error) {
	return NewEvaluatorOpts(m, apps, Options{})
}

// NewEvaluatorOpts builds an evaluator with explicit model options.
func NewEvaluatorOpts(m *machine.Machine, apps []App, opt Options) (*Evaluator, error) {
	e := &Evaluator{}
	if err := e.Reset(m, apps, opt); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-targets the evaluator at a new (machine, apps, options)
// tuple, revalidating the inputs, clearing the memo, and reusing the
// allocated scratch. The input validation matches EvaluateOpts.
func (e *Evaluator) Reset(m *machine.Machine, apps []App, opt Options) error {
	if err := m.Validate(); err != nil {
		return err
	}
	for i, a := range apps {
		if a.AI <= 0 {
			return fmt.Errorf("roofline: app %d (%s) has non-positive AI %g", i, a.Name, a.AI)
		}
		if a.Placement == NUMABad {
			if int(a.HomeNode) < 0 || int(a.HomeNode) >= m.NumNodes() {
				return fmt.Errorf("roofline: app %d (%s) home node %d out of range", i, a.Name, a.HomeNode)
			}
		}
	}
	e.m, e.opt = m, opt
	e.nApps, e.nNodes = len(apps), m.NumNodes()
	e.apps = append(e.apps[:0], apps...)
	e.hits, e.misses = 0, 0

	e.demand = resizeGrid(e.demand, e.nApps, e.nNodes)
	for i := range apps {
		for j := 0; j < e.nNodes; j++ {
			e.demand[i][j] = apps[i].demandPerThread(m.Nodes[j].PeakGFLOPS)
		}
	}

	e.localApps = resizeIdxLists(e.localApps, e.nNodes)
	e.homeApps = resizeIdxLists(e.homeApps, e.nNodes)
	for h := 0; h < e.nNodes; h++ {
		for i, a := range apps {
			if a.Placement == NUMABad && int(a.HomeNode) != h {
				continue // h's remote accessor (or another node's local one)
			}
			e.localApps[h] = append(e.localApps[h], int32(i))
		}
	}
	for i, a := range apps {
		if a.Placement == NUMABad {
			e.homeApps[a.HomeNode] = append(e.homeApps[a.HomeNode], int32(i))
		}
	}

	// Memo classes: home nodes are singletons (their keys embed absolute
	// remote coordinates and link bandwidths); other nodes group by
	// hardware, since their outcome depends only on (cores, peak,
	// bandwidth) and the perfect apps' counts on them.
	type hwKey struct {
		cores    int
		peak, bw float64
	}
	if cap(e.classOf) < e.nNodes {
		e.classOf = make([]int, e.nNodes)
	} else {
		e.classOf = e.classOf[:e.nNodes]
	}
	byHW := make(map[hwKey]int, e.nNodes)
	nClasses := 0
	for h := 0; h < e.nNodes; h++ {
		if len(e.homeApps[h]) > 0 {
			e.classOf[h] = nClasses
			nClasses++
			continue
		}
		k := hwKey{cores: m.Nodes[h].Cores, peak: m.Nodes[h].PeakGFLOPS, bw: m.Nodes[h].MemBandwidth}
		c, ok := byHW[k]
		if !ok {
			c = nClasses
			byHW[k] = c
			nClasses++
		}
		e.classOf[h] = c
	}
	for len(e.memo) < nClasses {
		e.memo = append(e.memo, nil)
	}
	e.memo = e.memo[:nClasses]
	for c := range e.memo {
		if e.memo[c] == nil {
			e.memo[c] = make(map[string]*nodeOutcome)
		} else {
			clear(e.memo[c])
		}
	}

	if cap(e.perLink) < e.nNodes {
		e.perLink = make([]float64, e.nNodes)
	} else {
		e.perLink = e.perLink[:e.nNodes]
		for j := range e.perLink {
			e.perLink[j] = 0
		}
	}
	return nil
}

func resizeGrid(g [][]float64, rows, cols int) [][]float64 {
	if cap(g) < rows {
		g = make([][]float64, rows)
	} else {
		g = g[:rows]
	}
	for i := range g {
		if cap(g[i]) < cols {
			g[i] = make([]float64, cols)
		} else {
			g[i] = g[i][:cols]
		}
	}
	return g
}

func resizeIdxLists(l [][]int32, n int) [][]int32 {
	if cap(l) < n {
		l = make([][]int32, n)
	} else {
		l = l[:n]
	}
	for i := range l {
		l[i] = l[i][:0]
	}
	return l
}

// MemoStats returns the per-node memo's hit/miss counters since the
// last Reset.
func (e *Evaluator) MemoStats() (hits, misses uint64) {
	return e.hits, e.misses
}

// Evaluate runs the model into a freshly allocated Result.
func (e *Evaluator) Evaluate(al Allocation) (*Result, error) {
	res := &Result{}
	if err := e.EvaluateInto(res, al); err != nil {
		return nil, err
	}
	return res, nil
}

// EvaluateInto runs the model into a caller-owned Result, resizing and
// zeroing its slices as needed. The Result is fully overwritten and
// owned by the caller; repeated calls with the same Result allocate
// nothing in steady state (memo hits aside).
func (e *Evaluator) EvaluateInto(res *Result, al Allocation) error {
	if err := al.Validate(e.m, e.apps); err != nil {
		return err
	}
	prepareResult(res, e.nApps, e.nNodes)

	for h := 0; h < e.nNodes; h++ {
		out := e.lookup(h, al)
		res.PerNode[h].Baseline = out.baseline
		res.PerNode[h].RemoteServed = out.remoteServed
		res.PerNode[h].LocalServed = out.localServed
		for idx := range out.entries {
			en := &out.entries[idx]
			j := int(en.node)
			if j < 0 {
				j = h
			}
			res.PerApp[en.app][j] = en.res
		}
	}

	// Totals in the reference order: per app, nodes in index order, then
	// the machine total over the app totals in ascending order.
	for i := 0; i < e.nApps; i++ {
		for j := 0; j < e.nNodes; j++ {
			g := res.PerApp[i][j].GFLOPS
			res.AppGFLOPS[i] += g
			res.PerNode[j].GFLOPS += g
		}
	}
	res.TotalGFLOPS = ascendingSum(nil, res.AppGFLOPS)
	return nil
}

func prepareResult(res *Result, nApps, nNodes int) {
	if cap(res.PerApp) < nApps {
		res.PerApp = make([][]AppNodeResult, nApps)
	} else {
		res.PerApp = res.PerApp[:nApps]
	}
	for i := range res.PerApp {
		row := res.PerApp[i]
		if cap(row) < nNodes {
			row = make([]AppNodeResult, nNodes)
		} else {
			row = row[:nNodes]
			for j := range row {
				row[j] = AppNodeResult{}
			}
		}
		res.PerApp[i] = row
	}
	if cap(res.PerNode) < nNodes {
		res.PerNode = make([]NodeResult, nNodes)
	} else {
		res.PerNode = res.PerNode[:nNodes]
		for j := range res.PerNode {
			res.PerNode[j] = NodeResult{}
		}
	}
	if cap(res.AppGFLOPS) < nApps {
		res.AppGFLOPS = make([]float64, nApps)
	} else {
		res.AppGFLOPS = res.AppGFLOPS[:nApps]
		for i := range res.AppGFLOPS {
			res.AppGFLOPS[i] = 0
		}
	}
	res.TotalGFLOPS = 0
}

// nodeKey builds node h's memo key into the reused key buffer: the
// local accessors' counts on h, then (for home nodes) each homed app's
// counts on every other node. Uvarint framing keeps fields
// self-delimiting, so distinct count tuples never collide.
func (e *Evaluator) nodeKey(h int, al Allocation) []byte {
	b := e.keyBuf[:0]
	for _, i := range e.localApps[h] {
		b = binary.AppendUvarint(b, uint64(al.Threads[i][h]))
	}
	for _, i := range e.homeApps[h] {
		row := al.Threads[i]
		for j := 0; j < e.nNodes; j++ {
			if j == h {
				continue // the local count is already in the key
			}
			b = binary.AppendUvarint(b, uint64(row[j]))
		}
	}
	e.keyBuf = b
	return b
}

func (e *Evaluator) lookup(h int, al Allocation) *nodeOutcome {
	key := e.nodeKey(h, al)
	memo := e.memo[e.classOf[h]]
	// string(key) in a map index compiles to a no-allocation lookup.
	if out, ok := memo[string(key)]; ok {
		e.hits++
		return out
	}
	e.misses++
	e.computeNode(&e.missOut, h, al)
	if len(memo) >= maxMemoEntriesPerClass {
		// Frozen class: serve the computed outcome from scratch without
		// storing it. The caller consumes it before the next lookup.
		return &e.missOut
	}
	out := &nodeOutcome{
		baseline:     e.missOut.baseline,
		remoteServed: e.missOut.remoteServed,
		localServed:  e.missOut.localServed,
		entries:      append([]outcomeEntry(nil), e.missOut.entries...),
	}
	memo[string(key)] = out
	return out
}

// computeNode replicates EvaluateOpts' per-node pipeline (remote-first
// service, local baseline + one-round proportional remainder, remote
// fold) with identical operation order, recording every written cell
// into the caller-owned outcome (fully overwritten, entries reused).
func (e *Evaluator) computeNode(out *nodeOutcome, h int, al Allocation) {
	out.baseline, out.remoteServed, out.localServed = 0, 0, 0
	out.entries = out.entries[:0]
	bw := e.m.Nodes[h].MemBandwidth
	if e.opt.LocalFirst {
		local := e.serveLocal(h, bw, al, out)
		out.remoteServed = e.serveRemote(h, bw-local, al)
	} else {
		remote := e.serveRemote(h, bw, al)
		out.remoteServed = remote
		e.serveLocal(h, bw-remote, al, out)
	}
	// Fold the remote grants (kept in e.rclaims by serveRemote) into
	// per-app cells, as the reference's pass 3 does.
	for idx := range e.rclaims {
		c := &e.rclaims[idx]
		th := al.Threads[c.app][c.node]
		a := e.apps[c.app]
		bwPerThread := c.granted / float64(th)
		gPerThread := min(e.m.Nodes[c.node].PeakGFLOPS, bwPerThread*a.AI)
		out.entries = append(out.entries, outcomeEntry{
			app:  int32(c.app),
			node: int32(c.node),
			res: AppNodeResult{
				Threads:         th,
				DemandPerThread: c.demand / float64(th),
				BWPerThread:     bwPerThread,
				GFLOPSPerThread: gPerThread,
				GFLOPS:          gPerThread * float64(th),
				Remote:          true,
			},
		})
	}
}

func (e *Evaluator) serveRemote(h int, avail float64, al Allocation) float64 {
	claims := e.rclaims[:0]
	for _, i := range e.homeApps[h] {
		row := al.Threads[i]
		for j := 0; j < e.nNodes; j++ {
			if j == h {
				continue
			}
			th := row[j]
			if th == 0 {
				continue
			}
			claims = append(claims, remoteClaim{app: int(i), node: j, demand: float64(th) * e.demand[i][j]})
		}
	}
	sortRemoteClaims(claims)
	for _, c := range claims {
		e.perLink[c.node] += c.demand
	}
	served := 0.0
	for idx := range claims {
		c := &claims[idx]
		link := e.m.Link(machine.NodeID(c.node), machine.NodeID(h))
		if e.perLink[c.node] <= link {
			c.granted = c.demand
		} else {
			c.granted = c.demand * link / e.perLink[c.node]
		}
		served += c.granted
	}
	if served > avail {
		scale := 0.0
		if served > 0 {
			scale = avail / served
		}
		for idx := range claims {
			claims[idx].granted *= scale
		}
		served = avail
	}
	for _, c := range claims {
		e.perLink[c.node] = 0
	}
	e.rclaims = claims
	return served
}

func (e *Evaluator) serveLocal(h int, avail float64, al Allocation, out *nodeOutcome) float64 {
	cores := e.m.Nodes[h].Cores
	baseline := avail / float64(cores)
	if e.opt.NoBaseline {
		baseline = 0
	}
	out.baseline = baseline

	claims := e.lclaims[:0]
	for _, i := range e.localApps[h] {
		th := al.Threads[i][h]
		if th == 0 {
			continue
		}
		claims = append(claims, localClaim{app: int(i), threads: th, perThread: e.demand[i][h]})
	}
	sortLocalClaims(claims)
	allocated := 0.0
	for idx := range claims {
		c := &claims[idx]
		c.granted = min(c.perThread, baseline)
		allocated += c.granted * float64(c.threads)
	}
	remaining := avail - allocated
	residualTotal := 0.0
	for idx := range claims {
		c := &claims[idx]
		residualTotal += (c.perThread - c.granted) * float64(c.threads)
	}
	if remaining > 1e-12 && residualTotal > 1e-12 {
		share := remaining / residualTotal
		if share > 1 {
			share = 1
		}
		for idx := range claims {
			c := &claims[idx]
			c.granted += (c.perThread - c.granted) * share
		}
	}
	localServed := 0.0
	for idx := range claims {
		c := &claims[idx]
		a := e.apps[c.app]
		gPerThread := min(e.m.Nodes[h].PeakGFLOPS, c.granted*a.AI)
		out.entries = append(out.entries, outcomeEntry{
			app:  int32(c.app),
			node: -1,
			res: AppNodeResult{
				Threads:         c.threads,
				DemandPerThread: c.perThread,
				BWPerThread:     c.granted,
				GFLOPSPerThread: gPerThread,
				GFLOPS:          gPerThread * float64(c.threads),
			},
		})
		localServed += c.granted * float64(c.threads)
	}
	out.localServed = localServed
	e.lclaims = claims
	return localServed
}
