// Command e2ebench is the repository's end-to-end benchmark. It boots
// the real stack in one process over loopback HTTP — coopd members,
// the fleet Server, Inventory, Placer, Scorer and Rebalancer, and
// through them the roofline solver — and drives one of three seeded
// closed-loop workloads from a single client goroutine:
//
//	machine-dense   one coopd on the paper 4x8 machine; dense floor-0 solves
//	fleet-place     fleetd in front of 48 mixed-topology coopd members
//	fleet-failover  12 paper members under isolation, storm and preemption
//
// Usage:
//
//	e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE] [--spans FILE]
//	e2ebench compare BASE.json NEW.json
//
// The last line of standard output is the result as one JSON object;
// a table of every metric, with its unit, goes to standard error. See
// README.md for the metric, layer and workload map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// commit is the source revision, set at build time by run.sh.
var commit = "unknown"

// runConfig is one run's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	// maxOps, when positive, ends the timed phase after that many ops
	// instead of after seconds (the determinism tests use it).
	maxOps int
	trace  bool
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
}

// outcome is what one workload run measured.
type outcome struct {
	setupS    []float64
	opMs      []float64 // latency of the workload's client op
	attempted int
	failed    int
	timed     time.Duration // on-clock time of the timed phase
	gflops    []float64     // model aggregate at each checkpoint
	heapMB    float64
	// report holds the workload's metrics under their per-workload
	// names (alloc_p50_ms, place_p50_ms, ...), printed on stderr.
	report []metricLine
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
	spans  []span
	// digest hashes the generated op sequence; moves counts rebalance
	// moves by reason. Both are deterministic for a seed.
	digest uint64
	moves  map[string]int
}

type metricLine struct {
	name  string
	value float64
	unit  string
}

type workload struct {
	run func(ctx context.Context, cfg runConfig) (*outcome, error)
	// setupReps is how many times a run sets up; machine-dense sets up
	// in milliseconds, so it repeats more to steady the median.
	setupReps int
}

var workloads = map[string]workload{
	"machine-dense":  {runDense, 15},
	"fleet-place":    {runPlace, 5},
	"fleet-failover": {runFailover, 5},
}

// endToEnd lists the untraced run's metrics, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"model_gflops", "GFLOPS"},
	{"live_heap_mb", "MB"},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("e2ebench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: machine-dense, fleet-place or fleet-failover")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fs.String("out", "", "also write the stamped result to this file")
	spansPath := fs.String("spans", "", "traced run: write spans here (JSON lines)")
	fs.Parse(os.Args[1:])

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := runConfig{
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		setupReps: w.setupReps,
	}
	oc, err := w.run(context.Background(), cfg)
	if err != nil && !isCheck(err) {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	res := newResult(*name, cfg, oc, err)
	printTable(res)
	if *out != "" {
		if err := writeJSONFile(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
	}
	if cfg.trace && *spansPath != "" {
		if err := writeSpans(*spansPath, oc.spans); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's stamped outcome, as written by --out.
type result struct {
	Stamp     stamp             `json:"stamp"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Check     string            `json:"check,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Report    map[string]metric `json:"report"`
}

func newResult(name string, cfg runConfig, oc *outcome, runErr error) *result {
	res := &result{
		Stamp:     hostStamp(),
		Workload:  name,
		Seed:      cfg.seed,
		Seconds:   cfg.seconds.Seconds(),
		Trace:     cfg.trace,
		Correct:   runErr == nil,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   map[string]metric{},
		Report:    map[string]metric{},
	}
	if runErr != nil {
		res.Check = runErr.Error()
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = max(res.Failed, 1)
	}
	opsPerS := float64(oc.attempted-oc.failed) / oc.timed.Seconds()
	if cfg.trace {
		// The traced op rate beside the untraced run's ops_per_s is the
		// tracing overhead. A run stopped by a failed check has no layer
		// metrics and reports zeros.
		layers := map[string]float64{"traced.ops_per_s": opsPerS}
		maps.Copy(layers, oc.layers)
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{layers[l.name], l.unit}
		}
	} else {
		e2e := map[string]float64{
			"setup_s":      median(oc.setupS),
			"op_p50_ms":    quantile(oc.opMs, 0.50),
			"op_p90_ms":    quantile(oc.opMs, 0.90),
			"ops_per_s":    opsPerS,
			"model_gflops": mean(oc.gflops),
			"live_heap_mb": oc.heapMB,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	}
	for _, l := range oc.report {
		res.Report[l.name] = metric{l.value, l.unit}
	}
	res.Report["setup_s"] = metric{median(oc.setupS), "s"}
	res.Report["ops_per_s"] = metric{opsPerS, "1/s"}
	res.Report["model_gflops"] = metric{mean(oc.gflops), "GFLOPS"}
	res.Report["failed_frac"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	res.Report["live_heap_mb"] = metric{oc.heapMB, "MB"}
	return res
}

// printTable writes the stamp and every metric, with its unit, to
// standard error.
func printTable(res *result) {
	st, _ := json.Marshal(res.Stamp)
	fmt.Fprintf(os.Stderr, "e2ebench %s seed=%d trace=%v stamp=%s\n", res.Workload, res.Seed, res.Trace, st)
	if res.Check != "" {
		fmt.Fprintf(os.Stderr, "  %s\n", res.Check)
	}
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	show := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "  %s:\n", title)
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "    %-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
	show("workload metrics", res.Report)
	show("benchmark metrics", res.Metrics)
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// clock times the timed phase. Work done off the clock (correctness
// checks, heap readings) is excluded from both the phase length and
// the op rate.
type clock struct {
	start  time.Time
	paused time.Duration
	limit  time.Duration
	maxOps int
	// The live heap is read before every heapEvery-th op up to heapUntil,
	// at the same ops in every run, and the highest reading is reported.
	// Caches fill as a run goes on, so a reading at the end would make a
	// slower run look leaner; and the heap swings by a factor of four
	// with what the last solves left in the evaluator pools, so single
	// readings and their median vary from run to run where the peak
	// repeats.
	heapEvery, heapUntil int
	heap                 float64
	read                 bool
}

func startClock(cfg runConfig, heapEvery, heapUntil int) *clock {
	return &clock{start: time.Now(), limit: cfg.seconds, maxOps: cfg.maxOps, heapEvery: heapEvery, heapUntil: heapUntil}
}

// running reports whether op number ops should start.
func (c *clock) running(ops int) bool {
	if c.maxOps > 0 {
		return ops < c.maxOps
	}
	return c.elapsed() < c.limit
}

func (c *clock) elapsed() time.Duration { return time.Since(c.start) - c.paused }

// tick reads the live heap, off the clock, when op is due for a
// reading; call it before every op.
func (c *clock) tick(op int) {
	if op > 0 && op <= c.heapUntil && op%c.heapEvery == 0 {
		c.off(func() error { c.heap, c.read = max(c.heap, heapMB()), true; return nil })
	}
}

// liveHeap returns the highest heap reading, reading it now if the run
// stopped before the first one was due.
func (c *clock) liveHeap() float64 {
	if !c.read {
		return heapMB()
	}
	return c.heap
}

// off runs f off the clock.
func (c *clock) off(f func() error) error {
	t := time.Now()
	err := f()
	c.paused += time.Since(t)
	return err
}

// setupRuns boots a workload's environment reps times, tearing down
// all but the last, and returns it with each boot's wall time in
// seconds. Every boot starts from the same seed, so the kept one is
// the same as the others.
func setupRuns[E any](reps int, boot func() (E, error), teardown func(E)) (E, []float64, error) {
	var env E
	var times []float64
	for i := 0; i < max(reps, 1); i++ {
		if i > 0 {
			teardown(env)
		}
		t := time.Now()
		e, err := boot()
		if err != nil {
			return env, nil, err
		}
		env = e
		times = append(times, time.Since(t).Seconds())
	}
	return env, times, nil
}

// heapMB returns the live heap after full collections; the second one
// also frees what sync.Pools kept through the first.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// deck deals the indexes 0..n-1 in a fresh shuffled order each round.
type deck struct {
	n    int
	left []int
}

func (d *deck) deal(rng *rand.Rand) int {
	if len(d.left) == 0 {
		d.left = rng.Perm(d.n)
	}
	i := d.left[0]
	d.left = d.left[1:]
	return i
}

// opLog hashes the generated op sequence.
type opLog struct{ h hash.Hash64 }

func newOpLog() *opLog { return &opLog{h: fnv.New64a()} }

func (l *opLog) add(format string, args ...any) { fmt.Fprintf(l.h, format+"\n", args...) }

func (l *opLog) sum() uint64 { return l.h.Sum64() }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics; 0 for no
// samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
