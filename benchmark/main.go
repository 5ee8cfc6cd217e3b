// Command benchmark is the repository's fixed measuring instrument. It
// builds complete fabnet networks, drives them from outside with its
// own seeded load generators, checks the program's outputs, and prints
// every metric by name with its unit: model-time capacity and latency,
// host cost per transaction, and — in a separate traced run — per-layer
// numbers. See README.md in this directory.
//
//	go run ./benchmark                      every workload, untraced then traced
//	go run ./benchmark -workload or_solo -trace 0 -seed 7 -seconds 20
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"fabricsim/internal/fabnet"
	"fabricsim/internal/metrics"
	"fabricsim/internal/trace"
)

// scratchRoot holds everything a run writes: file-backed storage of the
// durable workload, replay ledgers, and the span file. It is relative to
// the working directory so a run never writes outside its checkout.
const scratchRoot = ".bench_build"

// Host-validity limits: beyond either, the host and not the cost model
// set the timings, and model-time numbers would be corrupt.
//
// The lateness limit is twice the 50 model-ms the issue proposed. On
// this two-core box a clean run reads 5-45: one 5-10 ms wall stall
// (both Ps running idle GC mark workers, or every peer committing the
// same 100-transaction block at once) makes every arrival due inside it
// late together. About one run in fifteen also meets a 30-250 ms stall
// of the whole box, which reads 100-900 and visibly lifts that run's
// commit_latency_p99_s; the guard rejects exactly those, and the run is
// measured again (hostBoundAttempts).
const (
	maxCPUShare        = 0.60  // of all cores, within one phase
	maxLatenessModelMS = 100.0 // open-loop generator lateness, p99
)

// maxPaperErrPct is how far committed_tps may sit from the paper's
// reference capacity on the two paper workloads.
const maxPaperErrPct = 10.0

// setupReps is how many times an untraced run sets the network up; the
// median is reported and the last network carries the load.
const setupReps = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly the contract's keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a -results file: a result and which run made it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func main() {
	workloadName := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "seed for generated keys, operations and accounts")
	seconds := flag.Int("seconds", 20, "wall seconds one run measures")
	traceMode := flag.Int("trace", -1, "0: untraced end-to-end run, 1: traced per-layer run (default: both)")
	out := flag.String("out", "", "span file of the traced run (default "+scratchRoot+"/spans-<workload>.jsonl)")
	results := flag.String("results", "", "append each run's result line to this file, for -compare")
	compare := flag.Bool("compare", false, "compare two -results files given as arguments against the bounds in BENCHMARK.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare a.jsonl b.jsonl")
		}
		ok, err := compareFiles(os.Stdout, specFile, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments %v", flag.Args())
	}
	if *seconds < 4 {
		fatal("-seconds %d is too short to measure anything", *seconds)
	}

	selected := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fatal("unknown workload %q", *workloadName)
		}
		selected = []workload{w}
	}
	modes := []int{0, 1}
	if *traceMode == 0 || *traceMode == 1 {
		modes = []int{*traceMode}
	} else if *traceMode != -1 {
		fatal("-trace must be 0 or 1")
	}
	if *out != "" && (len(selected) > 1 || modes[len(modes)-1] != 1) {
		fatal("-out names the span file of one traced run: give -workload and -trace 1 with it")
	}

	contract, err := readSpec(specFile)
	if err != nil {
		fatal("%v (run from the repository root)", err)
	}
	allCorrect := true
	for _, w := range selected {
		for _, mode := range modes {
			res, err := runOne(w, *seed, time.Duration(*seconds)*time.Second, mode, *out)
			if err != nil {
				fatal("%s: %v", w.name, err)
			}
			listed := contract.EndToEnd
			if mode == 1 {
				listed = contract.PerLayer
			}
			if err := checkMetrics(listed, res.Metrics); err != nil {
				fatal("%v", err)
			}
			if *results != "" {
				if err := appendJSON(*results, record{w.name, *seed, mode, *res}); err != nil {
					fatal("%v", err)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				fatal("%v", err)
			}
			fmt.Println(string(line))
			allCorrect = allCorrect && res.Correct
		}
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// appendJSON appends v to the file as one line of JSON.
func appendJSON(path string, v any) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("results file: %w", err)
	}
	err = json.NewEncoder(f).Encode(v)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("results file: %w", err)
	}
	return nil
}

// hostBoundAttempts is how many times a run is measured before a
// host_bound verdict stands: a stall of the whole box spoils one
// measurement but says nothing about the next.
const hostBoundAttempts = 3

// runOne performs one run of one workload, measuring again when the
// host-validity guard rejects a measurement.
func runOne(w workload, seed int64, length time.Duration, mode int, spanFile string) (*result, error) {
	fmt.Printf("== %s seed=%d trace=%d seconds=%d\n", w.name, seed, mode, int(length.Seconds()))
	if spanFile == "" {
		spanFile = filepath.Join(scratchRoot, "spans-"+w.name+".jsonl")
	}
	var res *result
	var err error
	for attempt := 1; attempt <= hostBoundAttempts; attempt++ {
		if res, err = measure(w, seed, length, mode, spanFile); !errors.Is(err, errHostBound) {
			break
		}
		fmt.Printf("attempt %d of %d: %v\n", attempt, hostBoundAttempts, err)
	}
	if err != nil {
		return nil, err
	}
	for _, name := range sortedMetricNames(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("%-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	return res, nil
}

// measure makes one measurement in its own scratch directory.
func measure(w workload, seed int64, length time.Duration, mode int, spanFile string) (*result, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &run{w: w, seed: seed, dir: dir, res: &result{Correct: true, Metrics: make(map[string]metric)}}
	if mode == 0 {
		err = r.untraced(length)
	} else {
		err = r.traced(length, spanFile)
	}
	if err != nil {
		return nil, err
	}
	return r.res, nil
}

func sortedMetricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run is the state of one run.
type run struct {
	w    workload
	seed int64
	dir  string
	res  *result
	nets int // networks set up so far, for distinct storage directories
}

func (r *run) set(name string, value float64, unit string) {
	r.res.Metrics[name] = metric{Value: value, Unit: unit}
}

// fail marks the run incorrect and says why.
func (r *run) fail(format string, args ...any) {
	r.res.Correct = false
	fmt.Printf("FAIL %s: %s\n", r.w.name, fmt.Sprintf(format, args...))
}

// setup is the benchmark's set-up: build the network, start it, and
// commit one warm-up transaction (which also launches the chaincode
// containers and settles leader election).
func (r *run) setup(tr *trace.Tracer, col *metrics.Collector) (*fabnet.Network, time.Duration, error) {
	r.nets++
	start := time.Now()
	cfg := r.w.config(r.seed, filepath.Join(r.dir, fmt.Sprintf("net%d", r.nets)))
	cfg.Tracer, cfg.Collector = tr, col
	net, err := fabnet.Build(cfg)
	if err != nil {
		return nil, 0, err
	}
	ctx := context.Background()
	if err := net.Start(ctx); err != nil {
		net.Stop()
		return nil, 0, err
	}
	warm := newGenerator(r.w, r.seed, -1).next()
	if _, err := net.Gateways[0].Invoke(ctx, "", warm.chaincode, warm.fn, warm.args); err != nil {
		net.Stop()
		return nil, 0, fmt.Errorf("warm-up transaction: %w", err)
	}
	return net, time.Since(start), nil
}

func (r *run) generators(net *fabnet.Network) []*generator {
	gens := make([]*generator, len(net.Gateways))
	for i := range gens {
		gens[i] = newGenerator(r.w, r.seed, i)
	}
	return gens
}

// cohort is the transactions one phase measures.
type cohort struct {
	attempted int
	valid     int
	latencies []float64 // model seconds due -> commit, valid commits
	retried   int       // valid after more than one attempt (staged lanes only)
}

// closedCohort counts the transactions that resolved inside the window.
func (r *run) closedCohort(p *phaseResult) cohort {
	var c cohort
	for _, t := range p.results {
		if p.inWindow(t.done) {
			r.count(&c, t)
		}
	}
	return c
}

// openCohort counts the arrivals that were due inside the window.
func (r *run) openCohort(p *phaseResult) cohort {
	var c cohort
	for _, t := range p.results {
		if p.inWindow(t.due) {
			r.count(&c, t)
		}
	}
	return c
}

func (r *run) count(c *cohort, t txResult) {
	c.attempted++
	r.res.Attempted++
	if !r.w.allowed(t.kind) {
		r.res.Failed++
		if r.res.Failed <= 3 { // enough to diagnose, never a flood
			fmt.Printf("failed transaction %s: %v\n", t.txID, t.err)
		}
	}
	if t.kind != outcomeValid {
		return
	}
	c.valid++
	c.latencies = append(c.latencies, modelSeconds(dueLatency(t.due, t.done)))
	if t.attempts > 1 {
		c.retried++
	}
}

func (c cohort) tps(p *phaseResult) float64 {
	return float64(c.valid) / modelSeconds(p.wall())
}

// latenessP99 is the open-loop generators' lateness in model ms.
func latenessP99(p *phaseResult) float64 {
	late := make([]float64, len(p.lateness))
	for i, d := range p.lateness {
		late[i] = 1000 * modelSeconds(d)
	}
	sort.Float64s(late)
	return percentile(late, 99)
}

var errHostBound = errors.New("host_bound")

// hostBound is the host-validity guard: it returns errHostBound when
// the host, not the cost model, set the pace of a phase. Such a
// measurement reports no metrics at all, since its model-time numbers
// are corrupt.
func hostBound(phase string, p *phaseResult) error {
	if share := p.cpuShare(); share > maxCPUShare {
		return fmt.Errorf("%w: %s phase used %.0f%% of the host's %d cores (limit %.0f%%)",
			errHostBound, phase, 100*share, runtime.NumCPU(), 100*maxCPUShare)
	}
	if late := latenessP99(p); late > maxLatenessModelMS {
		return fmt.Errorf("%w: %s generators ran %.1f model-ms late at p99 (limit %.0f)",
			errHostBound, phase, late, maxLatenessModelMS)
	}
	return nil
}

// paperErrPct compares committed_tps with the paper's capacity.
func (r *run) paperErrPct(tps float64) float64 {
	if r.w.referenceTPS == 0 {
		return 0
	}
	errPct := 100 * math.Abs(tps-r.w.referenceTPS) / r.w.referenceTPS
	if errPct > maxPaperErrPct {
		r.fail("committed_tps %.1f is %.1f%% from the paper's %.0f (limit %.0f%%)", tps, errPct, r.w.referenceTPS, maxPaperErrPct)
	}
	return errPct
}

// verify runs the output checks against everything the phases saw.
func (r *run) verify(net *fabnet.Network, phases ...*phaseResult) {
	var seen []txResult
	for _, p := range phases {
		seen = append(seen, p.results...)
	}
	for _, problem := range verifyOutputs(net, seen) {
		r.fail("%s", problem)
	}
}

// untraced is the end-to-end run: tracing and metrics collection off,
// a closed-loop phase for capacity and host cost, then an open-loop
// phase at a fixed rate for latency and the failure share.
func (r *run) untraced(length time.Duration) error {
	var net *fabnet.Network
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if net != nil {
			net.Stop()
		}
		var took time.Duration
		var err error
		if net, took, err = r.setup(nil, nil); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	defer net.Stop()

	ctx := context.Background()
	lanes, gens := asyncLanes(net), r.generators(net)
	phase := length / 2
	closed := closedLoop(ctx, lanes, gens, r.w.window, phase, phase/4)
	open := openLoop(ctx, lanes, gens, r.w.openRate, phase, phase/4)
	if err := hostBound("closed-loop", closed); err != nil {
		return err
	}
	if err := hostBound("open-loop", open); err != nil {
		return err
	}
	r.verify(net, closed, open)

	cc, oc := r.closedCohort(closed), r.openCohort(open)
	if cc.valid == 0 || oc.valid == 0 {
		return fmt.Errorf("no valid commits (closed %d, open %d)", cc.valid, oc.valid)
	}
	tps := cc.tps(closed)
	r.paperErrPct(tps)
	lat := reduceLatencies(oc.latencies)
	perTx := func(delta float64) float64 { return delta / float64(cc.valid) }

	r.set("committed_tps", tps, "1/s")
	r.set("commit_latency_p50_s", lat.p50, "s")
	r.set("commit_latency_p99_s", lat.tail, "s")
	r.set("success_share", float64(oc.valid)/float64(oc.attempted), "share")
	r.set("host_alloc_kb_per_tx", perTx(float64(closed.after.allocBytes-closed.before.allocBytes)/1024), "KiB")
	r.set("host_allocs_per_tx", perTx(float64(closed.after.mallocs-closed.before.mallocs)), "count")
	r.set("setup_s", median(setups), "s")

	fmt.Printf("closed loop: %d clients x window %d, %.1f model-s measured, %d valid of %d resolved, cpu %.0f%% of %d cores\n",
		len(lanes), r.w.window, modelSeconds(closed.wall()), cc.valid, cc.attempted, 100*closed.cpuShare(), runtime.NumCPU())
	fmt.Printf("open loop: %.0f tps offered, %.1f model-s measured, %d valid of %d due, latency samples n=%d (tail is p%d), generator lateness p99 %.2f model-ms, cpu %.0f%%\n",
		r.w.openRate, modelSeconds(open.wall()), oc.valid, oc.attempted, lat.n, lat.tailPct, latenessP99(open), 100*open.cpuShare())
	fmt.Printf("failed_share %.4f (1 - success_share); host cpu %.0f us/tx (not gated, see README); set-up times %v s\n",
		1-float64(oc.valid)/float64(oc.attempted), perTx(float64((closed.after.cpu - closed.before.cpu).Microseconds())), setups)
	return nil
}
