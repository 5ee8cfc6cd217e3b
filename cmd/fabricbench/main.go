// Command fabricbench regenerates the paper's evaluation artifacts
// (Figs. 2-8, Tables II-III) on the emulated Fabric network.
//
// Usage:
//
//	fabricbench -experiment all            # everything, paper-sized sweeps
//	fabricbench -experiment fig2 -quick    # one artifact, trimmed sweep
//	fabricbench -experiment pipeline       # in-flight window sweep (gateway API)
//	fabricbench -experiment commit         # committer pool x pipeline depth sweep
//	fabricbench -experiment dissemination  # direct-deliver vs gossip egress sweep
//	fabricbench -list                      # show available experiments
//
// Experiments that read the same sweep (fig2..fig7, table2 and table3)
// are measured once per invocation and print different columns of the
// same runs. The -scale flag compresses model time (0.25 = 4x faster
// than the paper's wall clock); reported numbers are always in model
// time and therefore directly comparable with the paper.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fabricsim/internal/bench"
	"fabricsim/internal/metrics"
	"fabricsim/internal/obs"
	"fabricsim/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		experiment = flag.String("experiment", "all", "experiment id (fig2..fig8, table2, table3) or 'all'")
		scale      = flag.Float64("scale", 0, fmt.Sprintf("time-compression factor (1.0 = real time; default %v)", bench.DefaultScale))
		duration   = flag.Duration("duration", 0, "model-time load duration per data point (default 12s, quick 6s)")
		quick      = flag.Bool("quick", false, "trimmed sweeps for smoke runs")
		txSize     = flag.Int("txsize", 1, "transaction value size in bytes")
		seed       = flag.Int64("seed", 1, "workload random seed")
		jsonDir    = flag.String("json", "", "directory for machine-readable BENCH_<id>.json output (empty = disabled)")
		obsAddr    = flag.String("obs", "", "observability HTTP listen address (e.g. :6060): live /metrics for the point being measured, /traces/<txid>, /debug/pprof; enables span tracing")
		list       = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		fmt.Print(bench.Describe())
		return 0
	}

	opt := bench.Options{
		Scale:    *scale,
		Duration: *duration,
		Quick:    *quick,
		TxSize:   *txSize,
		Seed:     *seed,
		JSONDir:  *jsonDir,
	}
	if *obsAddr != "" {
		opt.Tracer = trace.New(0)
		srv, err := obs.Start(obs.Config{
			Addr:      *obsAddr,
			Tracer:    opt.Tracer,
			TimeScale: cmp.Or(*scale, bench.DefaultScale),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fabricbench:", err)
			return 1
		}
		defer srv.Stop()
		// Each experiment point builds a fresh collector; re-point the
		// server (and the windowed sampler) at the live one.
		var stopSampler func()
		opt.OnCollector = func(c *metrics.Collector) {
			if stopSampler != nil {
				stopSampler()
			}
			stopSampler = c.StartSampler(time.Second)
			srv.SetCollector(c)
		}
		defer func() {
			if stopSampler != nil {
				stopSampler()
			}
		}()
		fmt.Printf("observability: http://%s/{metrics,traces,debug/pprof}\n", srv.Addr())
	}

	var exps []bench.Experiment
	if *experiment == "all" {
		exps = bench.All()
	} else {
		for _, id := range strings.Split(*experiment, ",") {
			e, ok := bench.Get(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "fabricbench: unknown experiment %q\navailable:\n%s", id, bench.Describe())
				return 2
			}
			exps = append(exps, e)
		}
	}

	start := time.Now()
	fmt.Printf("seed=%d (re-run with -seed %d to replay workloads and fault schedules)\n", *seed, *seed)
	if err := bench.Run(context.Background(), exps, opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fabricbench:", err)
		return 1
	}
	fmt.Printf("\nall experiments done in %s\n", time.Since(start).Round(time.Millisecond))
	return 0
}
