// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation section (Figs. 2-8, Tables
// II-III) by building emulated networks, driving calibrated workloads,
// and printing the same rows/series the paper reports. README.md
// ("Reproducing the paper's experiments") has the experiment index.
package bench

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/fabnet"
	"fabricsim/internal/gateway"
	"fabricsim/internal/metrics"
	"fabricsim/internal/policy"
	"fabricsim/internal/trace"
	"fabricsim/internal/workload"
)

// Options configures a harness run.
type Options struct {
	// Scale is the time-compression factor (default DefaultScale).
	Scale float64
	// Duration is the load duration per data point in model time
	// (default 12s).
	Duration time.Duration
	// Quick trims sweeps for smoke runs and unit benchmarks.
	Quick bool
	// TxSize is the written value size (the paper's 1-byte default) of
	// every point that does not set its own.
	TxSize int
	// Seed fixes workload randomness.
	Seed int64
	// JSONDir, when non-empty, makes experiments whose columns carry
	// JSON keys write a BENCH_<id>.json file there, so the performance
	// trajectory can be tracked across commits.
	JSONDir string
	// Tracer, when non-nil, threads span recording through every network
	// the harness builds (fabricbench -trace / -obs).
	Tracer *trace.Tracer
	// OnCollector is called with each freshly-built metrics collector
	// before the load starts — the obs server re-points its /metrics
	// endpoint at the live run through this hook.
	OnCollector func(*metrics.Collector)
}

// SubSeed derives a stable per-component seed from Options.Seed: one
// -seed flag reproduces every randomized component of a run (workload
// arrivals, chaos schedule, link jitter) without correlating their
// random streams. Equal (seed, component) pairs always map to the same
// sub-seed.
func (o Options) SubSeed(component string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(o.Seed))
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(component))
	return int64(h.Sum64() & (1<<63 - 1))
}

// DefaultScale runs model time 4x faster than the wall clock. Much
// below that the host, not the cost model, caps the overdriven points
// of the ten-peer figures: at 0.1 the 300 tps validate cap of Solo/OR
// reads anywhere from 240 to 290 on a 2-vCPU box.
const DefaultScale = 0.25

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = DefaultScale
	}
	if o.Duration <= 0 {
		o.Duration = 12 * time.Second
		if o.Quick {
			o.Duration = 6 * time.Second
		}
	}
	if o.TxSize <= 0 {
		o.TxSize = 1
	}
	return o
}

// Point is one measured experiment data point.
type Point struct {
	Orderer  fabnet.OrdererType
	Policy   string
	Peers    int
	OSNs     int
	Channels int
	Rate     float64
	Window   int
	Summary  metrics.Summary
	Stats    workload.Stats
	// OrdererEgressBlocks/Bytes total the ordering service's deliver
	// polls and catch-up fetches over the whole run — the dissemination
	// sweep's cost axis (O(peers) direct vs O(orgs) gossip).
	OrdererEgressBlocks uint64
	OrdererEgressBytes  uint64
	// Config is the point's configuration, filled in by the runner so
	// columns can show the swept variable next to what was measured.
	Config PointConfig
	// Recovery and Chaos carry what the recovery sweep and the chaos
	// soak measure instead of a load summary.
	Recovery RecoveryPoint
	Chaos    *ChaosPoint
}

// PointConfig describes one network + load combination.
type PointConfig struct {
	Orderer     fabnet.OrdererType
	OSNs        int
	Brokers     int
	Peers       int
	Policy      policy.Policy
	PolicyLabel string
	Rate        float64
	// Channels shards the network into this many concurrently-ordered
	// channels ("ch1".."chN", all sharing Policy) and spreads the load
	// across them (see workload.Config.Channels). 0 or 1 keeps the
	// classic single channel.
	Channels int
	// Clients overrides the client-process count (0 = one per peer).
	Clients int
	// Window switches the load from the open-loop rate driver to the
	// windowed pipeline: each client keeps Window transactions in
	// flight through gateway.SubmitAsync and Rate is ignored. 0 keeps
	// the open loop.
	Window int
	// Committers sets the committer-pool width (parallel state-apply
	// workers per channel commit pipeline); 0 keeps the model default
	// (1, the serial committer).
	Committers int
	// Depth sets the commit-pipeline depth (blocks in flight per
	// channel); 0 keeps the model default (1, strictly serial).
	Depth int
	// KeySpace confines every transaction's writes to this many hot
	// keys, chaining them into shared conflict groups; 0 writes one
	// fresh key per transaction (the paper's no-contention workload).
	KeySpace int
	// EndorsersPerOrg deploys this many interchangeable endorsing
	// replicas per org (0 = 1, the classic one-peer-per-org topology).
	EndorsersPerOrg int
	// Balancer names the gateway replica-routing strategy
	// ("" = roundrobin).
	Balancer string
	// ChaincodeExec overrides Model.ChaincodeExecCPU when positive —
	// the compute-heavy-contract workloads of the endorse sweep.
	ChaincodeExec time.Duration
	// Perturbed slows the last N endorsing replicas down to
	// fabnet.PerturbedEndorserCores cores (0 = homogeneous hardware).
	Perturbed int
	// Gossip switches block dissemination from per-peer direct deliver
	// to org-leader deliver + push gossip + anti-entropy.
	Gossip bool
	// Reorder enables Fabric++-style conflict-aware ordering: OSNs
	// reorder each cut batch, early-abort read-write cycles, and
	// committers fan state application across true dependency chains.
	Reorder bool
	// Retry turns on the gateways' bounded conflict-retry loop (3
	// attempts, exponential backoff seeded from Options.Seed).
	Retry bool
	// ZipfS skews key popularity with a Zipf(s) draw when > 1
	// (0 keeps the uniform draw).
	ZipfS float64
	// Profile selects a canned workload profile
	// (workload.ProfileSmallBank); "" keeps the KV put/get load.
	Profile string
	// BatchSize and BatchTimeout override the orderer's block-cutting
	// conditions (0 keeps the network defaults, 100 and 1s); TxSize
	// overrides Options.TxSize when positive. The ablations sweep them.
	BatchSize    int
	BatchTimeout time.Duration
	TxSize       int
}

// RunPoint builds the network, applies the load, and reduces metrics.
func RunPoint(ctx context.Context, pc PointConfig, opt Options) (Point, error) {
	opt = opt.withDefaults()
	model := costmodel.Default(opt.Scale)
	if pc.ChaincodeExec > 0 {
		model.ChaincodeExecCPU = pc.ChaincodeExec
	}
	col := metrics.NewCollector()
	if opt.OnCollector != nil {
		opt.OnCollector(col)
	}
	cfg := fabnet.Config{
		Orderer:            pc.Orderer,
		Tracer:             opt.Tracer,
		NumOrderers:        pc.OSNs,
		NumKafkaBrokers:    pc.Brokers,
		NumEndorsingPeers:  pc.Peers,
		EndorsersPerOrg:    pc.EndorsersPerOrg,
		Balancer:           pc.Balancer,
		PerturbedEndorsers: pc.Perturbed,
		NumClients:         pc.Clients,
		Policy:             pc.Policy,
		Model:              model,
		Collector:          col,
		CommitterPool:      pc.Committers,
		CommitDepth:        pc.Depth,
		BatchSize:          pc.BatchSize,
		BatchTimeout:       pc.BatchTimeout,
		Gossip:             fabnet.GossipConfig{Enabled: pc.Gossip},
		Reorder:            pc.Reorder,
		Channels:           pc.Channels,
	}
	if pc.Retry {
		cfg.Retry = gateway.RetryConfig{
			MaxAttempts:    3,
			InitialBackoff: 20 * time.Millisecond,
			Jitter:         0.2,
			Seed:           opt.SubSeed("retry"),
		}
	}
	net, err := fabnet.Build(cfg)
	if err != nil {
		return Point{}, fmt.Errorf("bench: %w", err)
	}
	defer net.Stop()
	if err := net.Start(ctx); err != nil {
		return Point{}, fmt.Errorf("bench: %w", err)
	}
	if pc.TxSize > 0 {
		opt.TxSize = pc.TxSize
	}
	wcfg := workload.Config{
		Rate:     pc.Rate,
		Duration: opt.Duration,
		TxSize:   opt.TxSize,
		Model:    model,
		Seed:     opt.Seed,
		KeySpace: pc.KeySpace,
		ZipfS:    pc.ZipfS,
		Profile:  pc.Profile,
	}
	if pc.Window > 0 {
		wcfg.Mode = workload.Pipeline
		wcfg.Window = pc.Window
		wcfg.Rate = 0
	}
	if pc.Channels > 1 {
		wcfg.Channels = net.ChannelIDs()
	}
	stats, err := workload.Run(ctx, net.Gateways, wcfg)
	if err != nil {
		return Point{}, fmt.Errorf("bench: %w", err)
	}
	sum := col.Summarize(metrics.SummaryOptions{
		TimeScale:     model.TimeScale,
		RejectLatency: model.OrderTimeout,
	})
	channels := pc.Channels
	if channels < 1 {
		channels = 1
	}
	egressBlocks, egressBytes := net.OrdererEgress()
	return Point{
		Orderer:             pc.Orderer,
		Policy:              pc.PolicyLabel,
		Peers:               pc.Peers,
		OSNs:                pc.OSNs,
		Channels:            channels,
		Rate:                pc.Rate,
		Window:              pc.Window,
		Summary:             sum,
		Stats:               stats,
		OrdererEgressBlocks: egressBlocks,
		OrdererEgressBytes:  egressBytes,
	}, nil
}
