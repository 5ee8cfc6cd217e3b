// Command fabricnet runs the full Fabric network over real TCP sockets
// (gob-framed loopback connections, one listener per node) instead of
// the in-memory emulated transport, demonstrating that the node
// implementations are transport-independent and measuring the pipeline
// against a real kernel network path.
//
// Usage:
//
//	fabricnet -orderer raft -osns 3 -peers 3 -rate 50 -duration 10s
//	fabricnet -open-loop=false -inflight 32            # windowed pipeline
//	fabricnet -committers 4 -commit-depth 2            # staged committer
//	fabricnet -gossip -endorsers-per-org 4             # gossip dissemination
//	fabricnet -reorder -retries 3 -keyspace 2 -fn readwrite  # conflict-aware ordering
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/fabnet"
	"fabricsim/internal/gateway"
	"fabricsim/internal/metrics"
	"fabricsim/internal/obs"
	"fabricsim/internal/policy"
	"fabricsim/internal/trace"
	"fabricsim/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		ordererType = flag.String("orderer", "solo", "ordering service: solo | kafka | raft")
		osns        = flag.Int("osns", 3, "ordering service nodes (solo forces 1)")
		peers       = flag.Int("peers", 3, "endorsing organizations (one org principal each)")
		endorsers   = flag.Int("endorsers-per-org", 1, "interchangeable endorsing replicas per org (shared org identity)")
		balancer    = flag.String("balancer", "roundrobin", "endorsement replica balancer: roundrobin | random | p2c | ewma")
		channels    = flag.Int("channels", 1, "concurrently-ordered channels (load is sprayed across them)")
		policyStr   = flag.String("policy", "", "endorsement policy (default OR over all peers)")
		rate        = flag.Float64("rate", 50, "arrival rate, tx/s (model time, open loop)")
		duration    = flag.Duration("duration", 10*time.Second, "load duration (model time)")
		scale       = flag.Float64("scale", 1.0, "time compression factor")
		verify      = flag.Bool("verify", false, "real ECDSA signatures and full verification")
		openLoop    = flag.Bool("open-loop", true, "open-loop load at -rate; false drives a windowed pipeline of -inflight txs per client")
		inflight    = flag.Int("inflight", 0, "in-flight cap per client: open-loop drop threshold (0 = gateway default) or pipeline window (0 = 16)")
		committers  = flag.Int("committers", 0, "committer-pool width: parallel state-apply workers per channel commit pipeline (0 = serial)")
		commitDepth = flag.Int("commit-depth", 0, "commit-pipeline depth: blocks in flight per channel (0 = 1, strictly serial)")
		gossipOn    = flag.Bool("gossip", false, "disseminate blocks via gossip (org-leader deliver, push gossip, anti-entropy) instead of per-peer direct deliver")
		gossipFan   = flag.Int("gossip-fanout", 0, "gossip push fanout per fresh block (0 = 3)")
		antiEntropy = flag.Duration("anti-entropy", 0, "gossip anti-entropy digest interval in model time (0 = 500ms)")
		storage     = flag.String("storage", "mem", "storage backend for peer ledgers and raft OSN hard state: mem | file")
		datadir     = flag.String("datadir", "", "root directory for file-backed ledgers and raft WALs (empty = a fresh temp dir)")
		ckptEvery   = flag.Uint64("checkpoint-interval", 0, "file-backend checkpoint cadence in blocks (0 = ledger default)")
		raftCompact = flag.Int("raft-compact", 0, "raft log compaction threshold in entries (0 = default 128, negative disables)")
		reorder     = flag.Bool("reorder", false, "conflict-aware ordering: reorder each block to minimize MVCC conflicts and early-abort read-write cycles")
		retries     = flag.Int("retries", 0, "gateway conflict-retry attempts (0/1 = disabled; retried txs re-endorse with backoff)")
		keyspace    = flag.Int("keyspace", 0, "confine writes to this many hot keys (0 = fresh key per tx)")
		fn          = flag.String("fn", "", "chaincode function (e.g. readwrite for contended RMW; empty = blind write)")
		obsAddr     = flag.String("obs", "", "observability HTTP listen address (e.g. :6060): /metrics, /traces/<txid>, /healthz, /debug/pprof; enables span tracing")
	)
	flag.Parse()

	model := costmodel.Default(*scale)
	col := metrics.NewCollector()
	var tracer *trace.Tracer
	if *obsAddr != "" {
		tracer = trace.New(0)
	}
	cfg := fabnet.Config{
		Orderer:           fabnet.OrdererType(*ordererType),
		NumOrderers:       *osns,
		NumEndorsingPeers: *peers,
		EndorsersPerOrg:   *endorsers,
		Balancer:          *balancer,
		VerifyCrypto:      *verify,
		Channels:          *channels,
		Model:             model,
		Collector:         col,
		Tracer:            tracer,
		UseTCP:            true,
		CommitterPool:     *committers,
		CommitDepth:       *commitDepth,
		Gossip: fabnet.GossipConfig{
			Enabled:             *gossipOn,
			Fanout:              *gossipFan,
			AntiEntropyInterval: *antiEntropy,
		},
		Storage: fabnet.StorageConfig{
			Backend:            *storage,
			Dir:                *datadir,
			CheckpointInterval: *ckptEvery,
		},
		RaftCompactThreshold: *raftCompact,
		Reorder:              *reorder,
	}
	if *retries > 1 {
		cfg.Retry = gateway.RetryConfig{MaxAttempts: *retries, Jitter: 0.2, Seed: 1}
	}
	if *storage == "file" && *datadir == "" {
		dir, err := os.MkdirTemp("", "fabricnet-ledger-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "fabricnet:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		cfg.Storage.Dir = dir
		fmt.Printf("file-backed ledgers under %s (temp; use -datadir to keep)\n", dir)
	}
	if *policyStr != "" {
		pol, err := policy.Parse(*policyStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fabricnet:", err)
			return 2
		}
		cfg.Policy = pol
	}

	net, err := fabnet.Build(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fabricnet:", err)
		return 1
	}
	defer net.Stop()
	if *obsAddr != "" {
		stopSampler := col.StartSampler(time.Second)
		defer stopSampler()
		srv, err := obs.Start(obs.Config{
			Addr:      *obsAddr,
			Collector: col,
			Tracer:    tracer,
			TimeScale: model.TimeScale,
			Health:    net.Heights,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fabricnet:", err)
			return 1
		}
		defer srv.Stop()
		fmt.Printf("observability: http://%s/{metrics,traces,healthz,debug/pprof}\n", srv.Addr())
	}
	ctx := context.Background()
	if err := net.Start(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "fabricnet:", err)
		return 1
	}
	fmt.Printf("network up over TCP: %d OSN(s) [%s], %d peer(s), %d client(s), %d channel(s)\n",
		len(net.Orderers), cfg.Orderer, len(net.Peers), len(net.Gateways), len(net.ChannelIDs()))

	wcfg := workload.Config{
		Rate:        *rate,
		Duration:    *duration,
		Model:       model,
		Seed:        1,
		MaxInFlight: *inflight,
		KeySpace:    *keyspace,
		Fn:          *fn,
	}
	if !*openLoop {
		wcfg.Mode = workload.Pipeline
		wcfg.Window = *inflight
		if wcfg.Window <= 0 {
			wcfg.Window = 16
		}
		wcfg.Rate = 0
		fmt.Printf("load: windowed pipeline, %d in flight per client\n", wcfg.Window)
	} else {
		fmt.Printf("load: open loop at %.0f tx/s\n", *rate)
	}
	if *channels > 1 {
		wcfg.Channels = net.ChannelIDs()
	}
	stats, err := workload.Run(ctx, net.Gateways, wcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fabricnet:", err)
		return 1
	}
	sum := col.Summarize(metrics.SummaryOptions{
		TimeScale:     model.TimeScale,
		RejectLatency: model.OrderTimeout,
	})
	fmt.Printf("submitted=%d committed=%d failed=%d\n", stats.Submitted, stats.Succeeded, stats.Failed)
	fmt.Printf("throughput: execute=%.1f order=%.1f validate=%.1f tps\n",
		sum.ExecuteTPS, sum.OrderTPS, sum.ValidateTPS)
	fmt.Printf("latency: avg=%.3fs p95=%.3fs   block time: %.3fs (avg %0.1f tx/block)\n",
		sum.TotalLatency.Avg.Seconds(), sum.TotalLatency.P95.Seconds(),
		sum.BlockTime.Seconds(), sum.AvgBlockSize)
	fmt.Printf("critical path (p50/p99 model s):")
	for _, ph := range metrics.PhaseOrdering() {
		st := sum.PhaseLatency[ph]
		fmt.Printf(" %s=%.3f/%.3f", ph, st.P50.Seconds(), st.P99.Seconds())
	}
	fmt.Println()
	if sum.MVCCAborts > 0 || sum.EarlyAborts > 0 {
		fmt.Printf("conflicts: abort-rate=%.2f mvcc=%d early=%d wasted-validate=%s\n",
			sum.AbortRate, sum.MVCCAborts, sum.EarlyAborts,
			sum.WastedValidateCPU.Round(time.Millisecond))
	}
	egressBlocks, egressBytes := net.OrdererEgress()
	fmt.Printf("orderer egress: %d blocks, %.2f MB\n", egressBlocks, float64(egressBytes)/(1<<20))
	if *gossipOn {
		fmt.Printf("gossip: %d blocks via push (%.2f mean hops), %d via anti-entropy, %d duplicates suppressed, %d elections\n",
			sum.GossipBlocks, sum.MeanGossipHops, sum.AntiEntropyBlocks, sum.GossipDuplicates, sum.LeaderElections)
	}
	for _, p := range net.Peers {
		for _, ch := range net.ChannelIDs() {
			l, ok := p.LedgerFor(ch)
			if !ok {
				fmt.Fprintf(os.Stderr, "fabricnet: peer %s: missing channel %s\n", p.ID(), ch)
				return 1
			}
			if err := l.VerifyChain(); err != nil {
				fmt.Fprintf(os.Stderr, "fabricnet: peer %s channel %s: %v\n", p.ID(), ch, err)
				return 1
			}
		}
	}
	fmt.Println("all peer hash chains verified")
	return 0
}
