package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"fabricsim/internal/metrics"
	"fabricsim/internal/trace"
)

// traceCapacity is the tracer's retention: every transaction of a run
// must still be there when the run ends.
const traceCapacity = 1 << 17

// traced is the per-layer run. It drives the staged gateway API so the
// benchmark can put its own span around every call, in three equal
// parts: a closed-loop reference with nothing recording, then a closed
// loop and an open loop on a second network with the program's tracer
// and metrics collector attached. The difference in host cost between
// the two closed loops is the tracing overhead. Model-time layer
// metrics are read over the open loop's window (a fixed offered rate,
// like the end-to-end latency metrics); afterwards the committed chain
// is replayed through each layer's hot function for the host-time ones.
func (r *run) traced(length time.Duration, spanFile string) error {
	ctx := context.Background()
	phase := length / 3

	ref, _, err := r.setup(nil, nil)
	if err != nil {
		return err
	}
	refClosed := closedLoop(ctx, stagedLanes(ref, r.w, nil), r.generators(ref), r.w.window, phase, phase/4)
	r.verify(ref, refClosed)
	ref.Stop()
	if err := hostBound("reference closed-loop", refClosed); err != nil {
		return err
	}
	refCohort := r.closedCohort(refClosed)

	tracer, collector, recorder := trace.New(traceCapacity), metrics.NewCollector(), &spanRecorder{}
	net, _, err := r.setup(tracer, collector)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			net.Stop()
		}
	}()
	lanes, gens := stagedLanes(net, r.w, recorder), r.generators(net)
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
	if refCohort.valid == 0 || cc.valid == 0 || oc.valid == 0 {
		return fmt.Errorf("no valid commits (reference %d, closed %d, open %d)", refCohort.valid, cc.valid, oc.valid)
	}
	summarize := func() metrics.Summary {
		return collector.Summarize(metrics.SummaryOptions{
			TimeScale:   timeScale,
			WindowStart: open.before.at,
			WindowEnd:   open.after.at,
		})
	}
	sum := summarize()
	blocks, err := chain(net, 0)
	if err != nil {
		return err
	}
	_, egressBytes := net.OrdererEgress()
	spans := mergeProgramSpans(recorder, tracer)
	identity := net.MSP
	net.Stop()
	stopped = true

	// Spans of the open-loop cohort: transactions whose root span
	// started inside the open loop's window.
	inCohort := make(map[string]bool)
	transactions := 0
	for _, s := range spans {
		if s.Name != spanTx {
			continue
		}
		transactions++
		if open.inWindow(s.Start) {
			inCohort[s.Tx] = true
		}
	}
	durations, selves := spanSelfTimes(spans, func(tx string) bool { return inCohort[tx] })
	p50 := func(values []float64) float64 { return reduceLatencies(values).p50 }

	share := func(part, whole int) float64 {
		if whole == 0 {
			return 0
		}
		return float64(part) / float64(whole)
	}
	chainTxs := 0
	for _, b := range blocks {
		chainTxs += len(b.Data)
	}
	// The collector reports aborts as counts and as one combined rate
	// over the window's block transactions; split the rate by count.
	abortShare := func(aborts int) float64 {
		return sum.AbortRate * share(aborts, sum.MVCCAborts+sum.EarlyAborts)
	}

	// gateway: the benchmark's own spans around the staged calls.
	endorse := reduceLatencies(durations[spanEndorse])
	r.set("gateway.endorse_p50_s", endorse.p50, "s")
	r.set("gateway.endorse_p99_s", endorse.tail, "s")
	r.set("gateway.endorse_self_p50_s", p50(selves[spanEndorse]), "s")
	r.set("gateway.submit_p50_s", p50(durations[spanSubmit]), "s")
	r.set("gateway.status_self_p50_s", p50(selves[spanStatus]), "s")
	r.set("gateway.retried_tx_share", share(oc.retried, oc.valid), "share")
	r.set("gateway.broadcast_failovers", float64(sum.BroadcastFailovers), "count")
	r.set("gateway.failed_share", 1-share(oc.valid, oc.attempted), "share")
	// peer, execute phase.
	r.set("peer.endorse_rtt_p99_s", sum.EndorseLatency.P99.Seconds(), "s")
	r.set("peer.endorse_skew", sum.EndorseSkew, "ratio")
	// orderer and its consensus substrate.
	order := sum.PhaseLatency[metrics.PhaseOrder]
	r.set("orderer.order_p50_s", order.P50.Seconds(), "s")
	r.set("orderer.order_p99_s", order.P99.Seconds(), "s")
	r.set("orderer.txs_per_block", sum.AvgBlockSize, "count")
	r.set("orderer.block_time_s", sum.BlockTime.Seconds(), "s")
	r.set("orderer.early_abort_share", abortShare(sum.EarlyAborts), "share")
	r.set("orderer.egress_bytes_per_tx", share(int(egressBytes), chainTxs), "B")
	r.set("raft.consensus_p50_s", p50(durations[trace.SpanRaftConsensus]), "s")
	// peer, validate phase.
	validate := sum.PhaseLatency[metrics.PhaseValidate]
	r.set("peer.validate_p50_s", validate.P50.Seconds(), "s")
	r.set("peer.validate_p99_s", validate.P99.Seconds(), "s")
	r.set("peer.vscc_stage_s", sum.VSCCStage.P50.Seconds(), "s")
	r.set("peer.apply_stage_s", sum.ApplyStage.P50.Seconds(), "s")
	r.set("peer.append_stage_s", sum.AppendStage.P50.Seconds(), "s")
	r.set("peer.mvcc_abort_share", abortShare(sum.MVCCAborts), "share")
	r.set("peer.wasted_validate_cpu_s", sum.WastedValidateCPU.Seconds(), "s")
	r.set("peer.conflict_groups_per_block", sum.AvgConflictGroups, "count")
	// gossip.
	r.set("gossip.mean_hops", sum.MeanGossipHops, "count")
	r.set("gossip.commit_lag_p99_s", sum.CommitLag.P99.Seconds(), "s")
	r.set("gossip.duplicate_share", share(sum.GossipDuplicates, sum.GossipDuplicates+sum.GossipBlocks), "share")
	r.set("gossip.antientropy_blocks", float64(sum.AntiEntropyBlocks), "count")
	// costmodel: distance from the paper's capacity, traced closed loop.
	r.set("costmodel.paper_err_pct", r.paperErrPct(cc.tps(closed)), "%")

	// Host time, layer by layer, on the chain the traced run committed.
	replayed, err := replayLayers(blocks, identity, r.dir, func() { summarize() })
	if err != nil {
		return err
	}
	for name, m := range replayed {
		r.res.Metrics[name] = m
	}

	cpuPerTx := func(p *phaseResult, c cohort) float64 {
		return float64((p.after.cpu - p.before.cpu).Microseconds()) / float64(c.valid)
	}
	refCPU, tracedCPU := cpuPerTx(refClosed, refCohort), cpuPerTx(closed, cc)
	r.set("bench.generator_lateness_p99_ms", latenessP99(open), "ms")
	r.set("bench.tracing_overhead_pct", 100*(tracedCPU-refCPU)/refCPU, "%")
	r.set("host.cpu_us_per_tx", refCPU, "us")
	r.set("host.gc_pause_ms", float64((closed.after.gcPause-closed.before.gcPause+open.after.gcPause-open.before.gcPause).Microseconds())/1000, "ms")
	r.set("host.goroutines_peak", float64(max(closed.goroutinesPeak, open.goroutinesPeak)), "count")

	fmt.Printf("reference closed loop: %.1f tps, %.0f us/tx; traced closed loop: %.1f tps, %.0f us/tx; open loop %d valid of %d due\n",
		refCohort.tps(refClosed), refCPU, cc.tps(closed), tracedCPU, oc.valid, oc.attempted)
	printSpanTable(durations, selves)
	if err := writeSpans(spanFile, spans); err != nil {
		return err
	}
	fmt.Printf("%d spans of %d transactions written to %s\n", len(spans), transactions, spanFile)
	return nil
}

// printSpanTable prints, per span name, the count, median duration and
// median self time over the open-loop cohort, in model seconds.
func printSpanTable(durations, selves map[string][]float64) {
	names := make([]string, 0, len(durations))
	for n := range durations {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-22s %8s %12s %12s   (open-loop cohort, model seconds)\n", "span", "n", "p50", "self p50")
	for _, n := range names {
		fmt.Printf("%-22s %8d %12.4f %12.4f\n", n, len(durations[n]), median(durations[n]), median(selves[n]))
	}
}
