package fabnet

import (
	"context"
	"math"
	"testing"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/metrics"
	"fabricsim/internal/orderer"
	"fabricsim/internal/policy"
	"fabricsim/internal/trace"
)

// TestTracePropagationOrderers drives one transaction through each
// ordering service and asserts the trace carries every lifecycle
// layer's spans: the four gateway boundary phases, the endorser's
// execute span, the serving OSN's ingress and batch-residency spans,
// the commit-stage spans from the trace peer, and — under Raft — the
// leader's consensus span. It also cross-checks the critical-path total
// against the metrics collector's independently-measured end-to-end
// latency.
func TestTracePropagationOrderers(t *testing.T) {
	for _, ot := range []OrdererType{Solo, Kafka, Raft} {
		t.Run(string(ot), func(t *testing.T) {
			tr := trace.New(0)
			col := metrics.NewCollector()
			model := costmodel.Default(0.1)
			n := buildAndStart(t, Config{
				Orderer:           ot,
				NumOrderers:       3,
				NumEndorsingPeers: 2,
				Policy:            policy.AndOverPeers(2),
				Model:             model,
				Collector:         col,
				Tracer:            tr,
			})
			ctx := context.Background()
			res, err := n.Gateways[0].Invoke(ctx, "", ChaincodeBench, "write",
				[][]byte{[]byte("traced"), []byte("v")})
			if err != nil {
				t.Fatalf("invoke: %v", err)
			}

			id, ok := tr.Lookup(string(res.TxID))
			if !ok {
				t.Fatalf("no trace bound to committed tx %s", res.TxID)
			}
			spans := tr.Spans(id)
			byName := make(map[string]int)
			for _, sp := range spans {
				byName[sp.Name]++
			}
			want := []string{
				trace.SpanGatewayPropose,
				trace.SpanGatewayEndorse,
				trace.SpanGatewaySubmit,
				trace.SpanGatewayCommitWait,
				trace.SpanEndorserExecute,
				trace.SpanOrdererIngress,
				trace.SpanOrdererResidency,
				trace.SpanCommitVSCC,
				trace.SpanCommitApply,
				trace.SpanCommitAppend,
			}
			if ot == Raft {
				want = append(want, trace.SpanRaftConsensus)
			}
			for _, name := range want {
				if byName[name] == 0 {
					t.Errorf("%s: span %s missing (have %v)", ot, name, byName)
				}
			}
			// AND policy endorses on both orgs: two execute spans.
			if got := byName[trace.SpanEndorserExecute]; got != 2 {
				t.Errorf("%s: endorser.execute spans = %d, want 2", ot, got)
			}
			// The residency span must not be duplicated across OSNs — only
			// the broadcast-serving one records it.
			if got := byName[trace.SpanOrdererResidency]; got != 1 {
				t.Errorf("%s: orderer.residency spans = %d, want 1", ot, got)
			}

			cp, ok := tr.CriticalPath(id)
			if !ok {
				t.Fatalf("%s: no critical path", ot)
			}
			// The collector times the same transaction independently
			// (submit → commit, model time); the trace's end-to-end extent
			// must agree within 5%.
			sum := col.Summarize(metrics.SummaryOptions{TimeScale: model.TimeScale})
			if sum.TotalLatency.Count != 1 {
				t.Fatalf("%s: collector saw %d committed txs, want 1", ot, sum.TotalLatency.Count)
			}
			wall := sum.TotalLatency.Avg.Seconds() * model.TimeScale
			if wall <= 0 {
				t.Fatalf("%s: collector total latency is zero", ot)
			}
			if diff := math.Abs(cp.Total.Seconds()-wall) / wall; diff > 0.05 {
				t.Errorf("%s: critical-path total %.4fs vs collector %.4fs — off by %.1f%%",
					ot, cp.Total.Seconds(), wall, diff*100)
			}
		})
	}
}

// TestTraceGossipDeliveredCommit runs the gossip dissemination path with
// tracing on: the trace peer records a dissemination origin for every
// block it commits, and its commit.append spans carry the origin label.
// When the org's deliver leader is some other replica, the trace peer's
// blocks must arrive via gossip push or anti-entropy, not direct
// deliver.
func TestTraceGossipDeliveredCommit(t *testing.T) {
	tr := trace.New(0)
	cfg := gossipTestConfig(1, 3, metrics.NewCollector())
	cfg.Tracer = tr
	n := buildAndStart(t, cfg)
	leader := orgLeader(t, n.Peers, 5*time.Second)
	invokeN(t, n, "g", 8)
	waitAgree(t, n.Peers, 10*time.Second)

	tracePeer := n.Peers[0]
	ch := orderer.DefaultChannel
	height := tracePeer.Ledger().Height()
	sources := make(map[string]int)
	for num := uint64(1); num < height; num++ {
		source, hops, ok := tr.OriginOf(ch, num)
		if !ok {
			t.Errorf("block %d: no dissemination origin recorded", num)
			continue
		}
		sources[source]++
		// Only a gossip push travels a hop; deliver and anti-entropy
		// arrive with hops 0.
		if source == metrics.SourceGossip && hops < 1 {
			t.Errorf("block %d: source %s with hops=%d", num, source, hops)
		}
	}
	t.Logf("leader=%s tracePeer=%s origins=%v", leader.ID(), tracePeer.ID(), sources)
	if leader.ID() != tracePeer.ID() {
		if sources[metrics.SourceGossip]+sources[metrics.SourceAntiEntropy] == 0 {
			t.Errorf("trace peer is not the deliver leader yet saw no gossip-delivered blocks: %v", sources)
		}
	}

	// Every commit.append span on the trace peer names its block's
	// origin.
	appendSpans, originAttrs := 0, 0
	for _, id := range tr.TraceIDs() {
		for _, sp := range tr.Spans(id) {
			if sp.Name != trace.SpanCommitAppend {
				continue
			}
			appendSpans++
			if sp.Attrs["origin"] != "" {
				originAttrs++
			}
		}
	}
	if appendSpans == 0 {
		t.Fatal("no commit.append spans recorded")
	}
	if originAttrs == 0 {
		t.Errorf("none of %d commit.append spans carry an origin attr", appendSpans)
	}
}
