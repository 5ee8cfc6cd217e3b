package metrics

import (
	"fmt"
	"testing"
	"time"

	"fabricsim/internal/types"
)

// record inserts a full life-cycle record with the given offsets from a
// base time.
func record(c *Collector, id string, base time.Time, submit, endorse, order, commit time.Duration, code types.ValidationCode) {
	txid := types.TxID(id)
	c.Submitted(txid, base.Add(submit))
	c.Endorsed(txid, base.Add(endorse))
	c.BroadcastAcked(txid, base.Add(endorse))
	c.Ordered(txid, base.Add(order))
	c.Committed(txid, base.Add(commit), code)
}

func TestSummarizeBasics(t *testing.T) {
	c := NewCollector()
	base := time.Now()
	// 100 txs submitted over 10s (scale 1), each committing 500ms later.
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		record(c, fmt.Sprintf("t%d", i), base, at, at+100*time.Millisecond, at+300*time.Millisecond, at+500*time.Millisecond, types.ValidationValid)
	}
	s := c.Summarize(SummaryOptions{TimeScale: 1.0})
	if s.Offered == 0 || s.Committed == 0 {
		t.Fatalf("empty summary: %+v", s)
	}
	// ~10 tps submission -> throughput near 10.
	if s.ValidateTPS < 8 || s.ValidateTPS > 12 {
		t.Errorf("ValidateTPS = %.1f, want ~10", s.ValidateTPS)
	}
	if got := s.TotalLatency.Avg; got < 450*time.Millisecond || got > 550*time.Millisecond {
		t.Errorf("total latency = %s, want ~500ms", got)
	}
	if got := s.ExecuteLatency.Avg; got < 90*time.Millisecond || got > 110*time.Millisecond {
		t.Errorf("execute latency = %s, want ~100ms", got)
	}
	if got := s.ValidateLatency.Avg; got < 190*time.Millisecond || got > 210*time.Millisecond {
		t.Errorf("validate latency = %s, want ~200ms", got)
	}
}

func TestSummarizeTimeScale(t *testing.T) {
	c := NewCollector()
	base := time.Now()
	// Wall 50ms latency at scale 0.1 => 500ms model latency.
	for i := 0; i < 50; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		record(c, fmt.Sprintf("t%d", i), base, at, at+10*time.Millisecond, at+30*time.Millisecond, at+50*time.Millisecond, types.ValidationValid)
	}
	s := c.Summarize(SummaryOptions{TimeScale: 0.1})
	if got := s.TotalLatency.Avg; got < 450*time.Millisecond || got > 550*time.Millisecond {
		t.Errorf("unscaled latency = %s, want ~500ms", got)
	}
	// Wall 100 tps at scale 0.1 => 10 model tps.
	if s.ValidateTPS < 8 || s.ValidateTPS > 12 {
		t.Errorf("ValidateTPS = %.1f, want ~10", s.ValidateTPS)
	}
}

func TestSummarizeInvalidAndRejected(t *testing.T) {
	c := NewCollector()
	base := time.Now()
	for i := 0; i < 30; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		code := types.ValidationValid
		if i%3 == 0 {
			code = types.ValidationMVCCConflict
		}
		record(c, fmt.Sprintf("t%d", i), base, at, at+time.Millisecond, at+2*time.Millisecond, at+3*time.Millisecond, code)
	}
	rej := types.TxID("rejected-1")
	c.Submitted(rej, base.Add(150*time.Millisecond))
	c.Rejected(rej)

	s := c.Summarize(SummaryOptions{TimeScale: 1.0, RejectLatency: 3 * time.Second})
	if s.Invalid == 0 {
		t.Error("invalid txs not counted")
	}
	if s.RejectedCount != 1 {
		t.Errorf("rejected = %d", s.RejectedCount)
	}
	// The rejected tx contributes its 3s cap to total latency.
	if s.TotalLatency.Max < 3*time.Second {
		t.Errorf("max latency = %s, reject cap not applied", s.TotalLatency.Max)
	}
}

func TestBlockTime(t *testing.T) {
	c := NewCollector()
	base := time.Now()
	for i := 0; i < 60; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		record(c, fmt.Sprintf("t%d", i), base, at, at, at, at, types.ValidationValid)
	}
	for i := 0; i < 6; i++ {
		c.Block(BlockEvent{Number: uint64(i + 1), CutAt: base.Add(time.Duration(i) * 100 * time.Millisecond), Txs: 10})
	}
	s := c.Summarize(SummaryOptions{TimeScale: 1.0})
	if s.Blocks < 2 {
		t.Fatalf("blocks in window = %d", s.Blocks)
	}
	if s.BlockTime < 90*time.Millisecond || s.BlockTime > 110*time.Millisecond {
		t.Errorf("block time = %s, want ~100ms", s.BlockTime)
	}
	if s.AvgBlockSize != 10 {
		t.Errorf("avg block size = %.1f", s.AvgBlockSize)
	}
	if s.BlockTPS < 90 || s.BlockTPS > 110 {
		t.Errorf("block tps = %.1f, want ~100", s.BlockTPS)
	}
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector()
	s := c.Summarize(SummaryOptions{TimeScale: 1.0})
	if s.Offered != 0 || s.ValidateTPS != 0 {
		t.Errorf("non-zero summary from empty collector: %+v", s)
	}
}

// TestNilCollectorRecordsNothing calls every recording method on a nil
// Collector, as node code does when metrics are disabled: none may panic.
func TestNilCollectorRecordsNothing(t *testing.T) {
	var c *Collector
	now := time.Now()
	record(c, "tx", now, 0, 1, 2, 3, types.ValidationValid)
	c.Attempt("tx", 2)
	c.Rejected("tx")
	c.Block(BlockEvent{Number: 1})
	c.Endorse("p0", time.Millisecond)
	c.CommitStage(CommitStageEvent{Number: 1})
	c.GossipBlock(SourceGossip, 1)
	c.GossipDuplicate()
	c.AntiEntropyPull(2)
	c.LeaderElection()
	c.SnapshotBootstrap()
	c.BroadcastFailover()
	c.PeerCommit(time.Millisecond, now)
}

func TestLatencyStatsPercentiles(t *testing.T) {
	lats := make([]time.Duration, 0, 100)
	for i := 1; i <= 100; i++ {
		lats = append(lats, time.Duration(i)*time.Millisecond)
	}
	st := reduceLatency(lats)
	if st.Count != 100 {
		t.Errorf("count = %d", st.Count)
	}
	if st.P50 < 49*time.Millisecond || st.P50 > 51*time.Millisecond {
		t.Errorf("p50 = %s", st.P50)
	}
	if st.P95 < 94*time.Millisecond || st.P95 > 97*time.Millisecond {
		t.Errorf("p95 = %s", st.P95)
	}
	if st.P99 < 98*time.Millisecond || st.P99 > 100*time.Millisecond {
		t.Errorf("p99 = %s", st.P99)
	}
	if st.Max != 100*time.Millisecond {
		t.Errorf("max = %s", st.Max)
	}
	if st.Avg != 50500*time.Microsecond {
		t.Errorf("avg = %s", st.Avg)
	}
}

func TestRecordsSnapshot(t *testing.T) {
	c := NewCollector()
	c.Submitted("a", time.Now())
	recs := c.Records()
	if len(recs) != 1 || recs[0].ID != "a" {
		t.Errorf("records = %+v", recs)
	}
	// Snapshot must be a copy.
	recs[0].ID = "mutated"
	if c.Records()[0].ID != "a" {
		t.Error("snapshot aliased internal state")
	}
}

func TestBlocksSorted(t *testing.T) {
	c := NewCollector()
	c.Block(BlockEvent{Number: 3})
	c.Block(BlockEvent{Number: 1})
	c.Block(BlockEvent{Number: 2})
	bs := c.Blocks()
	for i := 1; i < len(bs); i++ {
		if bs[i].Number < bs[i-1].Number {
			t.Fatal("blocks not sorted")
		}
	}
}

// TestBlockTPSExcludesFirstBlock is the regression for the block-TPS
// overcount: n in-window blocks span only n-1 inter-block intervals, so
// the first block's transactions must not count toward the rate. With
// an outsized first block the old avg-size/block-time formula read an
// order of magnitude high.
func TestBlockTPSExcludesFirstBlock(t *testing.T) {
	c := NewCollector()
	base := time.Now()
	// Submissions spanning 10s so the trimmed window [1.5s, 8.5s] holds
	// all three blocks.
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		record(c, fmt.Sprintf("t%d", i), base, at, at, at, at, types.ValidationValid)
	}
	c.Block(BlockEvent{Number: 1, CutAt: base.Add(3 * time.Second), Txs: 300})
	c.Block(BlockEvent{Number: 2, CutAt: base.Add(4 * time.Second), Txs: 10})
	c.Block(BlockEvent{Number: 3, CutAt: base.Add(5 * time.Second), Txs: 10})
	s := c.Summarize(SummaryOptions{TimeScale: 1.0})
	if s.Blocks != 3 {
		t.Fatalf("blocks in window = %d, want 3", s.Blocks)
	}
	// 20 txs committed over the 2s span between block 1 and block 3.
	if s.BlockTPS < 9 || s.BlockTPS > 11 {
		t.Errorf("block tps = %.1f, want ~10 (first block's 300 txs excluded)", s.BlockTPS)
	}
	if s.BlockTime < 990*time.Millisecond || s.BlockTime > 1010*time.Millisecond {
		t.Errorf("block time = %s, want ~1s", s.BlockTime)
	}
}

func TestCommitStageBreakdown(t *testing.T) {
	c := NewCollector()
	base := time.Now()
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		record(c, fmt.Sprintf("t%d", i), base, at, at, at, at, types.ValidationValid)
	}
	// Two blocks inside the window, one far outside it.
	for i, at := range []time.Duration{3 * time.Second, 4 * time.Second, time.Hour} {
		c.CommitStage(CommitStageEvent{
			Number:      uint64(i + 1),
			Txs:         100,
			Groups:      50,
			VSCC:        60 * time.Millisecond,
			Apply:       250 * time.Millisecond,
			Append:      15 * time.Millisecond,
			CommittedAt: base.Add(at),
		})
	}
	s := c.Summarize(SummaryOptions{TimeScale: 1.0})
	if s.VSCCStage.Count != 2 {
		t.Fatalf("in-window stage samples = %d, want 2", s.VSCCStage.Count)
	}
	if s.VSCCStage.Avg != 60*time.Millisecond || s.ApplyStage.Avg != 250*time.Millisecond || s.AppendStage.Avg != 15*time.Millisecond {
		t.Errorf("stage avgs = %s/%s/%s", s.VSCCStage.Avg, s.ApplyStage.Avg, s.AppendStage.Avg)
	}
	if s.AvgConflictGroups != 50 {
		t.Errorf("avg groups = %.1f, want 50", s.AvgConflictGroups)
	}
	if got := c.CommitStages(); len(got) != 3 {
		t.Errorf("CommitStages snapshot = %d events, want 3", len(got))
	}
}

func TestCommitStageAbortAccounting(t *testing.T) {
	c := NewCollector()
	base := time.Now()
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		record(c, fmt.Sprintf("t%d", i), base, at, at, at, at, types.ValidationValid)
	}
	// Two in-window blocks with conflict aborts; one outside the window
	// that must not count.
	for i, at := range []time.Duration{3 * time.Second, 4 * time.Second, time.Hour} {
		c.CommitStage(CommitStageEvent{
			Number:         uint64(i + 1),
			Txs:            100,
			MVCCAborts:     8,
			EarlyAborts:    2,
			WastedValidate: 4 * time.Millisecond,
			CommittedAt:    base.Add(at),
		})
	}
	s := c.Summarize(SummaryOptions{TimeScale: 1.0})
	if s.MVCCAborts != 16 || s.EarlyAborts != 4 {
		t.Errorf("aborts = %d mvcc %d early, want 16/4", s.MVCCAborts, s.EarlyAborts)
	}
	// 20 aborts over 200 in-window block txs.
	if s.AbortRate < 0.099 || s.AbortRate > 0.101 {
		t.Errorf("abort rate = %.3f, want 0.10", s.AbortRate)
	}
	if s.WastedValidateCPU != 8*time.Millisecond {
		t.Errorf("wasted validate = %s, want 8ms", s.WastedValidateCPU)
	}
}

// TestEndorseBreakdown checks the per-peer endorsement statistics: the
// in-window sample count, model-time latency percentiles (p99
// included), the per-peer counts, and the max/mean balance skew.
func TestEndorseBreakdown(t *testing.T) {
	c := NewCollector()
	base := time.Now()
	// Anchor the measurement window around now: submissions span
	// [-10s, +2s], so after the 15% trim the window still contains the
	// samples Endorse stamps with the current time.
	c.Submitted("tx-a", base.Add(-10*time.Second))
	c.Submitted("tx-b", base.Add(2*time.Second))
	// 3 endorsements on peer1, 1 on peer2. Latencies are wall-clock at
	// TimeScale 0.5, so 50ms wall = 100ms model.
	for i := 0; i < 3; i++ {
		c.Endorse("peer1", 50*time.Millisecond)
	}
	c.Endorse("peer2", 150*time.Millisecond)

	sum := c.Summarize(SummaryOptions{TimeScale: 0.5})
	if sum.Endorsements != 4 {
		t.Fatalf("Endorsements = %d, want 4", sum.Endorsements)
	}
	if got := sum.EndorsesPerPeer["peer1"]; got != 3 {
		t.Errorf("peer1 endorsements = %d, want 3", got)
	}
	if got := sum.EndorsesPerPeer["peer2"]; got != 1 {
		t.Errorf("peer2 endorsements = %d, want 1", got)
	}
	// max/mean = 3 / ((3+1)/2) = 1.5
	if sum.EndorseSkew < 1.49 || sum.EndorseSkew > 1.51 {
		t.Errorf("EndorseSkew = %f, want 1.5", sum.EndorseSkew)
	}
	if sum.EndorseLatency.P50 != 100*time.Millisecond {
		t.Errorf("endorse p50 = %s, want 100ms (model time)", sum.EndorseLatency.P50)
	}
	if sum.EndorseLatency.P99 < sum.EndorseLatency.P50 {
		t.Errorf("endorse p99 = %s below p50 %s", sum.EndorseLatency.P99, sum.EndorseLatency.P50)
	}
	if sum.EndorseLatency.Max != 300*time.Millisecond {
		t.Errorf("endorse max = %s, want 300ms", sum.EndorseLatency.Max)
	}
}

// TestGossipAndCommitLagSummary checks the dissemination reductions:
// source counting, mean hop count, duplicate and election counters, and the
// windowed cluster-wide commit-lag distribution.
func TestGossipAndCommitLagSummary(t *testing.T) {
	c := NewCollector()
	base := time.Now()
	// Anchor the measurement window with submissions 10s apart.
	c.Submitted("tx1", base)
	c.Submitted("tx2", base.Add(10*time.Second))

	c.GossipBlock("deliver", 0)
	c.GossipBlock("gossip", 1)
	c.GossipBlock("gossip", 3)
	c.GossipDuplicate()
	c.GossipDuplicate()
	c.AntiEntropyPull(5)
	c.LeaderElection()

	mid := base.Add(5 * time.Second) // inside the trimmed window
	c.PeerCommit(100*time.Millisecond, mid)
	c.PeerCommit(300*time.Millisecond, mid)
	c.PeerCommit(time.Hour, base) // outside the window: excluded

	s := c.Summarize(SummaryOptions{TimeScale: 1})
	if s.GossipBlocks != 2 || s.DeliverBlocks != 1 {
		t.Errorf("gossip/deliver blocks = %d/%d, want 2/1", s.GossipBlocks, s.DeliverBlocks)
	}
	if s.MeanGossipHops != 2.0 {
		t.Errorf("mean hops = %v, want 2.0", s.MeanGossipHops)
	}
	if s.GossipDuplicates != 2 || s.AntiEntropyBlocks != 5 {
		t.Errorf("dups/pulled = %d/%d, want 2/5", s.GossipDuplicates, s.AntiEntropyBlocks)
	}
	if s.LeaderElections != 1 {
		t.Errorf("elections = %d, want 1", s.LeaderElections)
	}
	if s.CommitLag.Count != 2 {
		t.Fatalf("commit-lag samples = %d, want 2 (out-of-window excluded)", s.CommitLag.Count)
	}
	if s.CommitLag.Avg != 200*time.Millisecond {
		t.Errorf("commit-lag avg = %v, want 200ms", s.CommitLag.Avg)
	}
	if s.CommitLag.Max != 300*time.Millisecond {
		t.Errorf("commit-lag max = %v, want 300ms", s.CommitLag.Max)
	}
}
