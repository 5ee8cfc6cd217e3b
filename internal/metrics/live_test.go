package metrics

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fabricsim/internal/simtest"
	"fabricsim/internal/types"
)

// TestSummarizeConcurrentWithCallbacks hammers Summarize (and the other
// snapshot readers) while live Committed/Block/PeerCommit callbacks keep
// arriving — the mid-run scrape pattern the obs server introduces. Run
// under -race this pins the copy-under-lock discipline of Records(),
// Blocks(), CommitStages(), and the inline snapshot sections of
// Summarize.
func TestSummarizeConcurrentWithCallbacks(t *testing.T) {
	c := NewCollector()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer: the transaction lifecycle
		defer wg.Done()
		base := time.Now()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := types.TxID(fmt.Sprintf("tx%d", i))
			at := base.Add(time.Duration(i) * time.Microsecond)
			c.Submitted(id, at)
			c.Attempt(id, 1+i%3)
			c.Endorsed(id, at.Add(time.Millisecond))
			c.BroadcastAcked(id, at.Add(2*time.Millisecond))
			c.Ordered(id, at.Add(3*time.Millisecond))
			code := types.ValidationValid
			if i%7 == 0 {
				code = types.ValidationMVCCConflict
			}
			c.Committed(id, at.Add(4*time.Millisecond), code)
			if i%5 == 0 {
				c.Block(BlockEvent{Number: uint64(i / 5), Channel: "ch1", CutAt: at, Txs: 5})
				c.CommitStage(CommitStageEvent{Number: uint64(i / 5), Channel: "ch1",
					Txs: 5, Groups: 5, VSCC: time.Millisecond, Apply: time.Millisecond,
					Append: time.Millisecond, CommittedAt: at.Add(4 * time.Millisecond)})
				c.PeerCommit(2*time.Millisecond, at.Add(4*time.Millisecond))
				c.GossipBlock("gossip", 2)
			}
			if i%11 == 0 {
				c.Rejected(types.TxID(fmt.Sprintf("rej%d", i)))
				c.Endorse("peer1", time.Millisecond)
			}
		}
	}()

	for g := 0; g < 4; g++ { // readers: summaries and snapshots mid-run
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sum := c.Summarize(SummaryOptions{TimeScale: 1})
				_ = sum.PhaseLatency
				for _, r := range c.Records() {
					_ = r.Attempt
				}
				_ = c.Blocks()
				_ = c.CommitStages()
				_ = c.Live()
			}
		}()
	}

	stopSampler := c.StartSampler(time.Millisecond)
	// Let the sampler race the writer and readers until it has recorded
	// a sample.
	if !simtest.Until(10*time.Second, func() bool { _, ok := c.LatestSample(); return ok }) {
		t.Error("sampler recorded no sample")
	}
	stopSampler()
	close(stop)
	wg.Wait()
}

func TestLiveCounters(t *testing.T) {
	c := NewCollector()
	base := time.Now()
	c.Submitted("a", base)
	c.Submitted("b", base)
	c.Submitted("c", base)
	if live := c.Live(); live.Submitted != 3 || live.InFlight != 3 {
		t.Fatalf("after submit: %+v", live)
	}
	c.Committed("a", base.Add(time.Second), types.ValidationValid)
	c.Committed("b", base.Add(time.Second), types.ValidationMVCCConflict)
	c.Rejected("c")
	c.Block(BlockEvent{Number: 1, CutAt: base, Txs: 2})
	live := c.Live()
	if live.Committed != 1 || live.Aborted != 1 || live.Rejected != 1 {
		t.Fatalf("counters: %+v", live)
	}
	if live.InFlight != 0 {
		t.Fatalf("in-flight = %d, want 0", live.InFlight)
	}
	if live.Blocks != 1 {
		t.Fatalf("blocks = %d", live.Blocks)
	}
	// Double events must not double-count.
	c.Committed("a", base.Add(time.Second), types.ValidationValid)
	c.Rejected("c")
	if got := c.Live(); got.Committed != 1 || got.Rejected != 1 || got.InFlight != 0 {
		t.Fatalf("idempotence: %+v", got)
	}
}

func TestSamplerWindows(t *testing.T) {
	c := NewCollector()
	stop := c.StartSampler(5 * time.Millisecond)
	defer stop()
	base := time.Now()
	for i := 0; i < 40; i++ {
		id := types.TxID(fmt.Sprintf("tx%d", i))
		c.Submitted(id, base)
		code := types.ValidationValid
		if i%4 == 0 {
			code = types.ValidationMVCCConflict
		}
		c.Committed(id, base, code)
		c.PeerCommit(10*time.Millisecond, base)
		time.Sleep(time.Millisecond)
	}
	if !simtest.Until(time.Second, func() bool { return len(c.Samples()) >= 2 }) {
		t.Fatal("sampler produced no samples")
	}
	var sawTPS, sawLag, sawAbort bool
	for _, p := range c.Samples() {
		if p.TPS > 0 {
			sawTPS = true
		}
		if p.CommitLag > 0 {
			sawLag = true
		}
		if p.AbortRate > 0 {
			sawAbort = true
		}
	}
	if !sawTPS || !sawLag || !sawAbort {
		t.Fatalf("series missing signals: tps=%v lag=%v abort=%v", sawTPS, sawLag, sawAbort)
	}
}

// TestPhaseLatencyPartition checks the decomposition invariant the
// critical-path analyzer relies on: the four phases partition each
// transaction's end-to-end latency, so their averages sum to the
// end-to-end average over a uniform cohort.
func TestPhaseLatencyPartition(t *testing.T) {
	c := NewCollector()
	base := time.Now()
	for i := 0; i < 100; i++ {
		id := types.TxID(fmt.Sprintf("tx%d", i))
		at := base.Add(time.Duration(i) * 10 * time.Millisecond)
		c.Submitted(id, at)
		c.Endorsed(id, at.Add(5*time.Millisecond))
		c.BroadcastAcked(id, at.Add(7*time.Millisecond))
		c.Ordered(id, at.Add(57*time.Millisecond))
		c.Committed(id, at.Add(80*time.Millisecond), types.ValidationValid)
	}
	sum := c.Summarize(SummaryOptions{TimeScale: 1})
	var phaseSum time.Duration
	for _, k := range PhaseOrdering() {
		st, ok := sum.PhaseLatency[k]
		if !ok {
			t.Fatalf("missing phase %q", k)
		}
		phaseSum += st.Avg
	}
	diff := phaseSum - sum.TotalLatency.Avg
	if diff < 0 {
		diff = -diff
	}
	if diff > sum.TotalLatency.Avg/20 {
		t.Fatalf("phase sum %s vs total %s (>5%%)", phaseSum, sum.TotalLatency.Avg)
	}
	if sum.PhaseLatency[PhaseOrder].P50 < 40*time.Millisecond {
		t.Fatalf("order phase p50 = %s, want ~50ms", sum.PhaseLatency[PhaseOrder].P50)
	}
}

func TestRetriedFinalAttemptLatency(t *testing.T) {
	c := NewCollector()
	base := time.Now()
	// 20 first-attempt commits at 100ms; 10 attempt-2 commits whose own
	// records span 100ms even though the logical invoke took longer.
	for i := 0; i < 20; i++ {
		id := types.TxID(fmt.Sprintf("a%d", i))
		at := base.Add(time.Duration(i) * 10 * time.Millisecond)
		c.Submitted(id, at)
		c.Attempt(id, 1)
		c.Committed(id, at.Add(100*time.Millisecond), types.ValidationValid)
	}
	for i := 0; i < 10; i++ {
		id := types.TxID(fmt.Sprintf("r%d", i))
		at := base.Add(time.Duration(i) * 20 * time.Millisecond)
		c.Submitted(id, at)
		c.Attempt(id, 2)
		c.Committed(id, at.Add(100*time.Millisecond), types.ValidationValid)
	}
	sum := c.Summarize(SummaryOptions{
		TimeScale:   1,
		WindowStart: base.Add(-time.Second),
		WindowEnd:   base.Add(10 * time.Second),
	})
	if sum.RetriedTxs != 10 {
		t.Fatalf("RetriedTxs = %d, want 10", sum.RetriedTxs)
	}
	if sum.FinalAttemptLatency.Count != 10 {
		t.Fatalf("FinalAttemptLatency.Count = %d", sum.FinalAttemptLatency.Count)
	}
	got := sum.FinalAttemptLatency.Avg
	if got < 95*time.Millisecond || got > 105*time.Millisecond {
		t.Fatalf("final-attempt avg = %s, want ~100ms", got)
	}
}
