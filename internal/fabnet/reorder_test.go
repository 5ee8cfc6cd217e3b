package fabnet

import (
	"context"
	"testing"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/gateway"
	"fabricsim/internal/metrics"
	"fabricsim/internal/policy"
	"fabricsim/internal/types"
	"fabricsim/internal/workload"
)

// runContended drives a hot-key read-modify-write load through a fresh
// network and returns it, once its peers agree, with its summary.
func runContended(t *testing.T, cfg Config, wl workload.Config) (*Network, metrics.Summary) {
	t.Helper()
	col := metrics.NewCollector()
	cfg.Collector = col
	n := buildAndStart(t, cfg)
	stats, err := workload.Run(context.Background(), n.Gateways, wl)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	if stats.Succeeded == 0 {
		t.Fatalf("no transactions committed (submitted=%d failed=%d)", stats.Submitted, stats.Failed)
	}
	waitAgree(t, n.Peers, 5*time.Second)
	return n, col.Summarize(metrics.SummaryOptions{TimeScale: cfg.Model.TimeScale})
}

// TestReorderCrossPeerAgreement turns conflict-aware ordering on under
// a contended read-modify-write load and checks the network-wide
// invariants: every peer commits the same reordered chain and identical
// state, reordered blocks are tagged, and early-aborted transactions
// carry EARLY_ABORT_CONFLICT at the block tail.
func TestReorderCrossPeerAgreement(t *testing.T) {
	model := costmodel.Default(0.1)
	n, sum := runContended(t, Config{
		Orderer:           Solo,
		NumEndorsingPeers: 3,
		Policy:            policy.OrOverPeers(3),
		Model:             model,
		Reorder:           true,
	}, workload.Config{
		Rate:     120,
		Duration: 3 * time.Second,
		Model:    model,
		Fn:       "readwrite",
		KeySpace: 2,
		Seed:     5,
	})

	// The contended load must have produced reordered blocks; any
	// early-aborted transactions sit at the tail with the dedicated
	// flag and are counted by the recorder peer.
	l := n.Peers[0].Ledger()
	sawReordered := false
	earlyFlags := 0
	for num := uint64(1); num < l.Height(); num++ {
		b, err := l.GetBlock(num)
		if err != nil {
			t.Fatalf("block %d: %v", num, err)
		}
		if !b.Metadata.Reordered {
			t.Errorf("block %d not tagged Reordered with the knob on", num)
			continue
		}
		sawReordered = true
		flags := b.Metadata.ValidationFlags
		for i, f := range flags {
			if f == types.ValidationEarlyAbort {
				earlyFlags++
				if i < len(flags)-b.Metadata.EarlyAborted {
					t.Errorf("block %d: early abort at %d, outside the %d-tx tail", num, i, b.Metadata.EarlyAborted)
				}
			}
		}
	}
	if !sawReordered {
		t.Error("no reordered blocks committed")
	}
	if earlyFlags == 0 {
		t.Error("contended RMW load produced no early aborts")
	}
	// The summary windows to steady state, so it sees at most the
	// ledger-wide count — but the recorder must have fed it something.
	if sum.EarlyAborts == 0 || sum.EarlyAborts > earlyFlags {
		t.Errorf("summary early aborts = %d, ledger has %d", sum.EarlyAborts, earlyFlags)
	}
	if sum.AbortRate < 0 || sum.AbortRate > 1 {
		t.Errorf("abort rate = %.3f out of range", sum.AbortRate)
	}
}

// TestReorderOffPreservesLegacyBlocks is the equivalence guard: with
// the knob off, blocks carry no reorder metadata, no transaction is
// ever EARLY_ABORT_CONFLICT-flagged, and peers agree byte for byte on a
// mixed contended workload — exactly the pre-reorder committer.
func TestReorderOffPreservesLegacyBlocks(t *testing.T) {
	model := costmodel.Default(0.1)
	n, sum := runContended(t, Config{
		Orderer:           Solo,
		NumEndorsingPeers: 3,
		Policy:            policy.OrOverPeers(3),
		Model:             model,
	}, workload.Config{
		Rate:     120,
		Duration: 3 * time.Second,
		Model:    model,
		Fn:       "readwrite",
		KeySpace: 2,
		Seed:     5,
	})
	l := n.Peers[0].Ledger()
	mvccFlags := 0
	for num := uint64(1); num < l.Height(); num++ {
		b, err := l.GetBlock(num)
		if err != nil {
			t.Fatalf("block %d: %v", num, err)
		}
		if b.Metadata.Reordered || b.Metadata.EarlyAborted != 0 {
			t.Errorf("block %d carries reorder metadata with the knob off", num)
		}
		for _, f := range b.Metadata.ValidationFlags {
			switch f {
			case types.ValidationEarlyAbort:
				t.Errorf("block %d has an early abort with the knob off", num)
			case types.ValidationMVCCConflict:
				mvccFlags++
			}
		}
	}
	if sum.EarlyAborts != 0 {
		t.Errorf("summary early aborts = %d with the knob off", sum.EarlyAborts)
	}
	// The contended readwrite load must still produce MVCC conflicts.
	// The summary windows to steady state, so it sees at most the
	// ledger-wide count.
	if mvccFlags == 0 {
		t.Error("contended run committed no MVCC aborts")
	}
	if sum.MVCCAborts > mvccFlags {
		t.Errorf("summary MVCC aborts = %d, ledger has %d", sum.MVCCAborts, mvccFlags)
	}
	if sum.MVCCAborts > 0 && sum.WastedValidateCPU <= 0 {
		t.Error("MVCC aborts recorded but no wasted validate CPU")
	}
}

// TestReorderRaftClusterDeterminism runs conflict-aware ordering under
// Raft with three OSNs: every OSN applies the reorder pass
// independently at emitBatch, so a non-deterministic pass would fork
// the peers' chains. runContended's cross-peer agreement is the
// determinism proof.
func TestReorderRaftClusterDeterminism(t *testing.T) {
	model := costmodel.Default(0.1)
	runContended(t, Config{
		Orderer:           Raft,
		NumOrderers:       3,
		NumEndorsingPeers: 3,
		Policy:            policy.OrOverPeers(3),
		Model:             model,
		Reorder:           true,
	}, workload.Config{
		Rate:     100,
		Duration: 3 * time.Second,
		Model:    model,
		Fn:       "readwrite",
		KeySpace: 2,
		Seed:     9,
	})
}

// TestReorderWithRetryRecoversConflicts stacks the gateway retry loop
// on top of conflict-aware ordering: clients re-endorse and resubmit
// conflict-aborted transactions, so the SmallBank hot-account mix still
// makes end-to-end progress.
func TestReorderWithRetryRecoversConflicts(t *testing.T) {
	model := costmodel.Default(0.1)
	_, sum := runContended(t, Config{
		Orderer:           Solo,
		NumEndorsingPeers: 3,
		Policy:            policy.OrOverPeers(3),
		Model:             model,
		Reorder:           true,
		Retry: gateway.RetryConfig{
			MaxAttempts:    3,
			InitialBackoff: 20 * time.Millisecond,
			Jitter:         0.2,
			Seed:           1,
		},
	}, workload.Config{
		Rate:     100,
		Duration: 3 * time.Second,
		Model:    model,
		Profile:  workload.ProfileSmallBank,
		KeySpace: 4, // few hot accounts -> heavy RMW contention
		ZipfS:    1.5,
		Seed:     7,
	})
	if sum.Committed == 0 {
		t.Error("no committed transactions in the summary window")
	}
}
