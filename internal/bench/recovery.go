package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/fabnet"
	"fabricsim/internal/ledger"
	"fabricsim/internal/metrics"
	"fabricsim/internal/peer"
	"fabricsim/internal/policy"
)

// Recovery-sweep configuration. The storage-engine work (pluggable
// block store / state DB, checkpoints, snapshot transfer) changes how
// a peer that lost its process — or its whole disk — gets back to the
// cluster tip. This sweep measures that directly: commit H blocks,
// restart one replica under each recovery regime, and time how long it
// takes to converge back to the cluster's tip and state hash.
//
//   - replay:     mem backend, snapshot transfer disabled. The restarted
//     peer is empty and re-pulls and re-commits every block through the
//     pipeline — wall time grows linearly with H.
//   - checkpoint: file backend. The restarted peer reopens its own disk:
//     latest checkpoint + block-store tail replay, then it is already at
//     (or within a checkpoint interval of) the tip — flat in H.
//   - snapshot:   mem backend (disk lost), snapshot transfer enabled.
//     The empty peer fetches a chunked ledger snapshot from a live
//     replica and pulls only the tail — flat in H.
const (
	recoveryOrgs     = 2
	recoveryReplicas = 2
	// recoveryInterval is both the file-backend checkpoint cadence and
	// the gossip snapshot-then-tail threshold, so every sweep height is
	// several intervals deep.
	recoveryInterval = 16
	// recoveryScale compresses model time harder than the default bench
	// scale: the sweep drives blocks one invoke at a time (BatchSize 1),
	// so per-transaction cost dominates the setup phase.
	recoveryScale = 0.05
)

// RecoveryPoint is one recovery measurement: restart one replica after
// Blocks committed blocks under Mode and time its way back to the tip.
// With only Mode and Blocks set it is the sweep point that measures the
// rest.
type RecoveryPoint struct {
	Mode               string // "replay" | "checkpoint" | "snapshot"
	Blocks             int
	StartHeight        uint64
	TipHeight          uint64
	RecoverySeconds    float64
	Persistent         bool
	SnapshotBootstraps int
}

// recoveryStorage is the storage configuration of each mode; the
// file-backed checkpoint mode also gets a temporary Dir.
var recoveryStorage = map[string]fabnet.StorageConfig{
	// -1 isolates the reopen path.
	"checkpoint": {Backend: "file", CheckpointInterval: recoveryInterval, SnapshotThreshold: -1},
	"snapshot":   {Backend: "mem", SnapshotThreshold: recoveryInterval},
	// -1 leaves anti-entropy block pulls only.
	"replay": {Backend: "mem", SnapshotThreshold: -1},
}

// measure commits r.Blocks blocks, restarts the last replica, and times
// its convergence back to the cluster tip and state hash.
func (r RecoveryPoint) measure(ctx context.Context, _ Options) (Point, error) {
	storage := recoveryStorage[r.Mode]
	if storage.Backend == "file" {
		dir, err := os.MkdirTemp("", "bench-recovery-")
		if err != nil {
			return Point{}, fmt.Errorf("bench: %w", err)
		}
		defer os.RemoveAll(dir)
		storage.Dir = dir
	}
	model := costmodel.Default(recoveryScale)
	col := metrics.NewCollector()
	cfg := fabnet.Config{
		Orderer:           fabnet.Solo,
		NumEndorsingPeers: recoveryOrgs,
		EndorsersPerOrg:   recoveryReplicas,
		Policy:            policy.OrOverPeers(recoveryOrgs),
		Model:             model,
		Collector:         col,
		BatchSize:         1, // one invoke = one block, so `blocks` is exact
		Gossip: fabnet.GossipConfig{
			Enabled:             true,
			Fanout:              2,
			AntiEntropyInterval: 100 * time.Millisecond,
			LeaderLease:         600 * time.Millisecond,
		},
		Storage: storage,
	}
	net, err := fabnet.Build(cfg)
	if err != nil {
		return Point{}, fmt.Errorf("bench: %w", err)
	}
	defer net.Stop()
	if err := net.Start(ctx); err != nil {
		return Point{}, fmt.Errorf("bench: %w", err)
	}

	// Commit the target chain one block per invoke.
	gw := net.Gateways[0]
	for i := 0; i < r.Blocks; i++ {
		key := []byte(fmt.Sprintf("rec%d", i))
		if _, err := gw.Invoke(ctx, "", fabnet.ChaincodeBench, "write", [][]byte{key, []byte("v")}); err != nil {
			return Point{}, fmt.Errorf("bench: invoke %d: %w", i, err)
		}
	}
	if err := waitAgree(net.Peers, 30*time.Second); err != nil {
		return Point{}, fmt.Errorf("bench: pre-restart convergence: %w", err)
	}
	ref := net.Peers[0]
	r.TipHeight = ref.Ledger().Height()

	// Restart the last replica (never a client event peer) and time the
	// road back to the tip. The clock covers RestartPeer itself so the
	// file backend's reopen — checkpoint load + block-tail replay — is
	// charged to the recovery, exactly like replayed or transferred
	// blocks are in the other modes.
	target := net.Peers[len(net.Peers)-1]
	start := time.Now()
	res, err := net.RestartPeer(ctx, target.ID())
	if err != nil {
		return Point{}, fmt.Errorf("bench: restart: %w", err)
	}
	// The height the new incarnation was rebuilt at: by now it is
	// already catching up, so its live height would overstate it.
	r.StartHeight, r.Persistent = res.StartHeights[net.Cfg.ChannelID], res.Persistent
	if err := waitAgree([]*peer.Peer{ref, res.Peer}, 60*time.Second); err != nil {
		return Point{}, fmt.Errorf("bench: mode=%s blocks=%d: %w", r.Mode, r.Blocks, err)
	}
	r.RecoverySeconds = time.Since(start).Seconds()
	r.SnapshotBootstraps = col.Summarize(metrics.SummaryOptions{TimeScale: model.TimeScale}).SnapshotBootstraps
	return Point{Recovery: r}, nil
}

// waitAgree polls until the peers' ledgers agree (ledger.Agree): one
// height, tip and state, and a verified chain.
func waitAgree(peers []*peer.Peer, d time.Duration) error {
	ls := make([]*ledger.Ledger, len(peers))
	var err error
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		for i, p := range peers {
			ls[i] = p.Ledger()
		}
		if err = ledger.Agree(ls...); err == nil {
			return nil
		}
	}
	return fmt.Errorf("peers did not agree within %s: %w", d, err)
}

// figRecovery measures wall-clock peer recovery time versus chain
// length under the three recovery regimes. Genesis replay should grow
// linearly with the chain; checkpoint reopen and snapshot transfer
// should stay flat (bounded by one checkpoint interval of tail blocks
// and the world-state size, not the chain length).
var figRecovery = Experiment{
	ID:    "recovery",
	Title: "Recovery sweep — Genesis Replay vs. Checkpoint vs. Snapshot Transfer",
	note: fmt.Sprintf("(orderer=solo, orgs=%d x %d replicas, gossip on, batchsize=1, checkpoint/snapshot interval=%d)\n",
		recoveryOrgs, recoveryReplicas, recoveryInterval),
	sweeps: []sweep{{"recovery", func(quick bool) (ms []measurer) {
		for _, mode := range []string{"replay", "checkpoint", "snapshot"} {
			// The committed-block sweep before the restart.
			for _, blocks := range ifElse(quick, []int{30, 60}, []int{50, 100, 200}) {
				ms = append(ms, RecoveryPoint{Mode: mode, Blocks: blocks})
			}
		}
		return ms
	}}},
	tables: []table[Point]{{
		cols: []column[Point]{
			{"mode", "%-12s", "mode", func(p Point) any { return p.Recovery.Mode }},
			{"blocks", "%8d", "blocks", func(p Point) any { return p.Recovery.Blocks }},
			{"start.height", "%12d", "start_height", func(p Point) any { return p.Recovery.StartHeight }},
			{"tip", "%10d", "tip_height", func(p Point) any { return p.Recovery.TipHeight }},
			{"recover(s)", "%12.3f", "recovery_s", func(p Point) any { return p.Recovery.RecoverySeconds }},
			{"persist", "%10v", "persistent", func(p Point) any { return p.Recovery.Persistent }},
			{"snapboots", "%10d", "snapshot_bootstraps", func(p Point) any { return p.Recovery.SnapshotBootstraps }},
		},
		group: func(p Point) string { return "mode=" + p.Recovery.Mode },
	}},
}
