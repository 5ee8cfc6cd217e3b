package fabnet

import (
	"context"
	"testing"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/metrics"
	"fabricsim/internal/peer"
	"fabricsim/internal/policy"
	"fabricsim/internal/simtest"
)

// followerReplica returns a replica that neither serves client commit
// events (peer 0 does) nor leads its org's delivery. Restarted, it
// rejoins through gossip anti-entropy alone; a restarted leader also
// subscribes to the orderer at once and races anti-entropy with a
// block-by-block catch-up from there, and whichever path closes the gap
// first decides whether a snapshot is ever fetched.
func followerReplica(t *testing.T, n *Network) *peer.Peer {
	t.Helper()
	for i := len(n.Peers) - 1; i > 0; i-- {
		if p := n.Peers[i]; !p.GossipNode().IsLeader(n.Cfg.ChannelID) {
			return p
		}
	}
	t.Fatal("no follower replica to restart")
	return nil
}

// waitSnapshotBootstrap waits until the collector has counted a snapshot
// bootstrap. Gossip reports one only after the snapshot is installed, so
// the peer can read as converged a moment before the count moves; an
// assertion made on convergence alone loses that race on a busy box.
func waitSnapshotBootstrap(t *testing.T, n *Network, col *metrics.Collector, why string) {
	t.Helper()
	if !simtest.Until(5*time.Second, func() bool {
		return col.Summarize(metrics.SummaryOptions{TimeScale: n.Cfg.Model.TimeScale}).SnapshotBootstraps >= 1
	}) {
		t.Errorf("SnapshotBootstraps = 0, want >= 1 (%s)", why)
	}
}

// TestMixedBackendConvergence runs one network where peer1 keeps the
// mem backend and peer2 runs file-backed, drives writes through both,
// and requires the two to land on the identical tip hash and state
// hash — the backends must be observationally equivalent end to end,
// not just under the ledger unit suite.
func TestMixedBackendConvergence(t *testing.T) {
	n := buildAndStart(t, Config{
		Orderer:           Solo,
		NumEndorsingPeers: 2,
		Policy:            policy.OrOverPeers(2),
		Model:             costmodel.Default(0.05),
		Storage: StorageConfig{
			Backend: "mem",
			Dir:     t.TempDir(),
			PerPeer: map[string]string{"peer2": "file"},
		},
	})
	if n.Peers[0].Ledger().Persistent() {
		t.Fatal("peer1 should be mem-backed")
	}
	if !n.Peers[1].Ledger().Persistent() {
		t.Fatal("peer2 should be file-backed")
	}
	invokeN(t, n, "mix", 12)
	waitAgree(t, n.Peers, 10*time.Second)
}

// TestFileBackedRestartCheckpointTail is the persistence acceptance
// path: a file-backed replica is restarted after ~200 committed blocks
// with snapshot transfer disabled, reopens from its latest checkpoint
// plus block-store tail — NOT from genesis over the network — and
// converges back to the cluster's tip and state hash.
func TestFileBackedRestartCheckpointTail(t *testing.T) {
	if testing.Short() {
		t.Skip("drives ~200 blocks")
	}
	cfg := gossipTestConfig(1, 3, nil)
	cfg.BatchSize = 1 // one invoke = one block
	cfg.Storage = StorageConfig{
		Backend:            "file",
		Dir:                t.TempDir(),
		CheckpointInterval: 32,
		SnapshotThreshold:  -1, // isolate the reopen path
	}
	n := buildAndStart(t, cfg)
	const blocks = 200
	invokeN(t, n, "p", blocks)
	waitAgree(t, n.Peers, 30*time.Second)

	target := n.Peers[len(n.Peers)-1]
	res, err := n.RestartPeer(context.Background(), target.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Persistent {
		t.Fatal("file-backed restart not reported as persistent")
	}
	old := res.OldHeights[n.Cfg.ChannelID]
	if old < blocks {
		t.Fatalf("old incarnation stopped at height %d, want >= %d", old, blocks)
	}
	// The reopen must recover the full committed prefix from disk —
	// checkpoint plus tail — so the restarted peer resumes at (not
	// below) its pre-restart height instead of replaying from genesis.
	if got := res.StartHeights[n.Cfg.ChannelID]; got != old {
		t.Fatalf("restarted peer reopened at height %d, want %d", got, old)
	}
	waitAgree(t, n.Peers, 15*time.Second)
	// Disk state survived, not just headers: a pre-restart write is
	// queryable on the reopened peer.
	if _, ok, err := res.Peer.Ledger().State().Get(ChaincodeBench, "p0"); err != nil || !ok {
		t.Errorf("reopened peer missing pre-restart key (ok=%v err=%v)", ok, err)
	}
}

// TestSnapshotBootstrapRejoin is the disk-loss acceptance path: a
// mem-backed replica restarts empty far enough behind the cluster that
// gossip anti-entropy chooses snapshot-then-tail; the peer must
// bootstrap from a transferred snapshot (observable via the
// SnapshotBootstraps counter) and converge to the tip and state hash.
func TestSnapshotBootstrapRejoin(t *testing.T) {
	col := metrics.NewCollector()
	cfg := gossipTestConfig(1, 3, col)
	cfg.BatchSize = 1
	cfg.Storage = StorageConfig{
		Backend:           "mem",
		SnapshotThreshold: 8,
	}
	n := buildAndStart(t, cfg)
	invokeN(t, n, "s", 24) // well past the snapshot threshold
	waitAgree(t, n.Peers, 15*time.Second)

	target := followerReplica(t, n)
	res, err := n.RestartPeer(context.Background(), target.ID())
	if err != nil {
		t.Fatal(err)
	}
	if res.Persistent {
		t.Fatal("mem-backed restart reported as persistent")
	}
	waitAgree(t, n.Peers, 15*time.Second)
	waitSnapshotBootstrap(t, n, col, "rejoin should have used snapshot-then-tail")
	if _, ok, err := res.Peer.Ledger().State().Get(ChaincodeBench, "s0"); err != nil || !ok {
		t.Errorf("rejoined peer missing pre-restart key (ok=%v err=%v)", ok, err)
	}
}

// TestSnapshotBootstrapRejoinTCP reruns the snapshot rejoin over the
// real TCP transport: RestartPeer must deregister/re-register the
// node's listener (TCPNetwork.Deregister) and the snapshot chunks must
// survive the gob wire path — the in-memory transport would not catch
// an unregistered SnapshotRequest/SnapshotChunk payload.
func TestSnapshotBootstrapRejoinTCP(t *testing.T) {
	col := metrics.NewCollector()
	cfg := gossipTestConfig(1, 3, col)
	cfg.UseTCP = true
	cfg.BatchSize = 1
	cfg.Storage = StorageConfig{
		Backend:           "mem",
		SnapshotThreshold: 8,
	}
	n := buildAndStart(t, cfg)
	invokeN(t, n, "t", 24)
	waitAgree(t, n.Peers, 15*time.Second)

	target := followerReplica(t, n)
	if _, err := n.RestartPeer(context.Background(), target.ID()); err != nil {
		t.Fatal(err)
	}
	waitAgree(t, n.Peers, 15*time.Second)
	waitSnapshotBootstrap(t, n, col, "rejoin over TCP should have used snapshot-then-tail")
}
