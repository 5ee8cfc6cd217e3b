package fabnet

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/metrics"
	"fabricsim/internal/orderer"
	"fabricsim/internal/peer"
	"fabricsim/internal/policy"
	"fabricsim/internal/simtest"
)

// gossipTestConfig is a gossip-enabled topology tuned for fast tests:
// leases and anti-entropy rounds shrink with the 0.05 time scale.
func gossipTestConfig(orgs, replicas int, col *metrics.Collector) Config {
	return Config{
		Orderer:           Solo,
		NumEndorsingPeers: orgs,
		EndorsersPerOrg:   replicas,
		Policy:            policy.OrOverPeers(orgs),
		Model:             costmodel.Default(0.05),
		Collector:         col,
		Gossip: GossipConfig{
			Enabled:             true,
			Fanout:              2,
			AntiEntropyInterval: 200 * time.Millisecond,
			LeaderLease:         600 * time.Millisecond,
		},
	}
}

// invokeN drives n writes through the clients, failing on error.
func invokeN(t *testing.T, n *Network, tag string, count int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < count; i++ {
		gw := n.Gateways[i%len(n.Gateways)]
		if _, err := gw.Invoke(ctx, "", ChaincodeBench, "write",
			[][]byte{[]byte(fmt.Sprintf("%s%d", tag, i)), []byte("v")}); err != nil {
			t.Fatalf("invoke %s%d: %v", tag, i, err)
		}
	}
}

// orgLeader finds the peer currently leading the default channel for
// the org that contains the given peers.
func orgLeader(t *testing.T, peers []*peer.Peer, d time.Duration) *peer.Peer {
	t.Helper()
	var lead *peer.Peer
	if !simtest.Until(d, func() bool {
		for _, p := range peers {
			if g := p.GossipNode(); g != nil && g.IsLeader(orderer.DefaultChannel) {
				lead = p
				return true
			}
		}
		return false
	}) {
		t.Fatal("no gossip leader emerged")
	}
	return lead
}

// TestGossipDisseminationConverges is the end-to-end gossip path: with
// two orgs of three replicas each, only the two org leaders poll the
// orderer, yet every peer converges to the same chain — and the
// orderer's egress stays at O(orgs): each block goes out at most once
// per org, where direct deliver would send it to every peer.
func TestGossipDisseminationConverges(t *testing.T) {
	col := metrics.NewCollector()
	n := buildAndStart(t, gossipTestConfig(2, 3, col))
	invokeN(t, n, "k", 12)
	waitAgree(t, n.Peers, 10*time.Second)

	height := n.Peers[0].Ledger().Height() - 1 // blocks past genesis
	egressBlocks, egressBytes := n.OrdererEgress()
	if egressBytes == 0 {
		t.Error("no orderer egress bytes recorded")
	}
	if orgs := uint64(2); egressBlocks > orgs*height {
		t.Errorf("orderer egress = %d blocks for %d committed, want at most %d (one leader per org)",
			egressBlocks, height, orgs*height)
	}

	sum := col.Summarize(metrics.SummaryOptions{TimeScale: n.Cfg.Model.TimeScale})
	if sum.GossipBlocks == 0 {
		t.Error("no block traveled via push gossip")
	}
	if sum.MeanGossipHops <= 0 {
		t.Error("gossip hop counts not recorded")
	}
	if sum.Blocks == 0 {
		t.Error("no block cut recorded")
	}
	if sum.DeliverBlocks == 0 {
		t.Error("no block arrived by orderer deliver")
	}
}

// TestGossipKilledLeaderReelects kills an org's deliver leader mid-run:
// a surviving replica must claim the lease and start polling, the org
// must keep committing with no lost blocks, and the dead leader may cost
// the orderer at most the one block that answers its parked poll.
func TestGossipKilledLeaderReelects(t *testing.T) {
	col := metrics.NewCollector()
	n := buildAndStart(t, gossipTestConfig(1, 3, col))
	invokeN(t, n, "pre", 4)

	lead := orgLeader(t, n.Peers, 5*time.Second)
	n.Links().Isolate(lead.ID(), true)
	egressBefore, _ := n.OrdererEgress()
	tipBefore := n.Orderers[0].ChainHeight(orderer.DefaultChannel)

	// A survivor claims the channel within a few leases.
	if !simtest.Until(10*time.Second, func() bool {
		for _, p := range n.Peers {
			if p != lead && p.GossipNode().IsLeader(orderer.DefaultChannel) {
				return true
			}
		}
		return false
	}) {
		t.Fatal("no replacement leader elected")
	}

	// The default client's event peer is peer1 == Peers[0]; if that is
	// the dead leader the commit events die with it, so drive load from
	// a client whose event peer survived.
	gw := n.Gateways[0]
	if lead == n.Peers[0] {
		t.Log("killed the event peer; skipping post-kill invokes would hide the regression — use commit-status-free check")
	}
	if lead != n.Peers[0] {
		ctx := context.Background()
		for i := 0; i < 6; i++ {
			if _, err := gw.Invoke(ctx, "", ChaincodeBench, "write",
				[][]byte{[]byte(fmt.Sprintf("post%d", i)), []byte("v")}); err != nil {
				t.Fatalf("post-kill invoke %d: %v", i, err)
			}
		}
	} else {
		// Submit without waiting on the dead event peer: fire writes
		// through a surviving client gateway and wait on chain growth.
		ctx := context.Background()
		before := n.Peers[1].Ledger().Height()
		for i := 0; i < 6; i++ {
			_, _ = gw.Invoke(ctx, "", ChaincodeBench, "write",
				[][]byte{[]byte(fmt.Sprintf("post%d", i)), []byte("v")})
		}
		if !simtest.Until(10*time.Second, func() bool { return n.Peers[1].Ledger().Height() > before }) {
			t.Fatal("chain did not grow after leader kill")
		}
	}

	// No lost blocks: the surviving replicas agree on one contiguous,
	// verifiable chain.
	alive := make([]*peer.Peer, 0, len(n.Peers)-1)
	for _, p := range n.Peers {
		if p != lead {
			alive = append(alive, p)
		}
	}
	waitAgree(t, alive, 10*time.Second)
	// The new leader fetches each block cut since the kill once; the
	// dead leader sends no poll after the one it left parked.
	egressAfter, _ := n.OrdererEgress()
	if cut := n.Orderers[0].ChainHeight(orderer.DefaultChannel) - tipBefore; egressAfter-egressBefore > cut+1 {
		t.Errorf("orderer egress grew by %d blocks while %d were cut, want at most %d",
			egressAfter-egressBefore, cut, cut+1)
	}
	sum := col.Summarize(metrics.SummaryOptions{TimeScale: n.Cfg.Model.TimeScale})
	if sum.LeaderElections < 1 {
		t.Errorf("leader elections = %d, want >= 1 (the replacement)", sum.LeaderElections)
	}
	if sum.CommitLag.Count == 0 {
		t.Error("no per-peer commit lag recorded")
	}
}

// TestGossipFaultFreeNoElections checks that LeaderElections counts
// only takeovers: the rank-0 claims every org makes at Start are no
// re-election, so a network no fault touched reports none. The scale is
// gentler than gossipTestConfig's so that no lease lapses on a loaded
// host.
func TestGossipFaultFreeNoElections(t *testing.T) {
	col := metrics.NewCollector()
	cfg := gossipTestConfig(2, 2, col)
	cfg.Model = costmodel.Default(0.25)
	n := buildAndStart(t, cfg)
	invokeN(t, n, "k", 2)
	waitAgree(t, n.Peers, 10*time.Second)
	sum := col.Summarize(metrics.SummaryOptions{TimeScale: n.Cfg.Model.TimeScale})
	if sum.LeaderElections != 0 {
		t.Errorf("leader elections = %d in a fault-free run, want 0", sum.LeaderElections)
	}
}

// TestGossipPeerRestartRejoins restarts a replica with a wiped ledger
// mid-run and checks it converges back to the cluster tip hash and
// state through anti-entropy alone.
func TestGossipPeerRestartRejoins(t *testing.T) {
	n := buildAndStart(t, gossipTestConfig(1, 3, nil))
	invokeN(t, n, "pre", 6)
	waitAgree(t, n.Peers, 10*time.Second)

	// Restart the last replica (never a client event peer, so the
	// commit-event path stays up).
	target := n.Peers[len(n.Peers)-1]
	res, err := n.RestartPeer(context.Background(), target.ID())
	if err != nil {
		t.Fatal(err)
	}
	restarted := res.Peer
	if res.Persistent {
		t.Fatal("mem-backed restart reported as persistent")
	}
	if got := res.OldHeights[n.Cfg.ChannelID]; got < 2 {
		t.Fatalf("old incarnation stopped at height %d, want >= 2", got)
	}
	if got := res.StartHeights[n.Cfg.ChannelID]; got != 1 {
		t.Fatalf("restarted peer starts at height %d, want 1 (genesis only)", got)
	}
	invokeN(t, n, "post", 4)
	waitAgree(t, n.Peers, 15*time.Second)
	// State converged too, not just headers: both a pre-restart and a
	// post-restart write are present on the rejoined peer.
	for _, key := range []string{"pre0", "post0"} {
		if _, ok, err := restarted.Ledger().State().Get(ChaincodeBench, key); err != nil || !ok {
			t.Errorf("rejoined peer missing key %q (ok=%v err=%v)", key, ok, err)
		}
	}
}

// TestDirectDeliverRestartRejoins covers the non-gossip rejoin path:
// with direct deliver, a restarted peer's first deliver poll asks from
// its own height, so it catches up without waiting for another block.
func TestDirectDeliverRestartRejoins(t *testing.T) {
	n := buildAndStart(t, Config{
		Orderer:           Solo,
		NumEndorsingPeers: 2,
		Policy:            policy.OrOverPeers(2),
		Model:             costmodel.Default(0.05),
	})
	invokeN(t, n, "pre", 5)
	waitAgree(t, n.Peers, 10*time.Second)
	target := n.Peers[len(n.Peers)-1]
	if _, err := n.RestartPeer(context.Background(), target.ID()); err != nil {
		t.Fatal(err)
	}
	// No further traffic needed: the deliver poll from the restarted
	// peer's height alone must drive the catch-up.
	waitAgree(t, n.Peers, 10*time.Second)
}

// TestDirectDeliverDownPeerCatchesUp covers a direct-deliver peer that
// is down while blocks are cut: it sends no poll, so it costs the OSN at
// most the one block that answers the poll it left parked. Back up, it
// catches up on its own, with no further traffic to trigger a gap pull.
func TestDirectDeliverDownPeerCatchesUp(t *testing.T) {
	n := buildAndStart(t, Config{
		Orderer:           Solo,
		NumEndorsingPeers: 2,
		Policy:            policy.OrOverPeers(1),
		NumClients:        1,
		Model:             costmodel.Default(0.05),
	})
	target := n.Peers[1]
	n.Links().Isolate(target.ID(), true)
	egressBefore, _ := n.OrdererEgress()
	tipBefore := n.Orderers[0].ChainHeight(orderer.DefaultChannel)
	invokeN(t, n, "down", 5)
	// The live peer fetches every block cut; the down one at most one.
	egressAfter, _ := n.OrdererEgress()
	live := uint64(len(n.Peers) - 1)
	if cut := n.Orderers[0].ChainHeight(orderer.DefaultChannel) - tipBefore; egressAfter-egressBefore > live*cut+1 {
		t.Errorf("orderer egress grew by %d blocks while %d were cut for %d live peer(s), want at most %d",
			egressAfter-egressBefore, cut, live, live*cut+1)
	}
	n.Links().Isolate(target.ID(), false)
	up := time.Now()
	waitAgree(t, n.Peers, 3*time.Second)
	t.Logf("%s converged %s after coming back", target.ID(), time.Since(up))
}
