package fabnet

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/metrics"
	"fabricsim/internal/policy"
	"fabricsim/internal/simtest"
)

func raftRestartConfig(t *testing.T, osns int, col *metrics.Collector) Config {
	t.Helper()
	perPeer := make(map[string]string, osns)
	for i := 1; i <= osns; i++ {
		perPeer[fmt.Sprintf("osn%d", i)] = "file"
	}
	return Config{
		Orderer:           Raft,
		NumOrderers:       osns,
		NumEndorsingPeers: 2,
		Policy:            policy.OrOverPeers(2),
		Model:             costmodel.Default(0.05),
		BatchSize:         1, // one invoke = one block
		Collector:         col,
		Storage: StorageConfig{
			Backend: "mem",
			Dir:     t.TempDir(),
			PerPeer: perPeer,
		},
		RaftCompactThreshold: 8,
	}
}

// nonLeaderOSN returns an OSN that is not currently the Raft leader of
// the default channel, so restarting (or freezing) it never stalls the
// ordering service.
func nonLeaderOSN(t *testing.T, n *Network) (string, int) {
	t.Helper()
	leader, ok := n.RaftLeader()
	if !ok {
		t.Fatal("no raft leader")
	}
	// Prefer the highest-numbered OSN: peers pin their deliver polls
	// to ordererIDs[peerIdx % len], so with fewer peers than OSNs the
	// tail OSNs serve no deliver poll and disrupting one never stalls
	// commit events.
	for i := len(n.Orderers) - 1; i >= 0; i-- {
		if n.Orderers[i].ID() != leader {
			return n.Orderers[i].ID(), i
		}
	}
	t.Fatal("all OSNs report as leader")
	return "", -1
}

// invokeLenient drives count committed writes, tolerating transient
// rejections (ordering timeouts, orderer unavailable) while the network
// heals around a disrupted OSN — a leader whose deliver poll failed
// waits a quarter lease before the next one.
func invokeLenient(t *testing.T, n *Network, tag string, count int, d time.Duration) {
	t.Helper()
	ctx := context.Background()
	i := 0
	var err error
	if !simtest.Until(d, func() bool {
		for ; i < count; i++ {
			gw := n.Gateways[i%len(n.Gateways)]
			if _, err = gw.Invoke(ctx, "", ChaincodeBench, "write",
				[][]byte{[]byte(fmt.Sprintf("%s%d", tag, i)), []byte("v")}); err != nil {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("invoke %s%d: %v (deadline exhausted)", tag, i, err)
	}
}

// TestRestartRaftOrdererFromPersistedState is the durability acceptance
// path: a file-backed OSN is restarted after enough blocks that its
// Raft log has compacted, and must rejoin from its persisted hard state
// — a non-zero compaction base proves the node did NOT replay from
// genesis, because the entries below the base no longer exist anywhere
// in its log.
func TestRestartRaftOrdererFromPersistedState(t *testing.T) {
	n := buildAndStart(t, raftRestartConfig(t, 3, nil))
	ch := n.Cfg.ChannelID
	const blocks = 24
	invokeN(t, n, "r", blocks)
	waitAgree(t, n.Peers, 15*time.Second)

	target, idx := nonLeaderOSN(t, n)
	// Followers compact to their applied prefix; wait for the target's
	// log to pass the threshold so the restart exercises the
	// compacted-log path.
	node, ok := n.raftCons[idx].NodeFor(ch)
	if !ok {
		t.Fatalf("no raft node for %s on %s", ch, target)
	}
	if !simtest.Until(10*time.Second, func() bool { return node.CompactionBase() != 0 }) {
		t.Fatalf("OSN %s never compacted its log (threshold %d, %d blocks)",
			target, n.Cfg.RaftCompactThreshold, blocks)
	}

	res, err := n.RestartOrderer(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if res.OldHeights[ch] < blocks {
		t.Fatalf("old incarnation stopped at height %d, want >= %d", res.OldHeights[ch], blocks)
	}
	base := res.RaftBases[ch]
	if base == 0 {
		t.Fatal("restarted OSN reloaded an uncompacted log; want base > 0 (persisted state, not genesis)")
	}
	if res.Rehydrated[ch] < base {
		t.Fatalf("chain rehydrated to %d blocks, below the raft base %d", res.Rehydrated[ch], base)
	}
	newNode, ok := n.raftCons[idx].NodeFor(ch)
	if !ok {
		t.Fatal("restarted OSN has no raft node")
	}
	if got := newNode.CompactionBase(); got != base {
		t.Errorf("restarted node compaction base = %d, want %d", got, base)
	}
	if last := newNode.LastIndex(); last < base {
		t.Errorf("restarted node log tip %d below its base %d", last, base)
	}

	// The restarted OSN keeps ordering: new writes commit and its chain
	// converges past the pre-restart tip.
	invokeLenient(t, n, "r2", 4, 15*time.Second)
	waitAgree(t, n.Peers, 15*time.Second)
	want := res.OldHeights[ch] + 4
	if !simtest.Until(15*time.Second, func() bool { return res.Orderer.ChainHeight(ch) >= want }) {
		t.Errorf("restarted OSN chain height %d, want >= %d", res.Orderer.ChainHeight(ch), want)
	}
	if err := newNode.PersistErr(); err != nil {
		t.Errorf("restarted node persist error: %v", err)
	}
}

// TestRestartSoloOrdererPrimesFromPeerTail covers the non-Raft recovery
// path: a Solo OSN has no persisted ordering state and no surviving
// OSN, so the restart must rebuild its chain from a peer's block store
// tail and resume numbering after the old tip instead of re-emitting
// duplicate block numbers.
func TestRestartSoloOrdererPrimesFromPeerTail(t *testing.T) {
	n := buildAndStart(t, Config{
		Orderer:           Solo,
		NumEndorsingPeers: 2,
		Policy:            policy.OrOverPeers(2),
		Model:             costmodel.Default(0.05),
		BatchSize:         1,
		Storage:           StorageConfig{Backend: "mem"},
	})
	ch := n.Cfg.ChannelID
	const blocks = 10
	invokeN(t, n, "s", blocks)
	waitAgree(t, n.Peers, 15*time.Second)

	res, err := n.RestartOrderer(context.Background(), n.Orderers[0].ID())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rehydrated[ch] < blocks {
		t.Fatalf("rehydrated %d blocks from peer tail, want >= %d", res.Rehydrated[ch], blocks)
	}
	if got := res.Orderer.ChainHeight(ch); got != res.OldHeights[ch] {
		t.Fatalf("restarted OSN chain height %d, want old tip %d", got, res.OldHeights[ch])
	}
	// New writes continue the numbering from the primed tip; committing
	// peers would reject duplicate or gapped numbers.
	invokeLenient(t, n, "s2", 4, 15*time.Second)
	waitAgree(t, n.Peers, 15*time.Second)
	if got := res.Orderer.ChainHeight(ch); got < res.OldHeights[ch]+4 {
		t.Errorf("post-restart chain height %d, want >= %d", got, res.OldHeights[ch]+4)
	}
}

// TestRestartKafkaOrdererReplaysWithoutDuplicates covers the Kafka
// recovery path: the restarted OSN is primed from a surviving OSN's
// chain, then replays its partition from offset zero, and the chain's
// replay guard must drop every recut block. New writes continue the
// numbering, and every OSN and peer holds the same block at every
// height.
func TestRestartKafkaOrdererReplaysWithoutDuplicates(t *testing.T) {
	n := buildAndStart(t, Config{
		Orderer:           Kafka,
		NumOrderers:       2,
		NumEndorsingPeers: 2,
		Policy:            policy.OrOverPeers(2),
		Model:             costmodel.Default(0.05),
		BatchSize:         1,
	})
	ch := n.Cfg.ChannelID
	const blocks = 10
	invokeN(t, n, "k", blocks)
	waitAgree(t, n.Peers, 15*time.Second)

	res, err := n.RestartOrderer(context.Background(), n.Orderers[1].ID())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rehydrated[ch] < blocks {
		t.Fatalf("rehydrated %d blocks, want >= %d", res.Rehydrated[ch], blocks)
	}
	invokeLenient(t, n, "k2", 4, 15*time.Second)
	waitAgree(t, n.Peers, 15*time.Second)

	led := n.Peers[0].Ledger()
	tip := led.Height() - 1 // Height counts genesis
	if tip < res.OldHeights[ch]+4 {
		t.Fatalf("peer tip %d, want >= %d", tip, res.OldHeights[ch]+4)
	}
	for _, o := range n.Orderers {
		simtest.Until(15*time.Second, func() bool { return o.ChainHeight(ch) >= tip })
		chain := o.ChainBlocks(ch, 1, tip+1)
		if got := o.ChainHeight(ch); got != tip || uint64(len(chain)) != tip {
			t.Fatalf("OSN %s chain height %d (%d blocks), want %d", o.ID(), got, len(chain), tip)
		}
		for _, b := range chain {
			want, err := led.GetBlock(b.Header.Number)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b.Header.Hash(), want.Header.Hash()) {
				t.Errorf("OSN %s block %d differs from the committed block", o.ID(), b.Header.Number)
			}
		}
	}
}

// TestRestartOrdererBeforeFirstBlock restarts an OSN that has cut no
// block. There is nothing to prime the chain from, so the restart must
// not wait for a source that will never appear, and new writes must
// still commit.
func TestRestartOrdererBeforeFirstBlock(t *testing.T) {
	for _, tc := range []struct {
		orderer OrdererType
		osns    int
	}{{Solo, 1}, {Kafka, 2}, {Raft, 3}} {
		t.Run(string(tc.orderer), func(t *testing.T) {
			n := buildAndStart(t, Config{
				Orderer:           tc.orderer,
				NumOrderers:       tc.osns,
				NumEndorsingPeers: 2,
				Policy:            policy.OrOverPeers(2),
				Model:             costmodel.Default(0.05),
				BatchSize:         1,
			})
			target := n.Orderers[len(n.Orderers)-1].ID()
			if tc.orderer == Raft {
				target, _ = nonLeaderOSN(t, n)
			}
			begun := time.Now()
			res, err := n.RestartOrderer(context.Background(), target)
			if err != nil {
				t.Fatal(err)
			}
			if took := time.Since(begun); took > 5*time.Second {
				t.Errorf("restart took %s, want < 5s", took)
			}
			invokeLenient(t, n, "b", 2, 15*time.Second)
			waitAgree(t, n.Peers, 15*time.Second)
			ch := n.Cfg.ChannelID
			if !simtest.Until(15*time.Second, func() bool { return res.Orderer.ChainHeight(ch) >= 2 }) {
				t.Errorf("restarted OSN chain height %d, want >= 2", res.Orderer.ChainHeight(ch))
			}
		})
	}
}

// TestGatewayBroadcastFailover freezes one OSN that serves no deliver
// stream (so commit events keep flowing) and drives writes through the
// gateways: every Submit must still succeed by failing over to a
// healthy OSN, and the failovers must show up in the metrics summary.
func TestGatewayBroadcastFailover(t *testing.T) {
	col := metrics.NewCollector()
	// 4 OSNs, 2 peers: osn3/osn4 serve no deliver subscription, so one
	// of them is always a safe freeze target.
	n := buildAndStart(t, raftRestartConfig(t, 4, col))
	invokeN(t, n, "w", 3) // warm up, let a leader settle
	waitAgree(t, n.Peers, 15*time.Second)

	frozen, _ := nonLeaderOSN(t, n)
	n.Links().Isolate(frozen, true)
	defer n.Links().Isolate(frozen, false)

	// Each gateway's round-robin cursor advances once per broadcast:
	// 12 invokes over 3 clients rotate every gateway's first candidate
	// through all 4 OSNs, so some broadcast tries the frozen OSN first
	// and must fail over.
	invokeN(t, n, "f", 12)
	waitAgree(t, n.Peers, 15*time.Second)

	sum := col.Summarize(metrics.SummaryOptions{TimeScale: n.Cfg.Model.TimeScale})
	if sum.BroadcastFailovers < 1 {
		t.Errorf("BroadcastFailovers = %d, want >= 1", sum.BroadcastFailovers)
	}
}
