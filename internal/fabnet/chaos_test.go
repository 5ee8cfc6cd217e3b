package fabnet

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fabricsim/internal/chaos"
	"fabricsim/internal/metrics"
	"fabricsim/internal/transport"
)

// TestChaosLossyLinkSnapshotCatchup is the lossy-WAN repair scenario:
// a peer crashes, misses a gap wider than SnapshotThreshold, and then
// has to rejoin over links that drop 8% of one-way frames. Anti-entropy
// must close the gap snapshot-first and every peer must converge.
func TestChaosLossyLinkSnapshotCatchup(t *testing.T) {
	col := metrics.NewCollector()
	cfg := gossipTestConfig(2, 2, col)
	cfg.BatchSize = 1 // every write is one block: heights move fast
	cfg.Storage = StorageConfig{Backend: "mem", SnapshotThreshold: 10}
	n := buildAndStart(t, cfg)
	ctx := context.Background()

	// Writes go through client 0 only, so crashing the last replica
	// can never kill the submitting client's event stream.
	write := func(tag string, count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			if _, err := n.Gateways[0].Invoke(ctx, "", ChaincodeBench, "write",
				[][]byte{[]byte(fmt.Sprintf("%s%d", tag, i)), []byte("v")}); err != nil {
				t.Fatalf("invoke %s%d: %v", tag, i, err)
			}
		}
	}

	write("pre", 2)
	waitAgree(t, n.Peers, 10*time.Second)

	ctl := n.Chaos()
	target := n.Peers[len(n.Peers)-1]
	if err := ctl.Inject(ctx, chaos.CrashPeer{Node: target.ID()}); err != nil {
		t.Fatal(err)
	}

	// Open a gap decisively wider than the snapshot threshold while the
	// target is down.
	write("gap", 14)

	// Heal over a lossy fabric: 8% loss on every link while the
	// restarted peer bootstraps and tails.
	n.Links().SetDefault(transport.LinkProps{Loss: 0.08})
	if err := ctl.HealAll(ctx); err != nil {
		t.Fatal(err)
	}

	waitAgree(t, n.Peers, 30*time.Second)
	// The rejoined incarnation holds both a pre-crash and a gap write.
	restarted := n.Peers[len(n.Peers)-1]
	for _, key := range []string{"pre0", "gap13"} {
		if _, ok, err := restarted.Ledger().State().Get(ChaincodeBench, key); err != nil || !ok {
			t.Errorf("rejoined peer missing key %q (ok=%v err=%v)", key, ok, err)
		}
	}

	waitSnapshotBootstrap(t, n, col, "gap of 14 vs threshold 10")
}

// TestChaosWANRegions verifies the canned WAN matrix wiring: Build
// adopts the matrix regions, labels every node round-robin, and the
// transport resolves cross-region properties from the matrix.
func TestChaosWANRegions(t *testing.T) {
	cfg := gossipTestConfig(2, 2, nil)
	cfg.WANMatrix = "wan2"
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	if got := n.regionNames; len(got) != 2 {
		t.Fatalf("adopted regions = %v", got)
	}
	seen := map[string]int{}
	for _, p := range n.Peers {
		r := n.regions[p.ID()]
		if r == "" {
			t.Fatalf("peer %s has no region", p.ID())
		}
		seen[r]++
	}
	if len(seen) != 2 {
		t.Fatalf("peers landed in %d regions: %v", len(seen), seen)
	}

	// Find a cross-region peer pair and check the matrix latency shows
	// through the LinkSet (wan2 us-east->eu-west one-way is 40ms).
	var east, west string
	for _, p := range n.Peers {
		switch n.regions[p.ID()] {
		case "us-east":
			east = p.ID()
		case "eu-west":
			west = p.ID()
		}
	}
	if east == "" || west == "" {
		t.Fatalf("no cross-region pair in %v", seen)
	}
	if p := n.Links().PropsFor(east, west); p.Latency != 40*time.Millisecond {
		t.Errorf("cross-region latency = %v, want 40ms", p.Latency)
	}
	if p := n.Links().PropsFor(east, east); p.Latency >= time.Millisecond {
		t.Errorf("intra-region latency = %v, want sub-millisecond", p.Latency)
	}

	if _, err := Build(func() Config { c := gossipTestConfig(1, 1, nil); c.WANMatrix = "bogus"; return c }()); err == nil {
		t.Fatal("unknown WANMatrix accepted")
	}
}

// TestChaosControllerBookkeeping covers the controller's active-fault
// ledger against a built (not started) network: inject marks active,
// heal clears it, and the log records both transitions.
func TestChaosControllerBookkeeping(t *testing.T) {
	n, err := Build(gossipTestConfig(2, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	ctx := context.Background()
	ctl := n.Chaos()

	cluster := chaosCluster{n}
	f := chaos.PartitionOrg(cluster, cluster.Orgs()[0])
	if err := ctl.Inject(ctx, f); err != nil {
		t.Fatal(err)
	}
	if got := ctl.Active(); len(got) != 1 || got[0] != f.Name() {
		t.Fatalf("active = %v", got)
	}
	if !n.Links().Severed(f.A[0], f.B[0]) {
		t.Fatal("partition did not sever links")
	}
	if err := ctl.Heal(ctx, f); err != nil {
		t.Fatal(err)
	}
	if got := ctl.Active(); len(got) != 0 {
		t.Fatalf("active after heal = %v", got)
	}
	if n.Links().Severed(f.A[0], f.B[0]) {
		t.Fatal("heal did not restore links")
	}
	log := ctl.Log()
	if len(log) != 2 || log[0].Action != "inject" || log[1].Action != "heal" {
		t.Fatalf("log = %v", log)
	}
}
