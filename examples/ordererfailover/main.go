// Ordererfailover: demonstrates the crash fault-tolerance the paper
// attributes to the Kafka and Raft ordering services (Section III),
// extended to the full crash-restart cycle. A five-node Raft ordering
// service with file-backed hard state keeps committing transactions
// after its leader is killed: the survivors elect a new leader, the
// pipeline resumes, and the healed OSN restarts under the same
// identity from its persisted write-ahead log — not from genesis.
//
//	go run ./examples/ordererfailover
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"fabricsim/internal/chaos"
	"fabricsim/internal/costmodel"
	"fabricsim/internal/fabnet"
	"fabricsim/internal/policy"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ordererfailover:", err)
		os.Exit(1)
	}
}

func run() error {
	model := costmodel.Default(0.2)
	// File-backed Raft stores: every OSN persists term, vote, and log
	// entries to a WAL under dir/<osn>/raft/<channel>, so a crashed
	// OSN restarts from durable state. The low compaction threshold
	// makes the log compact within this short run, proving the restart
	// path works even after the early entries are gone.
	dir, err := os.MkdirTemp("", "ordererfailover-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	osnBackends := make(map[string]string)
	for i := 1; i <= 5; i++ {
		osnBackends[fmt.Sprintf("osn%d", i)] = "file"
	}
	net, err := fabnet.Build(fabnet.Config{
		Orderer:           fabnet.Raft,
		NumOrderers:       5,
		NumEndorsingPeers: 3,
		Policy:            policy.OrOverPeers(3),
		Model:             model,
		BatchSize:         1,
		Storage: fabnet.StorageConfig{
			Backend: "mem",
			Dir:     dir,
			PerPeer: osnBackends,
		},
		RaftCompactThreshold: 8,
	})
	if err != nil {
		return err
	}
	defer net.Stop()
	ctx := context.Background()
	if err := net.Start(ctx); err != nil {
		return err
	}

	invoke := func(tag string, n int) (ok int) {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("%s-%d", tag, i)
			_, err := net.Gateways[i%len(net.Gateways)].Invoke(ctx, "", "bench", "write",
				[][]byte{[]byte(key), []byte("v")})
			if err == nil {
				ok++
			}
		}
		return ok
	}

	leader, _ := net.RaftLeader()
	fmt.Printf("raft cluster of 5 file-backed OSNs up, leader = %s\n", leader)
	fmt.Printf("before crash: %d/12 transactions committed\n", invoke("before", 12))

	// Crash the leader through the chaos controller. CrashOrderer is
	// the orderer-aware fault: Inject blacks the node out exactly like
	// a machine failure; Heal later rebuilds the OSN under the same
	// identity from its persisted Raft state.
	ctl := net.Chaos()
	fmt.Printf("crashing leader %s...\n", leader)
	if err := ctl.Inject(ctx, chaos.CrashOrderer{Node: leader}); err != nil {
		return err
	}

	// Wait for the survivors to elect a new leader.
	deadline := time.Now().Add(10 * time.Second)
	var newLeader string
	for time.Now().Before(deadline) {
		if l, ok := net.RaftLeader(); ok && l != leader && !net.Links().Isolated(l) {
			newLeader = l
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if newLeader == "" {
		return fmt.Errorf("no new leader elected after killing %s", leader)
	}
	fmt.Printf("new leader elected: %s\n", newLeader)

	ok := invoke("during", 12)
	fmt.Printf("with the old leader down: %d/12 transactions committed\n", ok)
	if ok == 0 {
		return fmt.Errorf("cluster did not recover")
	}

	// Heal the fault: CrashOrderer.Heal lifts the blackout AND restarts
	// the OSN — it reloads term, vote, and log from its WAL, primes its
	// block chain from a surviving OSN, and rejoins as a follower.
	if err := ctl.HealAll(ctx); err != nil {
		return err
	}
	for _, e := range ctl.Log() {
		fmt.Printf("chaos log: %s\n", e)
	}

	// Restart a follower directly to show what a durable restart
	// recovers: a non-zero Raft base means the entries below it were
	// compacted away, so the node provably did not replay from genesis.
	follower := ""
	cur, _ := net.RaftLeader()
	for _, o := range net.Orderers {
		if o.ID() != cur && o.ID() != leader {
			follower = o.ID()
			break
		}
	}
	res, err := net.RestartOrderer(ctx, follower)
	if err != nil {
		return err
	}
	for ch, tip := range res.OldHeights {
		fmt.Printf("restarted %s: channel %s tip=%d raft base=%d rehydrated=%d blocks from a live source\n",
			follower, ch, tip, res.RaftBases[ch], res.Rehydrated[ch])
	}

	ok = invoke("after", 12)
	fmt.Printf("after heal + follower restart: %d/12 transactions committed\n", ok)

	best := uint64(0)
	for _, p := range net.Peers {
		if h := p.Ledger().Height(); h > best {
			best = h
		}
	}
	fmt.Printf("chain height after failover: %d — ordering service survived a crash-restart cycle\n", best)
	return nil
}
