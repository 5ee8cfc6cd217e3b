package fabnet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fabricsim/internal/chaincode"
	"fabricsim/internal/costmodel"
	"fabricsim/internal/gateway"
	"fabricsim/internal/policy"
	"fabricsim/internal/simtest"
	"fabricsim/internal/types"
)

// buildAndStart builds a network and fails the test on error.
func buildAndStart(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	if err := n.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestVerifyCryptoEndToEnd runs the full pipeline with real ECDSA
// signatures and full verification at every hop.
func TestVerifyCryptoEndToEnd(t *testing.T) {
	n := buildAndStart(t, Config{
		Orderer:           Solo,
		NumEndorsingPeers: 2,
		Policy:            policy.MustParse("AND('Org1.peer0','Org2.peer0')"),
		Model:             costmodel.Default(0.05),
		VerifyCrypto:      true,
	})
	ctx := context.Background()
	res, err := n.Gateways[0].Invoke(ctx, "", ChaincodeBench, "write", [][]byte{[]byte("k"), []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || res.Code != types.ValidationValid {
		t.Errorf("result = %+v", res)
	}
	info, err := n.Peers[0].Ledger().GetTx(res.TxID)
	if err != nil || !info.Code.Valid() {
		t.Errorf("ledger info = %+v err=%v", info, err)
	}
}

// TestMVCCConflictEndToEnd drives contending read-modify-write
// transactions against one hot key and checks that conflicts are
// flagged, recorded on chain, and do not corrupt state.
func TestMVCCConflictEndToEnd(t *testing.T) {
	n := buildAndStart(t, Config{
		Orderer:           Solo,
		NumEndorsingPeers: 2,
		NumClients:        4,
		Policy:            policy.OrOverPeers(2),
		Model:             costmodel.Default(0.05),
	})
	ctx := context.Background()
	var wg sync.WaitGroup
	var conflicts, commits int
	var mu sync.Mutex
	for i := 0; i < 12; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			gw := n.Gateways[i%len(n.Gateways)]
			_, err := gw.Invoke(ctx, "", ChaincodeBench, "readwrite", [][]byte{[]byte("hot"), []byte{byte(i)}})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				commits++
			case errors.Is(err, gateway.ErrInvalidated):
				conflicts++
			}
		}()
	}
	wg.Wait()
	if commits == 0 {
		t.Error("no transaction committed")
	}
	if conflicts == 0 {
		t.Error("no MVCC conflict under contention — suspicious")
	}
	stats := n.Peers[0].Ledger().Stats()
	if stats.InvalidTxs != conflicts {
		t.Errorf("chain records %d invalid, clients saw %d", stats.InvalidTxs, conflicts)
	}
}

// TestAllPeersConverge checks that every peer ends with the identical
// chain and state after a concurrent workload, the second replica of
// each org included: no client follows its commit events.
func TestAllPeersConverge(t *testing.T) {
	n := buildAndStart(t, Config{
		Orderer:           Kafka,
		NumOrderers:       3,
		NumEndorsingPeers: 3,
		EndorsersPerOrg:   2,
		Policy:            policy.OrOverPeers(3),
		Model:             costmodel.Default(0.05),
	})
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			gw := n.Gateways[i%len(n.Gateways)]
			_, _ = gw.Invoke(ctx, "", ChaincodeBench, "write", [][]byte{[]byte(fmt.Sprintf("k%d", i)), []byte("v")})
		}()
	}
	wg.Wait()
	waitAgree(t, n.Peers, 5*time.Second)
}

// TestRaftOrdererFailover kills the Raft leader OSN mid-run and expects
// the network to keep committing.
func TestRaftOrdererFailover(t *testing.T) {
	n := buildAndStart(t, Config{
		Orderer:           Raft,
		NumOrderers:       5,
		NumEndorsingPeers: 3,
		Policy:            policy.OrOverPeers(3),
		Model:             costmodel.Default(0.05),
	})
	ctx := context.Background()
	invoke := func(tag string, i int) error {
		_, err := n.Gateways[i%len(n.Gateways)].Invoke(ctx, "", ChaincodeBench, "write",
			[][]byte{[]byte(fmt.Sprintf("%s%d", tag, i)), []byte("v")})
		return err
	}
	for i := 0; i < 5; i++ {
		if err := invoke("pre", i); err != nil {
			t.Fatalf("pre-crash invoke %d: %v", i, err)
		}
	}
	leader, ok := n.RaftLeader()
	if !ok {
		t.Fatal("no raft leader")
	}
	n.Links().Isolate(leader, true)

	if !simtest.Until(10*time.Second, func() bool {
		l, ok := n.RaftLeader()
		return ok && l != leader
	}) {
		t.Fatal("no new leader elected")
	}
	ok2 := 0
	for i := 0; i < 10; i++ {
		if err := invoke("post", i); err == nil {
			ok2++
		}
	}
	if ok2 == 0 {
		t.Error("no transaction committed after failover")
	}
}

// TestKafkaBrokerFailover kills the partition-leader broker and expects
// ordering to continue through the surviving ISR.
func TestKafkaBrokerFailover(t *testing.T) {
	n := buildAndStart(t, Config{
		Orderer:           Kafka,
		NumOrderers:       2,
		NumKafkaBrokers:   3,
		NumEndorsingPeers: 2,
		Policy:            policy.OrOverPeers(2),
		Model:             costmodel.Default(0.05),
	})
	ctx := context.Background()
	if _, err := n.Gateways[0].Invoke(ctx, "", ChaincodeBench, "write", [][]byte{[]byte("pre"), []byte("v")}); err != nil {
		t.Fatal(err)
	}
	leader, ok := n.kafkaCluster.Leader(0)
	if !ok {
		t.Fatal("no partition leader")
	}
	if err := n.kafkaCluster.KillBroker(leader); err != nil {
		t.Fatal(err)
	}
	ok2 := 0
	for i := 0; i < 5; i++ {
		if _, err := n.Gateways[0].Invoke(ctx, "", ChaincodeBench, "write",
			[][]byte{[]byte(fmt.Sprintf("post%d", i)), []byte("v")}); err == nil {
			ok2++
		}
	}
	if ok2 == 0 {
		t.Error("no transaction committed after broker failover")
	}
}

// TestQueryPath exercises the client's evaluate-only path.
func TestQueryPath(t *testing.T) {
	n := buildAndStart(t, Config{
		Orderer:           Solo,
		NumEndorsingPeers: 1,
		Policy:            policy.OrOverPeers(1),
		Model:             costmodel.Default(0.05),
		ExtraChaincodes:   []chaincode.Chaincode{chaincode.NewCounter("ctr")},
	})
	ctx := context.Background()
	if _, err := n.Gateways[0].Invoke(ctx, "", "ctr", "inc", [][]byte{[]byte("c")}); err != nil {
		t.Fatal(err)
	}
	out, err := n.Gateways[0].Evaluate(ctx, "ctr", "get", [][]byte{[]byte("c")})
	if err != nil || string(out) != "1" {
		t.Errorf("query = %q err=%v", out, err)
	}
}

// TestTxSizeAffectsBlockBytes sanity-checks the transaction-size knob.
func TestTxSizeAffectsBlockBytes(t *testing.T) {
	n := buildAndStart(t, Config{
		Orderer:           Solo,
		NumEndorsingPeers: 1,
		Policy:            policy.OrOverPeers(1),
		Model:             costmodel.Default(0.05),
	})
	ctx := context.Background()
	big := make([]byte, 4096)
	res, err := n.Gateways[0].Invoke(ctx, "", ChaincodeBench, "write", [][]byte{[]byte("big"), big})
	if err != nil {
		t.Fatal(err)
	}
	block, err := n.Peers[0].Ledger().GetBlock(res.BlockNum)
	if err != nil {
		t.Fatal(err)
	}
	if block.Size() < 4096 {
		t.Errorf("block size %d does not reflect 4KB value", block.Size())
	}
}
