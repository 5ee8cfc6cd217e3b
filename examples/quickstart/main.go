// Quickstart: bring up a three-organization Fabric network with a Solo
// orderer, run a handful of transactions through the full
// execute-order-validate pipeline, and inspect the resulting ledger.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"

	"fabricsim/internal/chaincode"
	"fabricsim/internal/costmodel"
	"fabricsim/internal/fabnet"
	"fabricsim/internal/policy"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A small network: 3 orgs with one endorsing peer each, a Solo
	// ordering service, and one SDK client per peer. Real ECDSA
	// signatures and full verification are enabled — this is the
	// correctness configuration, not the benchmark one.
	model := costmodel.Default(1.0) // real time
	net, err := fabnet.Build(fabnet.Config{
		Orderer:           fabnet.Solo,
		NumEndorsingPeers: 3,
		Policy:            policy.MustParse("OR('Org1.peer0','Org2.peer0','Org3.peer0')"),
		Model:             model,
		VerifyCrypto:      true,
		ExtraChaincodes:   []chaincode.Chaincode{chaincode.NewCounter("counter")},
	})
	if err != nil {
		return err
	}
	defer net.Stop()

	ctx := context.Background()
	if err := net.Start(ctx); err != nil {
		return err
	}
	fmt.Println("network up: 3 endorsing peers, solo orderer, 3 clients")

	gw := net.Gateways[0]

	// Invoke the counter chaincode a few times; each invocation runs
	// the full transaction life cycle and blocks until commit.
	for i := 0; i < 5; i++ {
		res, err := gw.Invoke(ctx, "", "counter", "inc", [][]byte{[]byte("hits")})
		if err != nil {
			return fmt.Errorf("invoke %d: %w", i, err)
		}
		fmt.Printf("tx %s... committed in block %d, counter=%s\n",
			res.TxID[:12], res.BlockNum, res.Payload)
	}

	// Query evaluates on one peer without ordering.
	val, err := gw.Evaluate(ctx, "counter", "get", [][]byte{[]byte("hits")})
	if err != nil {
		return err
	}
	fmt.Printf("query result: counter=%s\n", val)

	// Every peer holds the same validated chain.
	for _, p := range net.Peers {
		stats := p.Ledger().Stats()
		if err := p.Ledger().VerifyChain(); err != nil {
			return fmt.Errorf("peer %s chain corrupt: %w", p.ID(), err)
		}
		fmt.Printf("peer %s: height=%d txs=%d (valid=%d invalid=%d) hash chain OK\n",
			p.ID(), stats.Blocks, stats.TotalTxs, stats.ValidTxs, stats.InvalidTxs)
	}
	return nil
}
