// Policies: demonstrates endorsement-policy behaviour end to end — the
// dimension the paper sweeps between its OR and AND configurations.
// The same network evaluates an OutOf(2-of-3) policy: a transaction
// endorsed by enough peers commits, while an envelope carrying too few
// endorsements is recorded on chain flagged ENDORSEMENT_POLICY_FAILURE.
//
//	go run ./examples/policies
package main

import (
	"context"
	"errors"
	"fmt"
	"os"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/fabnet"
	"fabricsim/internal/gateway"
	"fabricsim/internal/policy"
	"fabricsim/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "policies:", err)
		os.Exit(1)
	}
}

func run() error {
	pol := policy.MustParse("OutOf(2,'Org1.peer0','Org2.peer0','Org3.peer0')")
	fmt.Printf("channel endorsement policy: %s (min endorsements: %d)\n",
		pol, pol.MinEndorsements())

	net, err := fabnet.Build(fabnet.Config{
		Orderer:           fabnet.Solo,
		NumEndorsingPeers: 3,
		Policy:            pol,
		Model:             costmodel.Default(0.2),
		VerifyCrypto:      true,
	})
	if err != nil {
		return err
	}
	defer net.Stop()
	ctx := context.Background()
	if err := net.Start(ctx); err != nil {
		return err
	}

	// Normal path: the SDK collects the minimal satisfying set (2 of 3,
	// round-robin) and the transaction validates.
	res, err := net.Gateways[0].Invoke(ctx, "", fabnet.ChaincodeBench, "write",
		[][]byte{[]byte("k"), []byte("v")})
	if err != nil {
		return err
	}
	fmt.Printf("2-of-3 endorsed tx %s...: %s in block %d\n", res.TxID[:12], res.Code, res.BlockNum)

	// Violation path: strip endorsements down to one before ordering by
	// using a client whose policy view claims a single peer suffices.
	// VSCC on the committing peers applies the real channel policy and
	// flags the transaction.
	weak := policy.MustParse("OR('Org1.peer0')")
	rogue := net.Gateways[1]
	res2, err := rogue.InvokeWithPolicy(ctx, weak, fabnet.ChaincodeBench, "write",
		[][]byte{[]byte("k2"), []byte("v2")})
	switch {
	case errors.Is(err, gateway.ErrInvalidated):
		fmt.Printf("under-endorsed tx %s...: %s (recorded on chain, state untouched)\n",
			res2.TxID[:12], res2.Code)
	case err == nil:
		return fmt.Errorf("under-endorsed transaction was accepted: %+v", res2)
	default:
		return err
	}

	// The chain records both outcomes; only the valid write hit state.
	p := net.Peers[0]
	info, err := p.Ledger().GetTx(res2.TxID)
	if err != nil {
		return err
	}
	fmt.Printf("ledger index for the rejected tx: block %d code %s\n", info.BlockNum, info.Code)
	if _, ok, _ := p.Ledger().State().Get(fabnet.ChaincodeBench, "k2"); ok {
		return errors.New("policy-violating write reached the world state")
	}
	if info.Code != types.ValidationEndorsementPolicyFailure {
		return fmt.Errorf("unexpected code %s", info.Code)
	}
	fmt.Println("VSCC enforced the channel policy exactly as the paper's validate phase describes")
	return nil
}
