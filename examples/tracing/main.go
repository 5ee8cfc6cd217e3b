// Tracing: run one transaction through a two-organization network with
// span recording enabled, then reconstruct where its latency went —
// the full span tree across gateway, endorser, orderer, and committer,
// and the critical-path decomposition that the bench tables and the
// /traces HTTP endpoint are built on.
//
//	go run ./examples/tracing
package main

import (
	"context"
	"fmt"
	"os"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/fabnet"
	"fabricsim/internal/policy"
	"fabricsim/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracing:", err)
		os.Exit(1)
	}
}

func run() error {
	// The tracer is the only observability knob: hand one to
	// fabnet.Config and every layer starts recording spans keyed by the
	// transaction's first TxID. New(0) keeps the default retention
	// (4096 traces, oldest evicted first).
	tracer := trace.New(0)
	net, err := fabnet.Build(fabnet.Config{
		Orderer:           fabnet.Solo,
		NumEndorsingPeers: 2,
		Policy:            policy.MustParse("AND('Org1.peer0','Org2.peer0')"),
		Model:             costmodel.Default(1.0), // real time
		Tracer:            tracer,
	})
	if err != nil {
		return err
	}
	defer net.Stop()

	ctx := context.Background()
	if err := net.Start(ctx); err != nil {
		return err
	}
	fmt.Println("network up: 2 endorsing peers (AND policy), solo orderer, tracing on")

	// One blocking Invoke: propose, endorse on both orgs, order, commit.
	res, err := net.Gateways[0].Invoke(ctx, "", fabnet.ChaincodeBench, "write",
		[][]byte{[]byte("k"), []byte("v")})
	if err != nil {
		return err
	}
	fmt.Printf("tx %s... committed in block %d\n\n", res.TxID[:12], res.BlockNum)

	// Any attempt's TxID resolves to the trace (retried transactions
	// keep one trace across attempts).
	id, ok := tracer.Lookup(string(res.TxID))
	if !ok {
		return fmt.Errorf("no trace recorded for %s", res.TxID)
	}

	// The span tree: gateway phase spans at the top level, with the
	// server-side detail spans (endorser execute, orderer ingress and
	// batch residency, commit stages) nested under the phase whose time
	// range contains them.
	fmt.Println("span tree (offsets from first span):")
	fmt.Print(trace.Tree(tracer.Spans(id)))

	// The critical path: the gateway phase spans partition the
	// end-to-end wall time exactly, so the decomposition names the
	// dominant phase without double counting.
	cp, ok := tracer.CriticalPath(id)
	if !ok {
		return fmt.Errorf("no critical path for %s", id)
	}
	fmt.Printf("\ncritical path: %s\n", cp)
	fmt.Printf("dominant phase: %s (%.0f%% of %s end to end)\n",
		cp.Dominant, dominantFraction(cp)*100, cp.Total.Round(0))
	return nil
}

// dominantFraction returns the dominant phase's share of the total.
func dominantFraction(cp trace.CriticalPathResult) float64 {
	for _, p := range cp.Phases {
		if p.Name == cp.Dominant {
			return p.Fraction
		}
	}
	return 0
}
