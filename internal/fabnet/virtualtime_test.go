//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package fabnet

import (
	"context"
	"fmt"
	"math"
	"testing"
	"testing/synctest"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/metrics"
	"fabricsim/internal/policy"
	"fabricsim/internal/workload"
)

// vtRun is one virtual-time life of a network at scale 1.0: the model
// time Build and Start took, the model time from Build to the end of
// Stop, the summary of 10 model-seconds of load at 400 tps, and the
// fingerprint of the blocks peer 0 committed.
type vtRun struct {
	setup  time.Duration
	life   time.Duration
	sum    metrics.Summary
	blocks []blockPrint
	err    error
}

// blockPrint is what a run's fingerprint keeps of one committed block:
// its number, its cut time in model time since Build, the OSN that cut
// it and its transaction count. Transactions are left out: their IDs
// depend on the order in which same-instant submissions reach a
// gateway's nonce counter, which even Solo does not repeat.
type blockPrint struct {
	num   uint64
	cutAt time.Duration
	osn   string
	txs   int
}

// fingerprint reads peer 0's committed blocks past genesis.
func fingerprint(n *Network, began time.Time) ([]blockPrint, error) {
	led := n.Peers[0].Ledger()
	prints := make([]blockPrint, 0, led.Height())
	for num := uint64(1); num < led.Height(); num++ {
		b, err := led.GetBlock(num)
		if err != nil {
			return nil, err
		}
		prints = append(prints, blockPrint{
			num:   num,
			cutAt: time.Duration(b.Metadata.OrderedTime - began.UnixNano()),
			osn:   b.Metadata.OrdererID,
			txs:   len(b.Data),
		})
	}
	return prints, nil
}

// firstDivergence describes the first block on which two fingerprints
// differ, with both runs' values; "" means they match.
func firstDivergence(a, b []blockPrint) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("block %d: run 0 cut at %v by %s with %d txs, run 1 cut at %v by %s with %d txs",
				a[i].num, a[i].cutAt, a[i].osn, a[i].txs, b[i].cutAt, b[i].osn, b[i].txs)
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("block %d: run 0 committed %d blocks, run 1 %d", min(len(a), len(b))+1, len(a), len(b))
	}
	return ""
}

// runNetwork builds cfg with the scale-1.0 cost model and a fresh
// collector, then starts, loads and stops it; it must run inside a
// synctest bubble, and reports failures in the result.
func runNetwork(cfg Config) (r vtRun) {
	model := costmodel.Default(1.0)
	col := metrics.NewCollector()
	cfg.Model = model
	cfg.Collector = col
	began := time.Now()
	n, err := Build(cfg)
	if err != nil {
		r.err = err
		return r
	}
	defer func() { r.life = time.Since(began) }()
	defer n.Stop()
	ctx := context.Background()
	if r.err = n.Start(ctx); r.err != nil {
		return r
	}
	r.setup = time.Since(began)
	if _, r.err = workload.Run(ctx, n.Gateways, workload.Config{
		Rate:     400,
		Duration: 10 * time.Second,
		Model:    model,
		Seed:     1,
	}); r.err != nil {
		return r
	}
	r.sum = col.Summarize(metrics.SummaryOptions{TimeScale: model.TimeScale, RejectLatency: model.OrderTimeout})
	r.blocks, r.err = fingerprint(n, began)
	return r
}

// maxSetup bounds Build and Start in model time: peers launch their
// containers at once, and a fresh Raft group elects its campaigner
// meanwhile, so bring-up costs one container launch and a little
// messaging.
var maxSetup = costmodel.Default(1.0).ContainerLaunch + 10*time.Millisecond

// runTwice runs cfg twice with one seed, each time inside its own
// synctest bubble. The bubble returning proves no goroutine outlives
// Stop, since one left blocked would deadlock it; both runs must commit,
// and bring each network up within maxSetup. It logs the first block on
// which the two runs' fingerprints differ.
func runTwice(t *testing.T, cfg Config) [2]vtRun {
	t.Helper()
	var runs [2]vtRun
	for i := range runs {
		done := make(chan struct{})
		go func() {
			defer close(done)
			synctest.Run(func() { runs[i] = runNetwork(cfg) })
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("run %d: bubble still running after 2m of wall time", i)
		}
		r := runs[i]
		if r.err != nil {
			t.Fatalf("run %d: %v", i, r.err)
		}
		if r.sum.Committed == 0 {
			t.Fatalf("run %d committed nothing", i)
		}
		if r.setup > maxSetup {
			t.Errorf("run %d: setup took %.3f model-s, want at most %.3f", i, r.setup.Seconds(), maxSetup.Seconds())
		}
		t.Logf("run %d: setup %.3f model-s, Build to Stop %.3f model-s, committed %d, mean latency %v, validate %.1f tps",
			i, r.setup.Seconds(), r.life.Seconds(), r.sum.Committed, r.sum.TotalLatency.Avg, r.sum.ValidateTPS)
	}
	if d := firstDivergence(runs[0].blocks, runs[1].blocks); d != "" {
		t.Logf("first divergence at %s", d)
	} else {
		t.Logf("both runs committed the same %d blocks", len(runs[0].blocks))
	}
	return runs
}

// checkWithin fails t unless both runs agree on committed count and
// mean latency within 0.1 %.
func checkWithin(t *testing.T, runs [2]vtRun) {
	t.Helper()
	within := func(a, b float64) bool { return math.Abs(a-b) <= 0.001*math.Max(a, b) }
	a, b := runs[0].sum, runs[1].sum
	if !within(float64(a.Committed), float64(b.Committed)) {
		t.Errorf("committed %d then %d, want within 0.1%%", a.Committed, b.Committed)
	}
	if !within(float64(a.TotalLatency.Avg), float64(b.TotalLatency.Avg)) {
		t.Errorf("mean latency %v then %v, want within 0.1%%", a.TotalLatency.Avg, b.TotalLatency.Avg)
	}
}

// TestKafkaNetworkInVirtualTime runs a three-peer Kafka network under
// OR twice; the runs must agree within 0.1 %, and take exactly as long
// from Build to Stop: Stop ends a consumer's fetch long poll instead of
// waiting it out. Run with GOEXPERIMENT=synctest.
func TestKafkaNetworkInVirtualTime(t *testing.T) {
	runs := runTwice(t, Config{
		Orderer:           Kafka,
		NumOrderers:       3,
		NumEndorsingPeers: 3,
		Policy:            policy.OrOverPeers(3),
	})
	checkWithin(t, runs)
	if runs[0].life != runs[1].life {
		t.Errorf("Build to Stop took %v then %v, want equal", runs[0].life, runs[1].life)
	}
}

// TestSoloDirectNetworkInVirtualTime runs a three-peer Solo network
// under OR with direct deliver, where every peer is an org of one and
// runs its own election loop, twice. Solo has no source of spread, so
// both runs must read exactly 1 200 committed, a 7.887097739 s mean
// latency and 171.5 validate tps, commit the same blocks and take
// exactly as long from Build to Stop; how the network comes up must not
// move the load's model time. Run with GOEXPERIMENT=synctest.
func TestSoloDirectNetworkInVirtualTime(t *testing.T) {
	runs := runTwice(t, Config{
		Orderer:           Solo,
		NumEndorsingPeers: 3,
		Policy:            policy.OrOverPeers(3),
	})
	for i, r := range runs {
		s := r.sum
		if s.Committed != 1200 || s.TotalLatency.Avg != 7887097739*time.Nanosecond || math.Round(s.ValidateTPS*10) != 1715 {
			t.Errorf("run %d: committed %d, mean latency %v, validate %v tps; want 1200, 7.887097739s, 171.5",
				i, s.Committed, s.TotalLatency.Avg, s.ValidateTPS)
		}
	}
	if d := firstDivergence(runs[0].blocks, runs[1].blocks); d != "" {
		t.Errorf("runs diverged at %s", d)
	}
	if runs[0].life != runs[1].life {
		t.Errorf("Build to Stop took %v then %v, want equal", runs[0].life, runs[1].life)
	}
}

// TestRaftGossipNetworkInVirtualTime runs a Raft network with gossip
// dissemination, two orgs of two replicas each, under OR twice; the
// runs must agree within 0.1 %. Run with GOEXPERIMENT=synctest.
func TestRaftGossipNetworkInVirtualTime(t *testing.T) {
	checkWithin(t, runTwice(t, Config{
		Orderer:           Raft,
		NumOrderers:       3,
		NumEndorsingPeers: 2,
		EndorsersPerOrg:   2,
		Policy:            policy.OrOverPeers(2),
		Gossip:            GossipConfig{Enabled: true},
	}))
}
