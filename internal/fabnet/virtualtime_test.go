//go:build goexperiment.synctest

package fabnet

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/metrics"
	"fabricsim/internal/policy"
	"fabricsim/internal/simtest"
	"fabricsim/internal/types"
	"fabricsim/internal/workload"
)

// vtRun is one virtual-time life of a network at scale 1.0: the model
// time Build and Start took, the model time from Build to the end of
// Stop, the summary of its load, and the fingerprint of the blocks peer
// 0 committed, with each block's transactions in block order.
type vtRun struct {
	setup  time.Duration
	life   time.Duration
	sum    metrics.Summary
	blocks []blockPrint
	txs    [][]txPrint
	err    error
}

// blockPrint is what a run's fingerprint keeps of one committed block:
// its number, its cut time in model time since Build, the OSN that cut
// it and its transaction count. What the block holds is in txPrint:
// envelope bytes are a function of the seed, so the same load commits
// the same envelopes, though same-instant envelopes may still reach a
// block in another order.
type blockPrint struct {
	num   uint64
	cutAt time.Duration
	osn   string
	txs   int
}

// txPrint is what a run's fingerprint keeps of one committed
// transaction: its ID, the SHA-256 of its envelope and the validation
// code peer 0 gave it.
type txPrint struct {
	id   types.TxID
	sum  [sha256.Size]byte
	code types.ValidationCode
}

// fingerprint reads peer 0's committed blocks past genesis, and each
// one's transactions.
func fingerprint(n *Network, began time.Time) ([]blockPrint, [][]txPrint, error) {
	led := n.Peers[0].Ledger()
	prints := make([]blockPrint, 0, led.Height())
	var txs [][]txPrint
	for num := uint64(1); num < led.Height(); num++ {
		b, err := led.GetBlock(num)
		if err != nil {
			return nil, nil, err
		}
		prints = append(prints, blockPrint{
			num:   num,
			cutAt: time.Duration(b.Metadata.OrderedTime - began.UnixNano()),
			osn:   b.Metadata.OrdererID,
			txs:   len(b.Data),
		})
		inBlock := make([]txPrint, len(b.Data))
		for i, env := range b.Data {
			info, err := types.PeekEnvelopeInfo(env)
			if err != nil {
				return nil, nil, fmt.Errorf("block %d tx %d: %w", num, i, err)
			}
			inBlock[i] = txPrint{types.TxID(strings.Clone(string(info.TxID))), sha256.Sum256(env), b.Metadata.ValidationFlags[i]}
		}
		txs = append(txs, inBlock)
	}
	return prints, txs, nil
}

// txPairs returns every (envelope hash, validation code) pair of a
// run's transactions: as a multiset, what the run committed, whatever
// the blocks and their order.
func txPairs(blocks [][]txPrint) []string {
	var pairs []string
	for _, txs := range blocks {
		for _, tx := range txs {
			pairs = append(pairs, fmt.Sprintf("%x %s", tx.sum, tx.code))
		}
	}
	return pairs
}

// unmatched counts the elements of two multisets that have no match in
// the other; 0 means they are equal.
func unmatched(a, b []string) int {
	count := make(map[string]int, len(a))
	for _, x := range a {
		count[x]++
	}
	for _, x := range b {
		count[x]--
	}
	n := 0
	for _, c := range count {
		n += max(c, -c)
	}
	return n
}

// firstTxDivergence describes the first block whose ordered (TxID,
// validation code) lists differ between two runs; "" means every block
// holds the same transactions in the same order.
func firstTxDivergence(a, b [][]txPrint) string {
	same := func(x, y txPrint) bool { return x.id == y.id && x.code == y.code }
	for i := range min(len(a), len(b)) {
		if slices.EqualFunc(a[i], b[i], same) {
			continue
		}
		for j := range min(len(a[i]), len(b[i])) {
			if x, y := a[i][j], b[i][j]; !same(x, y) {
				return fmt.Sprintf("block %d, tx %d: run 0 holds %s (%s), run 1 %s (%s)", i+1, j, x.id, x.code, y.id, y.code)
			}
		}
		return fmt.Sprintf("block %d: run 0 holds %d txs, run 1 %d", i+1, len(a[i]), len(b[i]))
	}
	if len(a) != len(b) {
		return fmt.Sprintf("block %d: run 0 committed %d blocks, run 1 %d", min(len(a), len(b))+1, len(a), len(b))
	}
	return ""
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

// saturating is runTwice's load: 10 model-seconds at 400 tps, above the
// validate cap.
var saturating = workload.Config{Rate: 400, Duration: 10 * time.Second, Seed: 1}

// runNetwork builds cfg with the scale-1.0 cost model and a fresh
// collector, then starts it, runs load on it and stops it; it must run
// inside a synctest bubble, and reports failures in the result.
func runNetwork(cfg Config, load workload.Config) (r vtRun) {
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
	load.Model = model
	if _, r.err = workload.Run(ctx, n.Gateways, load); r.err != nil {
		return r
	}
	r.sum = col.Summarize(metrics.SummaryOptions{TimeScale: model.TimeScale, RejectLatency: model.OrderTimeout})
	r.blocks, r.txs, r.err = fingerprint(n, began)
	return r
}

// maxSetup bounds Build and Start in model time: peers launch their
// containers at once, and a fresh Raft group elects its campaigner
// meanwhile, so bring-up costs one container launch and a little
// messaging.
var maxSetup = costmodel.Default(1.0).ContainerLaunch + 10*time.Millisecond

// runBubble runs cfg under load inside its own synctest bubble. The
// bubble returning proves no goroutine outlives Stop, since one left
// blocked would deadlock it; the run must commit.
func runBubble(t *testing.T, name string, cfg Config, load workload.Config) vtRun {
	t.Helper()
	var r vtRun
	simtest.Run(t, func() { r = runNetwork(cfg, load) })
	if r.err != nil {
		t.Fatalf("%s: %v", name, r.err)
	}
	if r.sum.Committed == 0 {
		t.Fatalf("%s committed nothing", name)
	}
	return r
}

// runTwice runs cfg twice under the saturating load with one seed, each
// time in its own bubble; both runs must bring the network up within
// maxSetup and commit the same multiset of (envelope, validation code)
// pairs. It logs the first block on which the two runs' fingerprints
// differ, and the first block whose ordered (TxID, validation code)
// lists differ.
func runTwice(t *testing.T, cfg Config) [2]vtRun {
	t.Helper()
	var runs [2]vtRun
	for i := range runs {
		runs[i] = runBubble(t, fmt.Sprintf("run %d", i), cfg, saturating)
		r := runs[i]
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
	if d := firstTxDivergence(runs[0].txs, runs[1].txs); d != "" {
		t.Logf("first transaction divergence at %s", d)
	}
	a, b := txPairs(runs[0].txs), txPairs(runs[1].txs)
	if n := unmatched(a, b); n != 0 {
		t.Errorf("the runs committed different transactions: %d of %d and %d (envelope, code) pairs have no match", n, len(a), len(b))
	} else {
		t.Logf("both runs committed the same %d transactions", len(a))
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

// TestOrdererParityInVirtualTime checks the paper's second finding, that
// Solo, Kafka and Raft perform alike, at the lowest rate of Fig. 3's
// sweep: four peers under OR at 50 tps for 30 model-seconds, where
// every block is a timeout cut. Kafka's (three OSNs, three brokers) and
// Raft's (three OSNs) mean latency must each be within 1 % of Solo's.
// Run with GOEXPERIMENT=synctest.
func TestOrdererParityInVirtualTime(t *testing.T) {
	load := workload.Config{Rate: 50, Duration: 30 * time.Second, Seed: 1}
	base := Config{NumEndorsingPeers: 4, Policy: policy.OrOverPeers(4)}
	solo := base
	kafka := base
	kafka.Orderer, kafka.NumOrderers, kafka.NumKafkaBrokers = Kafka, 3, 3
	raft := base
	raft.Orderer, raft.NumOrderers = Raft, 3
	var soloMean time.Duration
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"solo", solo}, {"kafka", kafka}, {"raft", raft}} {
		s := runBubble(t, c.name, c.cfg, load).sum
		t.Logf("%s: committed %d, mean latency %v", c.name, s.Committed, s.TotalLatency.Avg)
		if c.name == "solo" {
			soloMean = s.TotalLatency.Avg
			continue
		}
		if d := math.Abs(float64(s.TotalLatency.Avg-soloMean)) / float64(soloMean); d > 0.01 {
			t.Errorf("%s mean latency %v is %.1f %% off Solo's %v, want within 1 %%",
				c.name, s.TotalLatency.Avg, 100*d, soloMean)
		}
	}
}
