package fabnet

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/ledger"
	"fabricsim/internal/metrics"
	"fabricsim/internal/peer"
	"fabricsim/internal/policy"
	"fabricsim/internal/simtest"
	"fabricsim/internal/workload"
)

// runSmoke builds a small network, pushes a short load, and checks what
// holds on any host: every client-observed success is a VALID
// transaction on the ledger, and every peer converges to one verified
// chain. Throughput is only logged here; TestPaperFidelity's Solo/OR and
// Solo/AND5 rows (internal/bench) pin the calibrated validate caps and
// re-measure a low reading, since a loaded host can only lower one.
func runSmoke(t *testing.T, ordererType OrdererType, pol policy.Policy, peers int) {
	t.Helper()
	col := metrics.NewCollector()
	model := costmodel.Default(0.1)
	cfg := Config{
		Orderer:           ordererType,
		NumOrderers:       3,
		NumEndorsingPeers: peers,
		Policy:            pol,
		Model:             model,
		Collector:         col,
	}
	n, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer n.Stop()
	ctx := context.Background()
	if err := n.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	stats, err := workload.Run(ctx, n.Gateways, workload.Config{
		Rate:     60,
		Duration: 3 * time.Second,
		Model:    model,
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	if stats.Submitted == 0 {
		t.Fatal("no transactions submitted")
	}
	t.Logf("%s: submitted=%d succeeded=%d failed=%d", ordererType, stats.Submitted, stats.Succeeded, stats.Failed)
	if stats.Succeeded == 0 {
		t.Fatalf("no transactions committed (failed=%d)", stats.Failed)
	}
	sum := col.Summarize(metrics.SummaryOptions{TimeScale: model.TimeScale})
	t.Logf("exec=%.1f order=%.1f validate=%.1f tps, total latency avg=%s",
		sum.ExecuteTPS, sum.OrderTPS, sum.ValidateTPS, sum.TotalLatency.Avg)
	waitAgree(t, n.Peers, 5*time.Second)
	if valid := int64(n.Peers[0].Ledger().Stats().ValidTxs); valid < stats.Succeeded {
		t.Errorf("peer %s holds %d VALID transactions, fewer than the %d clients saw commit",
			n.Peers[0].ID(), valid, stats.Succeeded)
	}
}

// waitAgree polls until, on every channel, the peers' ledgers agree
// (ledger.Agree): one height, tip and state, and a verified chain. On a
// timeout it fails the test with each peer's height, tip and state.
func waitAgree(t *testing.T, peers []*peer.Peer, d time.Duration) {
	t.Helper()
	agree := func() error {
		for _, ch := range peers[0].Channels() {
			ls := make([]*ledger.Ledger, len(peers))
			for i, p := range peers {
				ls[i], _ = p.LedgerFor(ch)
			}
			if err := ledger.Agree(ls...); err != nil {
				return fmt.Errorf("channel %s: %w", ch, err)
			}
		}
		return nil
	}
	var err error
	if simtest.Until(d, func() bool { err = agree(); return err == nil }) {
		return
	}
	for _, p := range peers {
		for _, ch := range p.Channels() {
			l, _ := p.LedgerFor(ch)
			st, _ := l.StateHash()
			t.Logf("peer %s channel %s: height=%d tip=%.8x state=%.8x", p.ID(), ch, l.Height(), l.LastHash(), st)
		}
	}
	t.Fatalf("peers disagree after %s: %v", d, err)
}

func TestEndToEndSolo(t *testing.T) {
	runSmoke(t, Solo, policy.OrOverPeers(3), 3)
}

func TestEndToEndKafka(t *testing.T) {
	runSmoke(t, Kafka, policy.OrOverPeers(3), 3)
}

func TestEndToEndRaft(t *testing.T) {
	runSmoke(t, Raft, policy.OrOverPeers(3), 3)
}

// TestStartCancelledNamesPeerAndLeaksNothing starts a Raft network
// under a context that is already cancelled: every peer's container
// launch fails, so Start must fail with an error naming a peer, and a
// Stop after the failed start must still end every goroutine Build and
// Start began.
func TestStartCancelledNamesPeerAndLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	n, err := Build(Config{
		Orderer:           Raft,
		NumOrderers:       3,
		NumEndorsingPeers: 3,
		Policy:            policy.OrOverPeers(3),
		Model:             costmodel.Default(0.1),
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = n.Start(ctx)
	n.Stop()
	if err == nil || !strings.Contains(err.Error(), "start peer ") {
		t.Errorf("Start under a cancelled context: err = %v, want one naming a peer", err)
	}
	if !simtest.Until(5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		after := runtime.NumGoroutine()
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines after Stop, %d before Build:\n%s", after, before, buf[:runtime.Stack(buf, true)])
	}
}

// TestStopEndsGatewayWorkers runs concurrent AND3 invokes, so each
// gateway parks fan-out workers, and requires Stop to end every
// goroutine Build and Start began, the parked workers included.
func TestStopEndsGatewayWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	n, err := Build(Config{
		Orderer:           Solo,
		NumEndorsingPeers: 3,
		Policy:            policy.AndOverPeers(3),
		Model:             costmodel.Default(0.1),
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ctx := context.Background()
	if err := n.Start(ctx); err != nil {
		n.Stop()
		t.Fatalf("Start: %v", err)
	}
	errs := make(chan error, 8)
	for i := 0; i < cap(errs); i++ {
		go func() {
			_, err := n.Gateways[0].Invoke(ctx, "", ChaincodeBench, "write", [][]byte{[]byte(fmt.Sprint("stop", i)), []byte("v")})
			errs <- err
		}()
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	n.Stop()
	if !simtest.Until(5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		after := runtime.NumGoroutine()
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines after Stop, %d before Build:\n%s", after, before, buf[:runtime.Stack(buf, true)])
	}
}

func TestEndToEndANDPolicy(t *testing.T) {
	runSmoke(t, Solo, policy.AndOverPeers(3), 3)
}

// TestPipelinedCommitterCrossPeerAgreement drives a network whose peers
// run the widest staged committer (pool 4, depth 4) and checks the
// invariants pipelining must preserve: every peer's hash chain
// verifies, all peers converge to the same height and tip hash, and the
// committed world state is byte-identical across the peers, peer4
// included, whose commit events no client follows.
func TestPipelinedCommitterCrossPeerAgreement(t *testing.T) {
	col := metrics.NewCollector()
	model := costmodel.Default(0.1)
	cfg := Config{
		Orderer:           Solo,
		NumEndorsingPeers: 4,
		NumClients:        3,
		Policy:            policy.OrOverPeers(4),
		Model:             model,
		Collector:         col,
		CommitterPool:     4,
		CommitDepth:       4,
	}
	n, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer n.Stop()
	ctx := context.Background()
	if err := n.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	stats, err := workload.Run(ctx, n.Gateways, workload.Config{
		Rate:     120,
		Duration: 3 * time.Second,
		Model:    model,
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	if stats.Succeeded == 0 {
		t.Fatalf("no transactions committed (failed=%d)", stats.Failed)
	}

	// Peers no client follows lag the event peers slightly.
	waitAgree(t, n.Peers, 5*time.Second)
	if n.Peers[0].Ledger().State().DumpString() == "" {
		t.Fatal("reference peer has empty state")
	}
	sum := col.Summarize(metrics.SummaryOptions{TimeScale: model.TimeScale})
	if sum.VSCCStage.Count == 0 {
		t.Error("no commit-stage samples collected from the observing peer")
	}
}

// TestEndorserCertificatesScopedPerNetwork is the regression for the
// old package-global endorser-certificate registry: two networks with
// colliding peer IDs live in one process, and each must verify its
// endorsements against its own CAs' records. Had the first network's
// committers resolved endorser IDs against the second network's keys,
// they would reject every transaction with BAD_SIGNATURE.
func TestEndorserCertificatesScopedPerNetwork(t *testing.T) {
	build := func() *Network {
		n, err := Build(Config{
			Orderer:           Solo,
			NumEndorsingPeers: 2,
			Policy:            policy.OrOverPeers(2),
			Model:             costmodel.Default(0.1),
			VerifyCrypto:      true,
		})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return n
	}
	a := build()
	defer a.Stop()
	b := build() // same peer IDs, fresh ECDSA keys
	defer b.Stop()

	ctx := context.Background()
	for _, n := range []*Network{a, b} {
		if err := n.Start(ctx); err != nil {
			t.Fatalf("Start: %v", err)
		}
	}
	for name, n := range map[string]*Network{"first": a, "second": b} {
		stats, err := workload.Run(ctx, n.Gateways, workload.Config{
			Rate:     40,
			Duration: 1500 * time.Millisecond,
			Model:    n.Cfg.Model,
		})
		if err != nil {
			t.Fatalf("%s network workload: %v", name, err)
		}
		if stats.Succeeded == 0 {
			t.Errorf("%s network committed nothing (failed=%d) — endorser certs leaked across networks?",
				name, stats.Failed)
		}
	}
}

// TestBuildsEnrollIdenticalCertificates builds one network twice. Under
// the HMAC scheme every key derives from its identity, so every peer's
// and gateway's certificate comes out byte for byte the same; under
// VerifyCrypto the ECDSA keys are drawn at random, so every one differs.
func TestBuildsEnrollIdenticalCertificates(t *testing.T) {
	certs := func(verify bool) []string {
		n, err := Build(Config{
			Orderer:           Solo,
			NumEndorsingPeers: 2,
			EndorsersPerOrg:   2,
			NumClients:        3,
			Policy:            policy.OrOverPeers(2),
			Model:             costmodel.Default(0.1),
			VerifyCrypto:      verify,
		})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		defer n.Stop()
		var out []string
		for _, pc := range n.peerCfgs {
			out = append(out, string(pc.Identity.Serialized()))
		}
		// A gateway's creator bytes are its enrollment's certificate,
		// which the client CA keeps.
		for i := range n.Gateways {
			cert := n.CAs["ClientOrg"].Lookup(fmt.Sprintf("user%d", i+1))
			if cert == nil {
				t.Fatalf("gateway %d has no enrollment", i+1)
			}
			out = append(out, string(cert.Marshal()))
		}
		return out
	}
	a, b := certs(false), certs(false)
	if len(a) != 7 {
		t.Fatalf("read %d certificates, want 4 peers and 3 gateways", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("HMAC certificate %d differs between two builds", i)
		}
	}
	a, b = certs(true), certs(true)
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("ECDSA certificate %d repeats between two builds; its key must stay random", i)
		}
	}
}

// TestReplicatedEndorsersCrossPeerAgreement drives a network whose orgs
// each deploy two endorsing replicas sharing the org identity, over the
// pipelined committer and with full crypto verification. The
// invariants replication must preserve: every replica of an org carries
// the org's one certificate, so endorsements signed by any replica
// verify at every committer against the org CA's records; every peer's
// hash chain verifies; and all peers converge to one tip hash and
// byte-identical state.
func TestReplicatedEndorsersCrossPeerAgreement(t *testing.T) {
	col := metrics.NewCollector()
	model := costmodel.Default(0.1)
	cfg := Config{
		Orderer:           Solo,
		NumEndorsingPeers: 2,
		EndorsersPerOrg:   2,
		Policy:            policy.OrOverPeers(2),
		Model:             model,
		Collector:         col,
		CommitterPool:     4,
		CommitDepth:       2,
		VerifyCrypto:      true,
	}
	n, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer n.Stop()
	if len(n.Peers) != 4 {
		t.Fatalf("deployed %d peers, want 2 orgs x 2 replicas", len(n.Peers))
	}
	certOf := make(map[string]string)
	for _, pc := range n.peerCfgs {
		id, cert := pc.Identity.ID(), string(pc.Identity.Serialized())
		if first, ok := certOf[id]; ok && first != cert {
			t.Errorf("replica %s carries a second certificate for %s", pc.ID, id)
		}
		certOf[id] = cert
	}
	ctx := context.Background()
	if err := n.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	stats, err := workload.Run(ctx, n.Gateways, workload.Config{
		Rate:     80,
		Duration: 2500 * time.Millisecond,
		Model:    model,
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	if stats.Succeeded == 0 {
		t.Fatalf("no transactions committed (failed=%d) — replica endorsements rejected?", stats.Failed)
	}

	waitAgree(t, n.Peers, 5*time.Second)
	if n.Peers[0].Ledger().State().DumpString() == "" {
		t.Fatal("reference peer has empty state")
	}
	// Replication must actually be used: with round-robin routing over
	// a committed load this large, both replicas of some org served
	// endorsements.
	sum := col.Summarize(metrics.SummaryOptions{TimeScale: model.TimeScale})
	if len(sum.EndorsesPerPeer) < 3 {
		t.Errorf("endorsements served by %v, want at least 3 replicas busy", sum.EndorsesPerPeer)
	}
}

// TestReplicatedEndorsersANDPolicy checks the AND-over-orgs behavior
// change end to end: with two replicas per org and an AND2 policy, the
// gateway endorses at exactly one replica per org, VSCC accepts the
// pair, and transactions commit.
func TestReplicatedEndorsersANDPolicy(t *testing.T) {
	col := metrics.NewCollector()
	model := costmodel.Default(0.1)
	cfg := Config{
		Orderer:           Solo,
		NumEndorsingPeers: 2,
		EndorsersPerOrg:   2,
		Policy:            policy.AndOverPeers(2),
		Model:             model,
		Collector:         col,
	}
	n, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer n.Stop()
	ctx := context.Background()
	if err := n.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	stats, err := workload.Run(ctx, n.Gateways, workload.Config{
		Rate:     60,
		Duration: 2 * time.Second,
		Model:    model,
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	if stats.Succeeded == 0 {
		t.Fatalf("AND2 over replicated orgs committed nothing (failed=%d)", stats.Failed)
	}
	sum := col.Summarize(metrics.SummaryOptions{TimeScale: model.TimeScale})
	if sum.Invalid > 0 {
		t.Errorf("%d transactions invalidated — AND2 endorsement sets unsatisfiable?", sum.Invalid)
	}
	// Each committed transaction collected exactly 2 endorsements (one
	// per org), so endorse samples ≈ 2x committed count, spread across
	// up to 4 replicas.
	if sum.Endorsements == 0 {
		t.Error("no endorse samples collected")
	}
}
