package peer

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fabricsim/internal/ca"
	"fabricsim/internal/chaincode"
	"fabricsim/internal/costmodel"
	"fabricsim/internal/fabcrypto"
	"fabricsim/internal/gossip"
	"fabricsim/internal/ledger"
	"fabricsim/internal/msp"
	"fabricsim/internal/orderer"
	"fabricsim/internal/policy"
	"fabricsim/internal/simcpu"
	"fabricsim/internal/simtest"
	"fabricsim/internal/transport"
	"fabricsim/internal/types"
)

// env is a two-peer test environment without an orderer: blocks are
// injected as gossip pushes (inject) or straight into IngestBlock.
type env struct {
	t       testing.TB
	net     *transport.Network
	peers   []*Peer
	peerIDs []*msp.SigningIdentity
	cpus    []*simcpu.CPU
	client  *msp.SigningIdentity
	m       *msp.MSP
	sender  transport.Endpoint
}

func newEnv(t testing.TB, numPeers int, pol policy.Policy, verify bool) *env {
	return newEnvModel(t, numPeers, pol, verify, nil)
}

// newEnvModel builds the environment with an optional cost-model tweak
// (committer pool, pipeline depth, ...) applied before peers start.
func newEnvModel(t testing.TB, numPeers int, pol policy.Policy, verify bool, tweak func(*costmodel.Model)) *env {
	return newEnvChannels(t, numPeers, pol, verify, tweak, nil)
}

// newEnvChannels additionally joins every peer to the given channels
// (nil = the single default channel "perf").
func newEnvChannels(t testing.TB, numPeers int, pol policy.Policy, verify bool, tweak func(*costmodel.Model), channels []string) *env {
	return newEnvFull(t, numPeers, pol, verify, tweak, channels, nil)
}

// newEnvFull is the bottom of the env-builder stack; tweakPeer, when
// non-nil, edits each peer's Config (e.g. to attach gossip) before the
// peer is built.
func newEnvFull(t testing.TB, numPeers int, pol policy.Policy, verify bool, tweak func(*costmodel.Model), channels []string, tweakPeer func(*Config)) *env {
	t.Helper()
	e := &env{
		t:   t,
		net: transport.NewNetwork(transport.Config{TimeScale: 1.0}),
	}
	t.Cleanup(e.net.Close)
	model := costmodel.Default(0.01) // fast
	if tweak != nil {
		tweak(&model)
	}

	cas := make([]*ca.CA, 0, numPeers+1)
	for i := 1; i <= numPeers; i++ {
		authority, err := ca.New(orgName(i), fabcrypto.SchemeECDSA)
		if err != nil {
			t.Fatal(err)
		}
		cas = append(cas, authority)
	}
	clientCA, err := ca.New("ClientOrg", fabcrypto.SchemeECDSA)
	if err != nil {
		t.Fatal(err)
	}
	cas = append(cas, clientCA)
	e.m = msp.New(cas...)

	registry := chaincode.NewRegistry(chaincode.NewKVStore("bench"), chaincode.NewCounter("ctr"))
	for i := 1; i <= numPeers; i++ {
		enr, err := cas[i-1].Enroll("peer0", ca.RolePeer)
		if err != nil {
			t.Fatal(err)
		}
		identity := msp.NewSigningIdentity(enr)
		e.peerIDs = append(e.peerIDs, identity)
		ep, err := e.net.Register(peerID(i))
		if err != nil {
			t.Fatal(err)
		}
		cpu := simcpu.New(model.PeerCores, model.TimeScale)
		e.cpus = append(e.cpus, cpu)
		pcfg := Config{
			ID:           peerID(i),
			Endpoint:     ep,
			Identity:     identity,
			MSP:          e.m,
			Registry:     registry,
			Policy:       pol,
			Model:        model,
			CPU:          cpu,
			VerifyCrypto: verify,
			Channels:     channels,
		}
		if tweakPeer != nil {
			tweakPeer(&pcfg)
		}
		p, err := New(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Stop)
		e.peers = append(e.peers, p)
	}

	enr, err := clientCA.Enroll("user1", ca.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	e.client = msp.NewSigningIdentity(enr)
	sender, err := e.net.Register("client")
	if err != nil {
		t.Fatal(err)
	}
	e.sender = sender
	return e
}

// inject pushes a block to peer i (0-based) as a gossip message from
// the client endpoint.
func (e *env) inject(i int, b *types.Block) {
	e.t.Helper()
	if err := e.sender.Send(peerID(i+1), gossip.KindBlock, &gossip.BlockMsg{Block: b}, b.Size()+8); err != nil {
		e.t.Fatal(err)
	}
}

func orgName(i int) string { return "Org" + string(rune('0'+i)) }
func peerID(i int) string  { return "peer" + string(rune('0'+i)) }

// endorse runs the execute phase against peer i and returns the
// response.
func (e *env) endorse(i int, prop *types.Proposal) *types.ProposalResponse {
	e.t.Helper()
	sig, err := e.client.Sign(nil, prop.Hash())
	if err != nil {
		e.t.Fatal(err)
	}
	raw, err := e.sender.Call(context.Background(), peerID(i+1), KindEndorse,
		&EndorseRequest{Proposal: prop, Sig: sig}, 256)
	if err != nil {
		e.t.Fatal(err)
	}
	return raw.(*types.ProposalResponse)
}

func (e *env) proposal(fn string, args ...string) *types.Proposal {
	nonce := []byte(time.Now().Format("150405.000000000") + fn + args[0])
	creator := e.client.Serialized()
	byteArgs := make([][]byte, 0, len(args))
	for _, a := range args {
		byteArgs = append(byteArgs, []byte(a))
	}
	return &types.Proposal{
		TxID:        types.ComputeTxID(nonce, creator),
		ChannelID:   "perf",
		ChaincodeID: "bench",
		Fn:          fn,
		Args:        byteArgs,
		Creator:     creator,
		Nonce:       nonce,
		Timestamp:   time.Now().UnixNano(),
	}
}

// buildTx assembles an envelope from endorsements by the given peers.
func (e *env) buildTx(prop *types.Proposal, endorsers ...int) *types.Transaction {
	e.t.Helper()
	var rwset *types.RWSet
	var ends []types.Endorsement
	for _, i := range endorsers {
		resp := e.endorse(i, prop)
		if !resp.OK() {
			e.t.Fatalf("endorsement failed: %s", resp.Message)
		}
		rwset = resp.Results
		ends = append(ends, resp.Endorsement)
	}
	return &types.Transaction{Proposal: *prop, Results: *rwset, Endorsements: ends}
}

// deliver hands a block of transactions to peer i and waits for commit.
func (e *env) deliver(i int, txs ...*types.Transaction) *types.Block {
	e.t.Helper()
	p := e.peers[i]
	data := make([][]byte, len(txs))
	for j, tx := range txs {
		data[j] = tx.Marshal()
	}
	num := p.Ledger().Height()
	block := types.NewBlock(num, p.Ledger().LastHash(), data)
	block.Metadata.OrderedTime = time.Now().UnixNano()
	e.inject(i, block)
	if !simtest.Until(5*time.Second, func() bool { return p.Ledger().Height() > num }) {
		e.t.Fatalf("block %d never committed on %s", num, p.ID())
	}
	committed, err := p.Ledger().GetBlock(num)
	if err != nil {
		e.t.Fatal(err)
	}
	return committed
}

func TestEndorseAndCommitValid(t *testing.T) {
	e := newEnv(t, 2, policy.MustParse("AND('Org1.peer0','Org2.peer0')"), true)
	prop := e.proposal("write", "k1", "v1")
	tx := e.buildTx(prop, 0, 1)
	block := e.deliver(0, tx)
	if code := block.Metadata.ValidationFlags[0]; code != types.ValidationValid {
		t.Errorf("code = %s", code)
	}
	vv, ok, _ := e.peers[0].Ledger().State().Get("bench", "k1")
	if !ok || string(vv.Value) != "v1" {
		t.Errorf("state = %+v ok=%v", vv, ok)
	}
}

func TestVSCCRejectsPolicyViolation(t *testing.T) {
	e := newEnv(t, 2, policy.MustParse("AND('Org1.peer0','Org2.peer0')"), true)
	prop := e.proposal("write", "k1", "v1")
	tx := e.buildTx(prop, 0) // only one endorsement, policy needs both
	block := e.deliver(0, tx)
	if code := block.Metadata.ValidationFlags[0]; code != types.ValidationEndorsementPolicyFailure {
		t.Errorf("code = %s, want ENDORSEMENT_POLICY_FAILURE", code)
	}
	if _, ok, _ := e.peers[0].Ledger().State().Get("bench", "k1"); ok {
		t.Error("policy-violating write applied")
	}
}

func TestVSCCRejectsForgedEndorsement(t *testing.T) {
	e := newEnv(t, 2, policy.MustParse("OR('Org1.peer0','Org2.peer0')"), true)
	prop := e.proposal("write", "k1", "v1")
	tx := e.buildTx(prop, 0)
	tx.Endorsements[0].Signature[0] ^= 0xFF
	block := e.deliver(0, tx)
	if code := block.Metadata.ValidationFlags[0]; code != types.ValidationBadSignature {
		t.Errorf("code = %s, want BAD_SIGNATURE", code)
	}
}

func TestMVCCConflictWithinBlock(t *testing.T) {
	e := newEnv(t, 1, policy.MustParse("OR('Org1.peer0')"), false)
	// Two read-modify-write txs on the same key, endorsed against the
	// same snapshot: the first in the block wins, the second conflicts.
	p1 := e.proposal("readwrite", "hot", "v1")
	p2 := e.proposal("readwrite", "hot", "v2")
	tx1 := e.buildTx(p1, 0)
	tx2 := e.buildTx(p2, 0)
	block := e.deliver(0, tx1, tx2)
	flags := block.Metadata.ValidationFlags
	if flags[0] != types.ValidationValid || flags[1] != types.ValidationMVCCConflict {
		t.Errorf("flags = %s, %s", flags[0], flags[1])
	}
	vv, _, _ := e.peers[0].Ledger().State().Get("bench", "hot")
	if string(vv.Value) != "v1" {
		t.Errorf("state = %q, want winner's write", vv.Value)
	}
}

func TestMVCCConflictAcrossBlocks(t *testing.T) {
	e := newEnv(t, 1, policy.MustParse("OR('Org1.peer0')"), false)
	// Both endorsed against the empty snapshot; the first commits in
	// block 1 changing the version, so the second conflicts in block 2.
	p1 := e.proposal("readwrite", "hot", "v1")
	p2 := e.proposal("readwrite", "hot", "v2")
	tx1 := e.buildTx(p1, 0)
	tx2 := e.buildTx(p2, 0)
	b1 := e.deliver(0, tx1)
	if b1.Metadata.ValidationFlags[0] != types.ValidationValid {
		t.Fatalf("block1 flag = %s", b1.Metadata.ValidationFlags[0])
	}
	b2 := e.deliver(0, tx2)
	if b2.Metadata.ValidationFlags[0] != types.ValidationMVCCConflict {
		t.Errorf("block2 flag = %s, want MVCC_READ_CONFLICT", b2.Metadata.ValidationFlags[0])
	}
}

func TestDuplicateTxIDRejected(t *testing.T) {
	e := newEnv(t, 1, policy.MustParse("OR('Org1.peer0')"), false)
	prop := e.proposal("write", "k", "v")
	tx := e.buildTx(prop, 0)
	block := e.deliver(0, tx, tx) // same tx twice in one block
	flags := block.Metadata.ValidationFlags
	if flags[0] != types.ValidationValid || flags[1] != types.ValidationDuplicateTxID {
		t.Errorf("flags = %s, %s", flags[0], flags[1])
	}
	// And replayed in a later block.
	b2 := e.deliver(0, tx)
	if b2.Metadata.ValidationFlags[0] != types.ValidationDuplicateTxID {
		t.Errorf("replay flag = %s", b2.Metadata.ValidationFlags[0])
	}
}

func TestEndorseRejectsDuplicateProposal(t *testing.T) {
	e := newEnv(t, 1, policy.MustParse("OR('Org1.peer0')"), false)
	prop := e.proposal("write", "k", "v")
	tx := e.buildTx(prop, 0)
	e.deliver(0, tx)
	resp := e.endorse(0, prop)
	if resp.OK() {
		t.Error("committed tx re-endorsed")
	}
}

func TestEndorseRejectsBadClientSig(t *testing.T) {
	e := newEnv(t, 1, policy.MustParse("OR('Org1.peer0')"), true)
	prop := e.proposal("write", "k", "v")
	raw, err := e.sender.Call(context.Background(), peerID(1), KindEndorse,
		&EndorseRequest{Proposal: prop, Sig: []byte("forged")}, 256)
	if err != nil {
		t.Fatal(err)
	}
	if raw.(*types.ProposalResponse).OK() {
		t.Error("forged client signature endorsed")
	}
}

func TestEndorseUnknownChaincode(t *testing.T) {
	e := newEnv(t, 1, policy.MustParse("OR('Org1.peer0')"), false)
	prop := e.proposal("write", "k", "v")
	prop.ChaincodeID = "ghost"
	resp := e.endorse(0, prop)
	if resp.OK() {
		t.Error("unknown chaincode endorsed")
	}
}

func TestOutOfOrderDelivery(t *testing.T) {
	e := newEnv(t, 1, policy.MustParse("OR('Org1.peer0')"), false)
	p := e.peers[0]
	// Build two chained blocks but ingest block 2 first; the peer must
	// buffer it and report block 1 missing (catch-up would need an
	// orderer, so deliver 1 afterwards and verify both commit in order).
	tx1 := e.buildTx(e.proposal("write", "a", "1"), 0)
	tx2 := e.buildTx(e.proposal("write", "b", "2"), 0)
	b1 := types.NewBlock(1, p.Ledger().LastHash(), [][]byte{tx1.Marshal()})
	b2 := types.NewBlock(2, b1.Header.Hash(), [][]byte{tx2.Marshal()})

	res, err := p.IngestBlock(b2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fresh || res.MissFrom != 1 || res.MissTo != 2 {
		t.Fatalf("ingest of block 2 = %+v, want fresh with block 1 missing", res)
	}
	if h := p.Ledger().Height(); h != 1 {
		t.Fatalf("height = %d after a future block, want 1", h)
	}
	e.inject(0, b1)
	if !simtest.Until(5*time.Second, func() bool { return p.Ledger().Height() == 3 }) {
		t.Fatalf("height = %d, want 3", p.Ledger().Height())
	}
	if err := p.Ledger().VerifyChain(); err != nil {
		t.Error(err)
	}
}

// TestMalformedProposalChargesNoCPU is the cost-accounting regression
// for the endorse path: a flood of malformed proposals must be rejected
// before EndorseVerifyCPU is charged — real Fabric drops garbage while
// decoding the request, before signature verification — so modeled peer
// CPU busy time stays untouched.
func TestMalformedProposalChargesNoCPU(t *testing.T) {
	e := newEnv(t, 1, policy.OrOverPeers(1), false)
	// Account for the container launch charged at Start.
	base := e.cpus[0].Stats().BusyScaled
	for i := 0; i < 50; i++ {
		resp := e.endorse(0, &types.Proposal{ChannelID: "perf", Creator: e.client.Serialized()})
		if resp.OK() {
			t.Fatal("malformed proposal endorsed")
		}
		if resp.Message != "malformed proposal" {
			t.Fatalf("rejection message = %q", resp.Message)
		}
	}
	if busy := e.cpus[0].Stats().BusyScaled - base; busy != 0 {
		t.Errorf("malformed flood burned %s of modeled peer CPU, want 0", busy)
	}
	// A well-formed proposal still pays the full endorse cost.
	resp := e.endorse(0, e.proposal("write", "k-cost", "v"))
	if !resp.OK() {
		t.Fatalf("valid proposal rejected: %s", resp.Message)
	}
	model := costmodel.Default(0.01)
	// Sub-nanosecond per-byte cost rounds away under the test's time
	// scale; the verify + chaincode-exec floor is what matters here.
	want := model.EndorseVerifyCPU + model.ChaincodeExecCPU
	if busy := time.Duration(float64(e.cpus[0].Stats().BusyScaled-base) / model.TimeScale); busy < want {
		t.Errorf("valid endorsement charged %s, want >= %s", busy, want)
	}
}

// TestContainerBoundsConcurrentInvocations is the scheduling-fairness
// regression for the chaincode executor pool: queued proposals must
// wait in the container, not as timed reservations on the simulated
// CPU's FIFO ledger, or the committer's validate-phase work would queue
// behind the entire endorse backlog. The probe models a commit-stage
// Execute issued while a large endorse backlog is queued: it must
// complete within a few invocation times, not after the whole backlog.
func TestContainerBoundsConcurrentInvocations(t *testing.T) {
	model := costmodel.Default(1.0)
	model.ChaincodeExecCPU = 10 * time.Millisecond
	model.ContainerLaunch = 0
	cpu := simcpu.New(1, 1.0)
	t.Cleanup(cpu.Stop)
	c := newContainer(model, cpu)
	ctx := context.Background()
	if err := c.launch(ctx); err != nil {
		t.Fatal(err)
	}

	const backlog = 50
	var wg sync.WaitGroup
	var started atomic.Int32
	for i := 0; i < backlog; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Add(1)
			_ = c.invoke(ctx, 0)
		}()
	}
	// Let the backlog queue up behind a full executor pool, then probe
	// with committer-style work.
	if !simtest.Until(5*time.Second, func() bool { return started.Load() == backlog && len(c.slots) == cap(c.slots) }) {
		t.Fatal("the endorse backlog never filled the executor pool")
	}
	start := time.Now()
	if err := cpu.Execute(ctx, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	probe := time.Since(start)
	wg.Wait()
	// Unbounded admission would reserve ~50 x 10ms ahead of the probe
	// (~500ms); the executor pool keeps at most Cores() invocations on
	// the ledger, so the probe completes within a small multiple of one
	// invocation. The bound is generous for CI-scheduler jitter.
	if probe > 150*time.Millisecond {
		t.Errorf("probe waited %s behind the endorse backlog, want bounded by the executor pool", probe)
	}
}

// TestContainerLaunchRetriesAfterCancel: a launch cut short by its
// context is not remembered, so a peer whose start was cancelled can
// still launch its container, and then endorse, on a later call.
func TestContainerLaunchRetriesAfterCancel(t *testing.T) {
	model := costmodel.Default(1.0)
	model.ContainerLaunch = 10 * time.Millisecond
	model.ChaincodeExecCPU = time.Millisecond
	cpu := simcpu.New(1, 1.0)
	t.Cleanup(cpu.Stop)
	c := newContainer(model, cpu)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.launch(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("launch under a cancelled context: err = %v, want context.Canceled", err)
	}
	ctx := context.Background()
	start := time.Now()
	if err := c.launch(ctx); err != nil {
		t.Fatalf("launch after a cancelled one: %v", err)
	}
	if took := time.Since(start); took < model.ContainerLaunch {
		t.Errorf("relaunch took %v, want the full %v launch charge", took, model.ContainerLaunch)
	}
	if err := c.invoke(ctx, 0); err != nil {
		t.Fatalf("invoke after the relaunch: %v", err)
	}
}

// emptyChain builds n chained empty blocks 1..n extending the genesis
// block (hash-linked, so the committer's chain check passes).
func emptyChain(n int) []*types.Block {
	prev := types.NewBlock(0, nil, nil).Header.Hash()
	blocks := make([]*types.Block, 0, n)
	for num := 1; num <= n; num++ {
		b := types.NewBlock(uint64(num), prev, nil)
		b.Metadata.OrderedTime = time.Now().UnixNano()
		blocks = append(blocks, b)
		prev = b.Header.Hash()
	}
	return blocks
}

// waitHeight polls one peer's default ledger until it reaches height h.
func waitHeight(t *testing.T, p *Peer, h uint64) {
	t.Helper()
	if !simtest.Until(5*time.Second, func() bool { return p.Ledger().Height() >= h }) {
		t.Fatalf("peer %s height %d never reached %d", p.ID(), p.Ledger().Height(), h)
	}
}

// TestRangedCatchUpSingleRoundTrip is the regression for the
// one-block-at-a-time gap fill: a direct-deliver peer that is N blocks
// behind closes the gap in one KindGetBlocks round trip, its first
// deliver poll.
func TestRangedCatchUpSingleRoundTrip(t *testing.T) {
	e := newEnvFull(t, 1, policy.OrOverPeers(1), false, nil, nil,
		func(cfg *Config) { cfg.OrdererID = "osn9" })
	chain := emptyChain(5)

	type poll struct {
		from   uint64
		served int
	}
	var mu sync.Mutex
	var polls []poll
	osn, err := e.net.Register("osn9")
	if err != nil {
		t.Fatal(err)
	}
	osn.Handle(orderer.KindGetBlocks, func(ctx context.Context, _ string, payload any) (any, int, error) {
		args := payload.(*orderer.GetBlocksArgs)
		reply := &orderer.GetBlocksReply{}
		for num := max(args.From, 1); num < args.To && num <= uint64(len(chain)); num++ {
			reply.Blocks = append(reply.Blocks, chain[num-1])
		}
		mu.Lock()
		polls = append(polls, poll{args.From, len(reply.Blocks)})
		mu.Unlock()
		if len(reply.Blocks) == 0 {
			// Past the tip: hold the poll for its wait, as an OSN does.
			select {
			case <-ctx.Done():
			case <-time.After(args.Wait):
			}
		}
		return reply, 64, nil
	})

	waitHeight(t, e.peers[0], 6)
	mu.Lock()
	defer mu.Unlock()
	if polls[0] != (poll{1, 5}) {
		t.Errorf("first poll = %+v, want from 1 serving all 5 blocks", polls[0])
	}
	if err := e.peers[0].Ledger().VerifyChain(); err != nil {
		t.Error(err)
	}
}

// TestGossipAndDeliverDuplicateCommitsOnce is the duplicate-delivery
// regression: the same block arriving through gossip AND through deliver
// must commit exactly once through the pipelined
// committer. A double commit would wedge the channel's append stage
// (out-of-order append), so continued progress doubles as the check.
func TestGossipAndDeliverDuplicateCommitsOnce(t *testing.T) {
	members := []string{peerID(1), peerID(2)}
	e := newEnvFull(t, 2, policy.OrOverPeers(2), false,
		func(m *costmodel.Model) {
			m.CommitterPool = 2
			m.CommitDepth = 3
		},
		nil,
		func(cfg *Config) {
			cfg.Gossip = &gossip.Config{
				Org:                 "Org1",
				OrgMembers:          members,
				ChannelPeers:        members,
				Fanout:              2,
				AntiEntropyInterval: 25 * time.Millisecond,
				LeaderLease:         150 * time.Millisecond,
			}
		})
	chain := emptyChain(3)
	ingest := func(peerIdx int, b *types.Block) {
		t.Helper()
		if _, err := e.peers[peerIdx].IngestBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	// Block 1 reaches peer1 by a push; gossip forwards it to peer2; then
	// both peers get the same block again straight into IngestBlock, as
	// a deliver reply hands it over.
	e.inject(0, chain[0])
	waitHeight(t, e.peers[0], 2)
	waitHeight(t, e.peers[1], 2)
	ingest(0, chain[0])
	ingest(1, chain[0])
	// Blocks 2 and 3 flow only through peer1; gossip must carry them to
	// peer2 past the duplicate replays.
	e.inject(0, chain[1])
	e.inject(0, chain[2])
	waitHeight(t, e.peers[0], 4)
	waitHeight(t, e.peers[1], 4)
	if h := e.peers[0].Ledger().Height(); h != 4 {
		t.Errorf("height = %d, want exactly 4", h)
	}
	if err := ledger.Agree(e.peers[0].Ledger(), e.peers[1].Ledger()); err != nil {
		t.Errorf("peers diverged after duplicate delivery: %v", err)
	}
}

// newEndorseEnv is a one-peer env that measures the endorser's host
// cost: the peer signs with the HMAC scheme the benchmark networks use,
// and the proposal checks and chaincode cost no modeled CPU. VerifyCrypto
// is off, so no node checks the peer's signature against the MSP.
func newEndorseEnv(tb testing.TB) *env {
	tb.Helper()
	authority, err := ca.New(orgName(1), fabcrypto.SchemeHMAC)
	if err != nil {
		tb.Fatal(err)
	}
	enr, err := authority.Enroll("peer0", ca.RolePeer)
	if err != nil {
		tb.Fatal(err)
	}
	return newEnvFull(tb, 1, policy.OrOverPeers(1), false,
		func(m *costmodel.Model) { m.EndorseVerifyCPU, m.ChaincodeExecCPU, m.ChaincodePerByteCPU = 0, 0, 0 },
		nil, func(c *Config) { c.Identity = msp.NewSigningIdentity(enr) })
}

// oneWriteProposal returns a signed KVStore proposal that simulates to
// one write, and its client signature.
func (e *env) oneWriteProposal() (*types.Proposal, []byte) {
	prop := e.proposal("write", "k", "v")
	sig, err := e.client.Sign(nil, prop.Hash())
	if err != nil {
		e.t.Fatal(err)
	}
	return prop, sig
}

// TestHandleEndorseAllocs pins the endorser's allocations on a
// one-write KVStore proposal, called in-package, at 2: the value copy
// and the reply, which holds the simulator, the ESCC message and the
// signature (Go interns the one-byte key string, and KVStore's "OK" is
// shared). It took 5 when the ESCC message, the signature and the "OK"
// were allocations of their own, 6 when the simulator was an object of
// its own too, and 11 when the set was marshaled to be hashed, the two
// digests and the response were separate objects, the identity string
// was concatenated per call and the first write grew an empty slice.
func TestHandleEndorseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	e := newEndorseEnv(t)
	prop, sig := e.oneWriteProposal()
	req := &EndorseRequest{Proposal: prop, Sig: sig}
	ctx := context.Background()
	endorse := func() {
		raw, _, err := e.peers[0].handleEndorse(ctx, "client", req)
		if err != nil || !raw.(*types.ProposalResponse).OK() {
			t.Fatalf("endorse: %v %+v", err, raw)
		}
	}
	if allocs := testing.AllocsPerRun(100, endorse); allocs > 2 {
		t.Errorf("handleEndorse: %.1f allocations, want <= 2", allocs)
	}
}

// BenchmarkEndorse times one KindEndorse call for a one-write KVStore
// proposal through the in-memory transport, simulated CPU included.
func BenchmarkEndorse(b *testing.B) {
	e := newEndorseEnv(b)
	prop, sig := e.oneWriteProposal()
	req := &EndorseRequest{Proposal: prop, Sig: sig}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.sender.Call(ctx, peerID(1), KindEndorse, req, 256); err != nil {
			b.Fatal(err)
		}
	}
}
