// Package peer implements the peer node: the endorser that serves the
// execute phase (proposal checks, chaincode simulation, ESCC signing)
// and the committer that serves the validate phase (VSCC endorsement-
// policy validation, MVCC read-conflict checking, ledger commit, and
// commit-event delivery back to clients). Every peer validates and
// commits every block; a subset additionally endorses, matching the
// paper's architecture where "machines in the first phase are also
// involved in the third phase".
package peer

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"fabricsim/internal/chaincode"
	"fabricsim/internal/costmodel"
	"fabricsim/internal/fabcrypto"
	"fabricsim/internal/gossip"
	"fabricsim/internal/ledger"
	"fabricsim/internal/metrics"
	"fabricsim/internal/msp"
	"fabricsim/internal/orderer"
	"fabricsim/internal/policy"
	"fabricsim/internal/simcpu"
	"fabricsim/internal/trace"
	"fabricsim/internal/transport"
	"fabricsim/internal/types"
)

// Message kinds on the transport.
const (
	// KindEndorse is the client -> peer proposal submission.
	KindEndorse = "peer.endorse"
	// KindSubscribeEvents registers a client for commit events.
	KindSubscribeEvents = "peer.subscribe"
	// KindCommitEvent is the peer -> client batched commit notification.
	KindCommitEvent = "peer.commitevent"
)

// Errors returned by the endorser.
var (
	ErrDuplicateTx = errors.New("peer: duplicate transaction ID")
	ErrStopped     = errors.New("peer: stopped")
)

// EndorseRequest is the execute-phase request.
type EndorseRequest struct {
	Proposal *types.Proposal
	// Sig is the client's signature over the proposal hash.
	Sig []byte
}

// CommitEvent notifies a client of one transaction's final outcome.
type CommitEvent struct {
	TxID        types.TxID
	Code        types.ValidationCode
	BlockNum    uint64
	OrderedTime int64 // unix nanos when the block was cut
	CommitTime  int64 // unix nanos when this peer committed
}

// Config parameterizes a peer.
type Config struct {
	// ID is the peer's transport identifier (also its MSP name scope).
	ID string
	// Endpoint is the peer's network attachment.
	Endpoint transport.Endpoint
	// Identity is the peer's signing identity (from its org CA).
	Identity *msp.SigningIdentity
	// MSP validates client and endorser identities.
	MSP *msp.MSP
	// Registry holds installed chaincodes.
	Registry *chaincode.Registry
	// Policy is the channel's endorsement policy (validated by VSCC).
	Policy policy.Policy
	// Model is the calibrated cost model.
	Model costmodel.Model
	// CPU is this peer machine's simulated CPU.
	CPU *simcpu.CPU
	// OrdererID is the OSN this peer pulls blocks from.
	OrdererID string
	// VerifyCrypto enables real signature verification in addition to
	// modeled CPU cost. Correctness tests enable it; large sweeps rely
	// on the cost model alone.
	VerifyCrypto bool
	// Collector, when non-nil, receives every block this peer commits
	// (commit lag) and, on the Recorder peer, each block's commit-stage
	// breakdown. The gossip node reports its events to it too.
	Collector *metrics.Collector
	// Channels lists the channels this peer joins; the peer keeps an
	// independent ledger, state DB, and commit pipeline per channel, so
	// validation on one channel never serializes behind another. Empty
	// means the single orderer.DefaultChannel. The first entry is the
	// default channel for untagged blocks and proposals.
	Channels []string
	// Gossip configures the peer's gossip node, its only way to receive
	// blocks. Non-nil enables org dissemination: only elected org
	// leaders pull from the orderer, everyone else receives blocks
	// peer-to-peer and converges through anti-entropy. The peer fills in
	// ID, Endpoint, Channels, OrdererID, Sink, SnapshotSink, Collector and
	// Tracer; the caller provides membership and tuning (including
	// SnapshotThreshold for snapshot-then-tail repair). Nil is direct
	// deliver: an org of one, so the peer leads every channel and pulls
	// from OrdererID itself, with directDeliverLease as its lease.
	Gossip *gossip.Config
	// StorageBackend selects the per-channel ledger storage engine
	// ("mem" default, "file" persistent); see ledger.Options.
	StorageBackend string
	// StorageDir roots file-backed storage; each channel gets the
	// subdirectory StorageDir/<channel>. Required for the file backend.
	StorageDir string
	// CheckpointInterval is the ledger checkpoint cadence in blocks
	// (file backend; 0 = ledger.DefaultCheckpointInterval).
	CheckpointInterval uint64
	// Tracer records lifecycle spans for traced transactions; nil (the
	// default) disables tracing at zero cost. Endorser spans are recorded
	// by every endorsing peer that serves a traced proposal.
	Tracer *trace.Tracer
	// Recorder marks this peer as the network's per-block recorder: every
	// peer validates every block, so exactly one peer records commit-stage
	// events, commit spans and block origins, or each would be counted
	// once per peer.
	Recorder bool
}

// channelState is one channel's ledger and commit pipeline on a peer.
type channelState struct {
	id     string
	ledger *ledger.Ledger

	// ingestMu serializes whole IngestBlock calls: deliver replies,
	// gossip forwards, and ranged pulls ingest
	// concurrently, and the drained blocks must enter commitCh in the
	// order drainReadyLocked produced them — releasing cs.mu between
	// the drain and the sends would let two ingesters interleave their
	// sends and wedge the hash-chain check. Never held by the commit
	// loops, so blocking on a full commitCh cannot deadlock.
	ingestMu sync.Mutex

	mu        sync.Mutex
	nextBlock uint64
	pending   map[uint64]*types.Block // out-of-order delivery buffer
	commitCh  chan *types.Block

	// Commit-pipeline plumbing (see committer.go): applyCh and appendCh
	// carry in-flight blocks between the stage loops in delivery order;
	// tokens bounds the blocks in flight to Model.CommitDepth.
	applyCh  chan *pipelinedBlock
	appendCh chan *pipelinedBlock
	tokens   chan struct{}

	// snapMu guards the serving-side snapshot chunk cache (snapshot.go):
	// chunk-0 requests regenerate it, later chunks are served from it so
	// one transfer sees a single consistent snapshot.
	snapMu     sync.Mutex
	snapBlob   []byte
	snapHeight uint64
}

// Peer is one peer node.
type Peer struct {
	cfg Config

	container *container
	// gossip is the block-dissemination agent and the peer's only
	// orderer-deliver client.
	gossip *gossip.Node

	// channels is immutable after New.
	channels    map[string]*channelState
	channelList []string

	mu          sync.Mutex
	subscribers map[string]struct{}
	stopped     bool

	stopCh    chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
}

// New creates a peer and registers its transport handlers. With the
// file storage backend, a peer whose StorageDir holds an earlier life's
// ledgers reopens them — recovering each channel from its latest
// checkpoint plus the block-store tail — and resumes committing at the
// recovered height instead of replaying from genesis.
func New(cfg Config) (*Peer, error) {
	if len(cfg.Channels) == 0 {
		cfg.Channels = []string{orderer.DefaultChannel}
	}
	p := &Peer{
		cfg:         cfg,
		channels:    make(map[string]*channelState, len(cfg.Channels)),
		channelList: append([]string(nil), cfg.Channels...),
		subscribers: make(map[string]struct{}),
		stopCh:      make(chan struct{}),
		done:        make(chan struct{}),
	}
	depth := cfg.Model.CommitDepth
	if depth < 1 {
		depth = 1
	}
	for _, ch := range cfg.Channels {
		lopts := ledger.Options{
			Backend:            cfg.StorageBackend,
			CheckpointInterval: cfg.CheckpointInterval,
		}
		if cfg.StorageDir != "" {
			lopts.Dir = filepath.Join(cfg.StorageDir, ch)
		}
		led, err := ledger.Open(lopts)
		if err != nil {
			for _, prev := range p.channels {
				prev.ledger.Close()
			}
			return nil, fmt.Errorf("peer %s: open ledger for channel %s: %w", cfg.ID, ch, err)
		}
		p.channels[ch] = &channelState{
			id:        ch,
			ledger:    led,
			nextBlock: led.Height(), // 1 on a fresh chain, the tail on reopen
			pending:   make(map[uint64]*types.Block),
			commitCh:  make(chan *types.Block, 1024),
			applyCh:   make(chan *pipelinedBlock, depth),
			appendCh:  make(chan *pipelinedBlock, depth),
			tokens:    make(chan struct{}, depth),
		}
	}
	p.container = newContainer(cfg.Model, cfg.CPU)
	cfg.Endpoint.Handle(KindEndorse, p.handleEndorse)
	cfg.Endpoint.Handle(KindSubscribeEvents, p.handleSubscribe)
	cfg.Endpoint.Handle(KindGetSnapshot, p.handleGetSnapshot)
	gcfg := gossip.Config{
		OrgMembers:  []string{cfg.ID},
		LeaderLease: cfg.Model.ScaledDelay(directDeliverLease),
	}
	if cfg.Gossip != nil {
		gcfg = *cfg.Gossip
	}
	gcfg.ID = cfg.ID
	gcfg.Endpoint = cfg.Endpoint
	gcfg.Channels = cfg.Channels
	gcfg.OrdererID = cfg.OrdererID
	gcfg.Sink = p
	gcfg.SnapshotSink = p
	gcfg.Collector = cfg.Collector
	if cfg.Recorder {
		gcfg.Tracer = cfg.Tracer
	}
	p.gossip = gossip.NewNode(gcfg)
	return p, nil
}

// ID returns the peer's node identifier.
func (p *Peer) ID() string { return p.cfg.ID }

// Channels returns the channel IDs this peer joined, default first.
func (p *Peer) Channels() []string {
	return append([]string(nil), p.channelList...)
}

// channelFor resolves a channel ID ("" means the default channel).
func (p *Peer) channelFor(channel string) (*channelState, bool) {
	if channel == "" {
		channel = p.channelList[0]
	}
	cs, ok := p.channels[channel]
	return cs, ok
}

// Ledger exposes the peer's default-channel ledger for inspection.
func (p *Peer) Ledger() *ledger.Ledger {
	cs, _ := p.channelFor("")
	return cs.ledger
}

// LedgerFor exposes the ledger of one channel.
func (p *Peer) LedgerFor(channel string) (*ledger.Ledger, bool) {
	cs, ok := p.channelFor(channel)
	if !ok {
		return nil, false
	}
	return cs.ledger, true
}

// Start launches the per-channel commit pipelines, instantiates the
// chaincode container, and joins block dissemination through the gossip
// node: org leaders pull from the orderer from their own height, so a
// peer joining or rejoining a running network catches up in its first
// poll; everyone else listens peer-to-peer.
func (p *Peer) Start(ctx context.Context) error {
	p.startOnce.Do(p.launchCommitLoops)
	if err := p.container.launch(ctx); err != nil {
		return fmt.Errorf("peer %s: launch container: %w", p.cfg.ID, err)
	}
	p.gossip.Start()
	return nil
}

// directDeliverLease is a direct-deliver peer's gossip lease (model
// time). An org of one has no rival to hand off to, so the lease only
// bounds one deliver long poll and spaces the retries of a failed one.
const directDeliverLease = 1250 * time.Millisecond

func (p *Peer) launchCommitLoops() {
	for _, cs := range p.channels {
		for _, loop := range []func(*channelState){p.vsccLoop, p.applyLoop, p.appendLoop} {
			p.wg.Add(1)
			go func(loop func(*channelState), cs *channelState) {
				defer p.wg.Done()
				loop(cs)
			}(loop, cs)
		}
	}
	go func() {
		p.wg.Wait()
		close(p.done)
	}()
}

// Stop halts the peer. Safe to call on a peer that was never started.
func (p *Peer) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	p.mu.Unlock()
	p.gossip.Stop()
	// Ensure the commit loops exist so <-p.done terminates.
	p.startOnce.Do(p.launchCommitLoops)
	close(p.stopCh)
	<-p.done
	// With the pipelines drained, release the storage backends. A
	// file-backed peer can be rebuilt from the same StorageDir.
	for _, cs := range p.channels {
		cs.ledger.Close()
	}
}

// GossipNode exposes the peer's gossip agent; a direct-deliver peer's
// node is an org of one that leads every channel. Tests and diagnostics
// inspect leadership through it.
func (p *Peer) GossipNode() *gossip.Node { return p.gossip }

// --- Execute phase: endorsement ---

// handleEndorse runs the endorser: verify the proposal, simulate the
// chaincode in the container, sign the response (ESCC).
func (p *Peer) handleEndorse(ctx context.Context, _ string, payload any) (any, int, error) {
	req, ok := payload.(*EndorseRequest)
	if !ok {
		return nil, 0, fmt.Errorf("peer: bad endorse payload %T", payload)
	}
	entry := time.Now()
	prop := req.Proposal
	cs, ok := p.channelFor(prop.ChannelID)
	if !ok {
		return p.endorseFailure(prop, fmt.Sprintf("peer %s: not joined to channel %q", p.cfg.ID, prop.ChannelID))
	}

	// 1) Proposal checks: well-formed, signature, authorization,
	// duplicate (the four checks of Section II). Malformedness is
	// checked before any cost is charged: real Fabric drops garbage
	// while decoding the request, before signature verification, so a
	// flood of malformed proposals must not burn modeled endorser CPU.
	if prop.TxID == "" || prop.ChaincodeID == "" {
		return p.endorseFailure(prop, "malformed proposal")
	}
	if err := p.cfg.CPU.Execute(ctx, p.cfg.Model.EndorseVerifyCPU); err != nil {
		return nil, 0, err
	}
	if p.cfg.VerifyCrypto {
		if _, err := p.cfg.MSP.VerifySignature(prop.Creator, prop.Hash(), req.Sig); err != nil {
			return p.endorseFailure(prop, "bad client signature: "+err.Error())
		}
	} else if _, err := p.cfg.MSP.ValidateIdentity(prop.Creator); err != nil {
		return p.endorseFailure(prop, "unknown creator: "+err.Error())
	}
	if cs.ledger.HasTx(prop.TxID) {
		return p.endorseFailure(prop, ErrDuplicateTx.Error())
	}

	// 2) Chaincode execution against the committed state snapshot.
	cc, err := p.cfg.Registry.Get(prop.ChaincodeID)
	if err != nil {
		return p.endorseFailure(prop, err.Error())
	}
	valueBytes := 0
	for _, a := range prop.Args {
		valueBytes += len(a)
	}
	reply := &endorseReply{sim: chaincode.MakeSimulator(prop.TxID, prop.ChaincodeID, cs.ledger.State())}
	ccStart := time.Now()
	if err := p.container.invoke(ctx, valueBytes); err != nil {
		return nil, 0, err
	}
	ccPayload, err := cc.Invoke(&reply.sim, prop.Fn, prop.Args)
	if err != nil {
		return p.endorseFailure(prop, "chaincode: "+err.Error())
	}
	ccEnd := time.Now()
	rwset := reply.sim.RWSet()
	copy(reply.resultsHash[:], rwset.Hash())

	// 3) ESCC: sign proposal hash || results hash. The message and the
	// signature live in the reply, so neither is an allocation of its
	// own; the copy keeps the digest from escaping through Sign's
	// interface call.
	copy(reply.escc[:], fabcrypto.Digest(prop.Hash(), reply.resultsHash[:]))
	sig, err := p.cfg.Identity.Sign(reply.sig[:0], reply.escc[:])
	if err != nil {
		return nil, 0, fmt.Errorf("peer %s: escc sign: %w", p.cfg.ID, err)
	}
	reply.resp = types.ProposalResponse{
		TxID:        prop.TxID,
		Status:      200,
		ResultsHash: reply.resultsHash[:],
		Results:     rwset,
		Payload:     ccPayload,
		Endorsement: types.Endorsement{
			EndorserID:  p.cfg.Identity.ID(),
			EndorserOrg: p.cfg.Identity.Org(),
			Signature:   sig,
		},
	}
	if p.cfg.Tracer.Enabled() && prop.TraceID != "" {
		// queue-wait covers proposal checks plus simulated-CPU queueing
		// ahead of the chaincode; chaincode is the container invoke.
		p.cfg.Tracer.Record(trace.TraceID(prop.TraceID), trace.SpanEndorserExecute,
			p.cfg.ID, entry, time.Now(),
			"queue-wait", ccStart.Sub(entry).String(),
			"chaincode", ccEnd.Sub(ccStart).String())
	}
	return &reply.resp, rwset.Size() + 128, nil
}

// endorseReply is an endorsement's one allocation: the response, the
// simulator whose read-write set its Results points to, the results hash
// its ResultsHash points into, the ESCC message and the signature its
// Endorsement holds. An HMAC signature fits sig; a longer one (ECDSA's
// 64 bytes) grows out of it by append.
type endorseReply struct {
	resp        types.ProposalResponse
	sim         chaincode.Simulator
	resultsHash [sha256.Size]byte
	escc        [sha256.Size]byte
	sig         [sha256.Size]byte
}

func (p *Peer) endorseFailure(prop *types.Proposal, msg string) (any, int, error) {
	return &types.ProposalResponse{TxID: prop.TxID, Status: 500, Message: msg}, len(msg) + 64, nil
}

// --- Validate phase: deliver, validate, commit ---

// handleSubscribe registers a client for commit events.
func (p *Peer) handleSubscribe(_ context.Context, from string, _ any) (any, int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.subscribers[from] = struct{}{}
	return "OK", 2, nil
}

// IngestBlock routes one block to its channel's commit pipeline,
// restoring per-channel order: in-order blocks (plus any buffered
// successors) enter the pipeline, out-of-order blocks are buffered and
// the missing range is reported for the gossip node to pull.
// Blocks the peer already owns are dropped, so the same block arriving
// via gossip and deliver commits exactly once. This is the peer's
// gossip.Sink surface.
func (p *Peer) IngestBlock(block *types.Block) (gossip.IngestResult, error) {
	cs, ok := p.channelFor(block.Metadata.ChannelID)
	if !ok {
		return gossip.IngestResult{}, fmt.Errorf("peer %s: block for unknown channel %q", p.cfg.ID, block.Metadata.ChannelID)
	}
	p.mu.Lock()
	stopped := p.stopped
	p.mu.Unlock()
	if stopped {
		return gossip.IngestResult{}, ErrStopped
	}
	cs.ingestMu.Lock()
	defer cs.ingestMu.Unlock()
	cs.mu.Lock()
	num := block.Header.Number
	switch {
	case num < cs.nextBlock:
		cs.mu.Unlock()
		return gossip.IngestResult{}, nil // already have it
	case num > cs.nextBlock:
		if _, buffered := cs.pending[num]; buffered {
			cs.mu.Unlock()
			return gossip.IngestResult{}, nil
		}
		cs.pending[num] = block
		missing := cs.nextBlock
		cs.mu.Unlock()
		return gossip.IngestResult{Fresh: true, MissFrom: missing, MissTo: num}, nil
	}
	ready := drainReadyLocked(cs, block)
	cs.mu.Unlock()
	for _, b := range ready {
		select {
		case cs.commitCh <- b:
		case <-p.stopCh:
			return gossip.IngestResult{}, ErrStopped
		}
	}
	return gossip.IngestResult{Fresh: true}, nil
}

// NextBlock reports the next block number a channel needs (the
// gossip.Sink digest surface).
func (p *Peer) NextBlock(channel string) uint64 {
	cs, ok := p.channelFor(channel)
	if !ok {
		return 0
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.nextBlock
}

// BlockAt serves one committed channel block (the gossip.Sink pull
// surface).
func (p *Peer) BlockAt(channel string, num uint64) (*types.Block, bool) {
	cs, ok := p.channelFor(channel)
	if !ok {
		return nil, false
	}
	b, err := cs.ledger.GetBlock(num)
	if err != nil {
		return nil, false
	}
	return b, true
}

// drainReadyLocked collects the in-order block plus any buffered
// successors; callers hold cs.mu.
func drainReadyLocked(cs *channelState, block *types.Block) []*types.Block {
	ready := []*types.Block{block}
	cs.nextBlock = block.Header.Number + 1
	for {
		nxt, ok := cs.pending[cs.nextBlock]
		if !ok {
			break
		}
		delete(cs.pending, cs.nextBlock)
		ready = append(ready, nxt)
		cs.nextBlock = nxt.Header.Number + 1
	}
	return ready
}

// runVSCC validates one transaction's endorsements against the channel
// policy and returns a rejection code, or ValidationPending to let the
// serial walk continue. The modeled CPU cost is charged block-wide by
// the caller; this function performs the real checks. ids is the
// caller's scratch for the endorser list, with room for all of tx's.
func (p *Peer) runVSCC(tx *types.Transaction, ids []string) types.ValidationCode {
	if len(tx.Endorsements) == 0 {
		return types.ValidationEndorsementPolicyFailure
	}
	if p.cfg.VerifyCrypto {
		// The message ESCC signed in handleEndorse.
		signedMsg := fabcrypto.Digest(tx.Proposal.Hash(), tx.Results.Hash())
		for _, en := range tx.Endorsements {
			if p.cfg.MSP.VerifyByID(en.EndorserID, signedMsg, en.Signature) != nil {
				return types.ValidationBadSignature
			}
		}
	}
	ids = ids[:0]
	for _, en := range tx.Endorsements {
		ids = append(ids, en.EndorserID)
	}
	if !p.cfg.Policy.Satisfied(policy.NewPrincipalSet(ids...)) {
		return types.ValidationEndorsementPolicyFailure
	}
	return types.ValidationPending
}

// stateKey is one namespace-qualified key of the MVCC walk's dirty set.
type stateKey struct{ ns, key string }

// mvccValid checks a transaction's read set against the channel's
// committed versions and the keys already written by earlier valid txs
// in the same block. Channels have disjoint state DBs, so the same key
// on two channels never conflicts.
func (p *Peer) mvccValid(cs *channelState, tx *types.Transaction, dirty map[stateKey]struct{}) bool {
	ns := tx.Proposal.ChaincodeID
	for _, r := range tx.Results.Reads {
		if _, conflict := dirty[stateKey{ns, r.Key}]; conflict {
			return false
		}
		committed, exists, err := cs.ledger.State().Version(ns, r.Key)
		if err != nil {
			return false
		}
		if exists != r.Exists {
			return false
		}
		if exists && committed.Compare(r.Version) != 0 {
			return false
		}
	}
	return true
}

// emitCommitEvents pushes one block's commit events, batched into one
// message per subscribed gateway: the only way a client learns a
// transaction's outcome.
func (p *Peer) emitCommitEvents(block *types.Block, txs []*types.Transaction, committedAt time.Time) {
	events := make([]CommitEvent, 0, len(txs))
	for i, tx := range txs {
		events = append(events, CommitEvent{
			TxID:        tx.ID(),
			Code:        block.Metadata.ValidationFlags[i],
			BlockNum:    block.Header.Number,
			OrderedTime: block.Metadata.OrderedTime,
			CommitTime:  committedAt.UnixNano(),
		})
	}
	p.mu.Lock()
	subs := make([]string, 0, len(p.subscribers))
	for s := range p.subscribers {
		subs = append(subs, s)
	}
	p.mu.Unlock()
	size := 48 * len(events)
	for _, sub := range subs {
		_ = p.cfg.Endpoint.Send(sub, KindCommitEvent, events, size)
	}
}
