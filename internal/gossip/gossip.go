// Package gossip implements peer-to-peer block dissemination, the layer
// real Fabric uses to keep ordering-service egress independent of the
// peer count. Per channel and per organization, one elected leader peer
// pulls blocks from the orderer's deliver service by long poll, from its
// own ledger height (lease-based re-election replaces a dead leader);
// every other peer receives blocks via push gossip from org members —
// fanout-bounded, hop-count-tagged messages with duplicate suppression
// keyed on channel + block number — and runs periodic anti-entropy: a
// digest exchange of ledger heights with a random peer followed by
// ranged block pulls, so crashed or lagging peers converge without
// orderer involvement.
//
// A node is the only orderer-deliver client there is: a peer deployed
// without gossip is a node whose org is itself, so it always leads,
// never pushes, and never runs anti-entropy. Every fetch, a leader's
// deliver poll to an OSN or a pull from a peer's ledger, is one
// orderer.KindGetBlocks message.
//
// The package is deliberately ignorant of validation and commit: it
// moves blocks between nodes and hands them to a Sink (the peer's
// commit pipeline). The orderer remains the only source of truth for
// ordering; gossip only changes who carries the bytes.
package gossip

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"fabricsim/internal/metrics"
	"fabricsim/internal/orderer"
	"fabricsim/internal/simcpu"
	"fabricsim/internal/trace"
	"fabricsim/internal/transport"
	"fabricsim/internal/types"
)

// Message kinds on the transport.
const (
	// KindBlock is the peer -> peer push-gossip block message.
	KindBlock = "gossip.block"
	// KindDigest is the anti-entropy height exchange (request/response,
	// both directions carry a DigestMsg).
	KindDigest = "gossip.digest"
	// KindBeat is the org-leader lease heartbeat.
	KindBeat = "gossip.beat"
	// KindPing probes liveness during leader election.
	KindPing = "gossip.ping"
)

// BlockMsg is the KindBlock payload: a block plus the number of gossip
// hops it has already traveled (0 = sent by the peer that received it
// from the orderer).
type BlockMsg struct {
	Block *types.Block
	Hops  int
}

// DigestMsg carries one node's ledger heights (next needed block number
// per channel) during anti-entropy.
type DigestMsg struct {
	Heights map[string]uint64
}

// Beat is the org leader's lease heartbeat for one channel.
type Beat struct {
	Channel string
	Org     string
	Leader  string
	Term    uint64
}

// maxPullBatch caps one orderer.KindGetBlocks reply served from a
// peer's ledger; a far-behind peer pages.
const maxPullBatch = 64

// IngestResult reports what a Sink did with a handed-over block.
type IngestResult struct {
	// Fresh is true when the block was new to the sink (queued for
	// commit or buffered out of order) — the signal to keep gossiping
	// it. False means the sink already had it.
	Fresh bool
	// MissFrom/MissTo name the gap [MissFrom, MissTo) the block ran
	// ahead of; equal values mean no gap.
	MissFrom uint64
	MissTo   uint64
}

// Sink is the gossip node's hand-off to the local peer: block ingest
// into the commit pipeline plus the ledger reads that serve digests and
// pulls.
type Sink interface {
	// IngestBlock routes one block toward the commit pipeline.
	IngestBlock(block *types.Block) (IngestResult, error)
	// NextBlock returns the next block number the channel needs (blocks
	// below it are owned; buffered out-of-order blocks do not count).
	NextBlock(channel string) uint64
	// BlockAt returns a committed channel block, if available.
	BlockAt(channel string, num uint64) (*types.Block, bool)
}

// SnapshotSink is the optional snapshot-bootstrap surface of the local
// peer: fetch a remote peer's ledger snapshot for one channel, install
// it, and return the height the chain now needs its next block at. The
// gossip node uses it to close wide gaps snapshot-first (see
// Config.SnapshotThreshold); errors fall back to ranged block pulls.
type SnapshotSink interface {
	FetchSnapshot(ctx context.Context, from, channel string) (uint64, error)
}

// Config parameterizes a gossip node. All durations are wall-clock; the
// caller scales model time beforehand (costmodel.ScaledDelay).
type Config struct {
	// ID is the local node's transport identifier.
	ID string
	// Org names the node's organization (the push-gossip scope).
	Org string
	// Endpoint is the node's network attachment (shared with the peer).
	Endpoint transport.Endpoint
	// Channels lists the channels the node participates in; the first
	// entry is the default channel for untagged blocks.
	Channels []string
	// OrgMembers lists the node IDs of the local org's peers, self
	// included. Push gossip and leader election run over this set.
	OrgMembers []string
	// ChannelPeers lists every peer in the network; anti-entropy picks
	// its partners here, so convergence crosses org boundaries.
	ChannelPeers []string
	// OrdererID is the OSN the elected leader pulls blocks from.
	OrdererID string
	// Sink is the local peer's ingest/serve surface.
	Sink Sink
	// Fanout is how many org members each fresh block is pushed to
	// (default 3, clamped to the org size).
	Fanout int
	// AntiEntropyInterval is the digest-exchange period (default 250ms).
	AntiEntropyInterval time.Duration
	// LeaderLease is how long a leader's heartbeat holds off
	// re-election (default 1s); beats go out every LeaderLease/4. It
	// also bounds one deliver long poll, and a failed poll is retried
	// after LeaderLease/4.
	LeaderLease time.Duration
	// Collector, when non-nil, counts this node's accepted blocks (by
	// source and hop count), duplicates, anti-entropy pulls, leader
	// elections and snapshot bootstraps.
	Collector *metrics.Collector
	// Tracer, when non-nil, records which source each freshly accepted
	// block arrived by, so commit spans can carry its origin.
	Tracer *trace.Tracer
	// SnapshotSink, when non-nil together with a positive
	// SnapshotThreshold, enables snapshot-then-tail repair: a height gap
	// of at least SnapshotThreshold blocks is closed by fetching the
	// remote peer's ledger snapshot and pulling only the tail, instead
	// of replaying the whole gap block by block. The peer provides this
	// (its FetchSnapshot method); leave nil to always pull blocks.
	SnapshotSink SnapshotSink
	// SnapshotThreshold is the minimum gap width (blocks) that triggers
	// a snapshot bootstrap; 0 or negative disables the path.
	SnapshotThreshold int
	// Seed fixes the node's randomness (peer/fanout selection); 0
	// derives one from the node ID.
	Seed int64
}

// maxHops bounds a block message's gossip path length; anti-entropy
// reaches the peers a push path does not.
const maxHops = 4

func (c *Config) applyDefaults() {
	if c.Fanout < 1 {
		c.Fanout = 3
	}
	if c.AntiEntropyInterval <= 0 {
		c.AntiEntropyInterval = 250 * time.Millisecond
	}
	if c.LeaderLease <= 0 {
		c.LeaderLease = time.Second
	}
	if c.Seed == 0 {
		h := fnv.New64a()
		_, _ = h.Write([]byte(c.ID))
		c.Seed = int64(h.Sum64())
	}
}

// Node is one peer's gossip agent.
type Node struct {
	cfg Config

	// members is OrgMembers sorted; rank arithmetic indexes into it.
	members []string
	// others is ChannelPeers minus self (anti-entropy partners).
	others []string

	mu        sync.Mutex
	rng       *rand.Rand
	elections map[string]*electionState
	pulling   map[string]bool // channel -> a ranged pull is in flight
	stopped   bool

	// ctx bounds every call the node makes; Stop cancels it, so Stop
	// never waits out a parked deliver poll or a slow pull.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// goRun launches a tracked background task unless the node is stopped.
// The stopped check and the WaitGroup Add share the node mutex so Stop's
// Wait can never race an Add on a drained counter.
func (n *Node) goRun(f func()) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.wg.Add(1)
	n.mu.Unlock()
	go func() {
		defer n.wg.Done()
		f()
	}()
}

// NewNode creates a gossip node and registers its transport handlers.
// Call Start to begin electing and disseminating.
func NewNode(cfg Config) *Node {
	cfg.applyDefaults()
	if len(cfg.Channels) == 0 {
		cfg.Channels = []string{orderer.DefaultChannel}
	}
	n := &Node{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		elections: make(map[string]*electionState, len(cfg.Channels)),
		pulling:   make(map[string]bool, len(cfg.Channels)),
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	n.members = append([]string(nil), cfg.OrgMembers...)
	sort.Strings(n.members)
	for _, p := range cfg.ChannelPeers {
		if p != cfg.ID {
			n.others = append(n.others, p)
		}
	}
	for _, ch := range cfg.Channels {
		n.elections[ch] = &electionState{}
	}
	cfg.Endpoint.Handle(KindBlock, n.handleBlock)
	cfg.Endpoint.Handle(KindDigest, n.handleDigest)
	cfg.Endpoint.Handle(orderer.KindGetBlocks, n.handleGetBlocks)
	cfg.Endpoint.Handle(KindBeat, n.handleBeat)
	cfg.Endpoint.Handle(KindPing, n.handlePing)
	return n
}

// Start claims initial leaderships and launches the election and
// anti-entropy loops.
func (n *Node) Start() {
	for _, ch := range n.cfg.Channels {
		if n.rankOf(ch, n.cfg.ID) == 0 {
			n.becomeLeader(ch)
		} else {
			es := n.elections[ch]
			n.mu.Lock()
			es.lastBeat = time.Now()
			n.mu.Unlock()
		}
	}
	n.wg.Add(2)
	go n.electionLoop()
	go n.antiEntropyLoop()
}

// Stop halts the loops. Safe to call more than once; safe on a node
// that was never started.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.mu.Unlock()
	n.cancel()
	n.wg.Wait()
}

func (n *Node) isStopped() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stopped
}

// channelOf resolves a block's channel tag ("" = default channel).
func (n *Node) channelOf(block *types.Block) string {
	if ch := block.Metadata.ChannelID; ch != "" {
		return ch
	}
	return n.cfg.Channels[0]
}

// deliverLoop is the channel's orderer-deliver client: it long-polls
// the OSN for blocks from the ledger height, waiting up to LeaderLease
// for the chain to grow, and ingests them as deliver. Replies start at
// the height, so a deliver block never runs ahead of the chain. The
// loop exits, under n.mu, the first time the node no longer leads the
// channel, so a hand-off is the old leader's poll ending and the new
// leader's starting.
func (n *Node) deliverLoop(channel string) {
	for {
		n.mu.Lock()
		es := n.elections[channel]
		if n.stopped || es.leader != n.cfg.ID {
			es.delivering = false
			n.mu.Unlock()
			return
		}
		n.mu.Unlock()
		args := &orderer.GetBlocksArgs{Channel: channel, From: n.cfg.Sink.NextBlock(channel),
			To: math.MaxUint64, Wait: n.cfg.LeaderLease}
		raw, err := n.cfg.Endpoint.CallWithin(n.ctx, 2*n.cfg.LeaderLease, n.cfg.OrdererID, orderer.KindGetBlocks, args, 32)
		reply, ok := raw.(*orderer.GetBlocksReply)
		if err != nil || !ok {
			_ = simcpu.Sleep(n.ctx, n.cfg.LeaderLease/4)
			continue
		}
		for _, b := range reply.Blocks {
			n.acceptBlock(b, 0, "", metrics.SourceDeliver)
		}
	}
}

// handleBlock ingests one pushed gossip message.
func (n *Node) handleBlock(_ context.Context, from string, payload any) (any, int, error) {
	msg, ok := payload.(*BlockMsg)
	if !ok {
		return nil, 0, fmt.Errorf("gossip: bad block payload %T", payload)
	}
	if n.isStopped() {
		return nil, 0, nil
	}
	n.acceptBlock(msg.Block, msg.Hops, from, metrics.SourceGossip)
	return nil, 0, nil
}

// acceptBlock is the single entry point for every block the node sees:
// sink hand-off, gap-triggered pulls, and fanout forwarding. The sink is
// the one dedup: it reports a block it already owns or buffers as not
// Fresh, and the node drops it there.
func (n *Node) acceptBlock(block *types.Block, hops int, from, source string) {
	res, err := n.cfg.Sink.IngestBlock(block)
	if err != nil {
		return // a channel the peer does not join, or a stopped peer
	}
	if !res.Fresh {
		n.cfg.Collector.GossipDuplicate()
		return
	}
	ch := n.channelOf(block)
	n.cfg.Collector.GossipBlock(source, hops)
	n.cfg.Tracer.BlockOrigin(ch, block.Header.Number, source, hops)
	if res.MissFrom < res.MissTo && from != "" {
		// The pushed block ran ahead of the chain: close the gap
		// without waiting for the next anti-entropy round, from the peer
		// that pushed it (it owns the range or knows who does by the
		// same recursion).
		gapFrom, gapTo := res.MissFrom, res.MissTo
		n.goRun(func() { n.pull(from, ch, gapFrom, gapTo) })
	}
	// Fresh blocks keep spreading — except anti-entropy pulls: a peer
	// repairing itself from another peer's ledger is usually the LAST
	// to learn those blocks, and re-pushing a whole pulled chain into
	// the org would pay full block bandwidth just to be dropped by
	// everyone's sink. Deliver blocks, a new leader's catch-up
	// included, do fan out, so org mates converge without issuing their
	// own pulls.
	if hops < maxHops && source != metrics.SourceAntiEntropy {
		n.forward(block, hops+1, from)
	}
}

// forward pushes a block to Fanout random org members, skipping self
// and the member it came from.
func (n *Node) forward(block *types.Block, hops int, exclude string) {
	targets := n.pickTargets(n.members, n.cfg.Fanout, exclude)
	if len(targets) == 0 {
		return
	}
	msg := &BlockMsg{Block: block, Hops: hops}
	size := block.Size() + 8
	for _, t := range targets {
		_ = n.cfg.Endpoint.Send(t, KindBlock, msg, size)
	}
}

// pickTargets samples up to k distinct members, excluding self and the
// given node.
func (n *Node) pickTargets(pool []string, k int, exclude string) []string {
	candidates := make([]string, 0, len(pool))
	for _, m := range pool {
		if m != n.cfg.ID && m != exclude {
			candidates = append(candidates, m)
		}
	}
	if len(candidates) <= k {
		return candidates
	}
	n.mu.Lock()
	n.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	n.mu.Unlock()
	return candidates[:k]
}

// handlePing answers liveness probes.
func (n *Node) handlePing(_ context.Context, _ string, _ any) (any, int, error) {
	if n.isStopped() {
		return nil, 0, fmt.Errorf("gossip %s: stopped", n.cfg.ID)
	}
	return "OK", 2, nil
}
