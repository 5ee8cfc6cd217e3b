// Package orderer implements the ordering service node (OSN): it
// receives transaction envelopes from clients (Broadcast), establishes a
// total order through a pluggable consenter (Solo, Kafka, or Raft),
// cuts blocks with the BatchSize/BatchTimeout rule, and serves them to
// peers (Deliver). Deliver is a pull, as in Fabric: a peer asks for
// blocks from its height with a wait bound, and a request past the tip
// parks until the chain grows, so the OSN keeps no state about its
// readers beyond the requests in flight. This mirrors Fabric v1.4's
// ordering architecture, where consensus is modular exactly so that the
// three ordering services the paper compares can be swapped.
//
// Channels are the ordering service's sharding axis, as in Fabric: each
// channel is an independent chain with its own block cutter and its own
// consensus instance (one Kafka partition per channel, one Raft group
// per channel), so distinct channels order concurrently and only
// envelopes on the same channel serialize against each other.
package orderer

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/metrics"
	"fabricsim/internal/orderer/blockcutter"
	"fabricsim/internal/simcpu"
	"fabricsim/internal/trace"
	"fabricsim/internal/transport"
	"fabricsim/internal/types"
)

// Message kinds on the transport.
const (
	// KindBroadcast is the client -> OSN transaction submission.
	KindBroadcast = "orderer.broadcast"
	// KindGetBlocks fetches a block range in one round trip: deliver,
	// as a long poll when its Wait is positive, and catch-up. Peers
	// answer it too, from their ledgers, so it is the one ranged-fetch
	// message.
	KindGetBlocks = "orderer.getblocks"
	// KindSubmit is the intra-cluster Raft forward from follower OSNs
	// to the leader.
	KindSubmit = "orderer.submit"
)

// maxGetBlocksBatch caps one KindGetBlocks reply so a peer that is very
// far behind pages through the range instead of provoking one giant
// message.
const maxGetBlocksBatch = 256

// DefaultChannel is the channel assumed when a node is configured
// without an explicit channel list (single-channel deployments).
const DefaultChannel = "perf"

// Errors returned by the orderer.
var (
	ErrStopped        = errors.New("orderer: stopped")
	ErrUnknownChannel = errors.New("orderer: unknown channel")
)

// BroadcastEnvelope is the KindBroadcast payload. An empty Channel means
// the default channel.
type BroadcastEnvelope struct {
	Channel string
	Env     []byte
}

// GetBlocksArgs is the KindGetBlocks payload: fetch channel blocks
// [From, To). An empty channel means the default channel. A positive
// Wait makes an OSN hold a request whose range is past the tip until
// the chain grows or Wait ends (Fabric's BLOCK_UNTIL_READY); peers
// ignore it.
type GetBlocksArgs struct {
	Channel string
	From    uint64
	To      uint64
	Wait    time.Duration
}

// GetBlocksReply carries a KindGetBlocks response. Blocks holds the
// ascending range starting at From, truncated at the chain tip and at
// the orderer's batch cap — callers page until the reply runs dry.
type GetBlocksReply struct {
	Blocks []*types.Block
}

// SubmitArgs is the channel-tagged KindSubmit payload (Raft forward).
type SubmitArgs struct {
	Channel string
	Env     []byte
}

// Consenter establishes the total order of envelopes, independently per
// channel. Implementations: Solo, Kafka, Raft.
type Consenter interface {
	// Submit hands one envelope on the given channel to the consensus
	// layer. It returns once the envelope is durably accepted for
	// ordering (the Fabric broadcast SUCCESS semantics).
	Submit(ctx context.Context, channel string, env []byte) error
	// Start begins consuming the ordered streams.
	Start() error
	// Stop halts the consenter.
	Stop()
}

// Config parameterizes an OSN.
type Config struct {
	// ID is the OSN's transport identifier.
	ID string
	// Endpoint is its attachment to the cluster network.
	Endpoint transport.Endpoint
	// Cutter holds the batching parameters in model time; the orderer
	// scales BatchTimeout by the cost model's TimeScale internally.
	Cutter blockcutter.Config
	// Model is the calibrated cost model.
	Model costmodel.Model
	// CPU is the OSN machine's simulated CPU.
	CPU *simcpu.CPU
	// Channels lists the channel IDs this OSN orders. Empty means a
	// single channel named DefaultChannel. The first entry is the
	// default channel for untagged payloads.
	Channels []string
	// Collector, when non-nil, counts every block the Recorder node
	// cuts (the paper's block-time metric, Definition 4.3).
	Collector *metrics.Collector
	// Recorder marks the node that records the once-per-network,
	// per-block events: every OSN cuts every block, so exactly one
	// reports them.
	Recorder bool
	// Tracer records ordering spans for traced envelopes; nil disables.
	// Ingress and residency spans are recorded by the OSN that served the
	// Broadcast, so a clustered ordering service records each traced
	// envelope exactly once.
	Tracer *trace.Tracer
}

// chain is one channel's hash chain on this OSN.
type chain struct {
	id string

	mu       sync.Mutex
	lastNum  uint64
	prevHash []byte
	blocks   []*types.Block // emitted blocks, for deliver and catch-up
	// wake is closed to wake every deliver long poll parked on the
	// chain. The first poll to park makes it; wakeLocked closes and
	// clears it.
	wake chan struct{}
}

func (c *chain) wakeLocked() {
	if c.wake != nil {
		close(c.wake)
		c.wake = nil
	}
}

// rangeLocked copies blocks [from, to), clamped to the tip; nil when the
// range is empty. Callers hold c.mu and walk the copy (sizes, replies)
// outside it: blocks are immutable once cut, and emitBatch needs the
// same mutex to append the next block, so deliver load must not
// throttle ordering.
func (c *chain) rangeLocked(from, to uint64) []*types.Block {
	to = min(to, uint64(len(c.blocks)))
	if from >= to {
		return nil
	}
	return append([]*types.Block(nil), c.blocks[from:to]...)
}

func newChain(id string) *chain {
	genesis := types.NewBlock(0, nil, nil)
	genesis.Metadata.ChannelID = id
	return &chain{
		id:       id,
		prevHash: genesis.Header.Hash(),
		blocks:   []*types.Block{genesis},
	}
}

// Orderer is one ordering service node.
type Orderer struct {
	cfg       Config
	consenter Consenter

	// chains is immutable after New; each chain locks independently so
	// channels never serialize behind each other.
	chains      map[string]*chain
	channelList []string

	mu      sync.Mutex
	stopped bool

	// Egress accounting: blocks and bytes this OSN served to peers by
	// KindGetBlocks. The dissemination bench reads these to show gossip
	// holding orderer egress at O(orgs).
	egressBlocks atomic.Uint64
	egressBytes  atomic.Uint64

	// traceMu guards ingress: the broadcast-time ingest record of traced
	// envelopes awaiting their block (consumed by emitBatch, which turns
	// each entry into the cutter-residency span).
	traceMu sync.Mutex
	ingress map[string]ingressEntry
}

// ingressEntry remembers when a traced envelope was durably accepted
// for ordering, pending its residency span.
type ingressEntry struct {
	id trace.TraceID
	at time.Time
}

// maxTracedIngress bounds the pending-ingress map: envelopes that never
// make it into a block (consenter stop, channel teardown) must not leak
// forever, so the map is reset wholesale past this size.
const maxTracedIngress = 1 << 16

// New creates an OSN; the caller attaches a consenter with SetConsenter
// before Start (the consenter needs a back-reference to emit batches).
func New(cfg Config) *Orderer {
	if len(cfg.Channels) == 0 {
		cfg.Channels = []string{DefaultChannel}
	}
	o := &Orderer{
		cfg:         cfg,
		chains:      make(map[string]*chain, len(cfg.Channels)),
		channelList: append([]string(nil), cfg.Channels...),
	}
	for _, ch := range cfg.Channels {
		o.chains[ch] = newChain(ch)
	}
	cfg.Endpoint.Handle(KindBroadcast, o.handleBroadcast)
	cfg.Endpoint.Handle(KindGetBlocks, o.handleGetBlocks)
	return o
}

// ID returns the OSN's node identifier.
func (o *Orderer) ID() string { return o.cfg.ID }

// Channels returns the channel IDs this OSN orders, default first.
func (o *Orderer) Channels() []string {
	return append([]string(nil), o.channelList...)
}

// defaultChannel is the chain untagged payloads route to.
func (o *Orderer) defaultChannel() string { return o.channelList[0] }

// chainFor resolves a channel ID ("" means the default channel).
func (o *Orderer) chainFor(channel string) (*chain, error) {
	if channel == "" {
		channel = o.defaultChannel()
	}
	c, ok := o.chains[channel]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownChannel, channel)
	}
	return c, nil
}

// SetConsenter attaches the consensus implementation.
func (o *Orderer) SetConsenter(c Consenter) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.consenter = c
}

// Start launches the consenter.
func (o *Orderer) Start() error {
	if o.consenter == nil {
		return errors.New("orderer: no consenter attached")
	}
	return o.consenter.Start()
}

// Stop halts the node and answers every parked deliver poll with
// ErrStopped.
func (o *Orderer) Stop() {
	o.mu.Lock()
	if o.stopped {
		o.mu.Unlock()
		return
	}
	o.stopped = true
	o.mu.Unlock()
	for _, c := range o.chains {
		c.mu.Lock()
		c.wakeLocked()
		c.mu.Unlock()
	}
	if o.consenter != nil {
		o.consenter.Stop()
	}
}

func (o *Orderer) isStopped() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stopped
}

// handleBroadcast ingests one client envelope.
func (o *Orderer) handleBroadcast(ctx context.Context, _ string, payload any) (any, int, error) {
	args, ok := payload.(*BroadcastEnvelope)
	if !ok {
		return nil, 0, fmt.Errorf("orderer: bad broadcast payload %T", payload)
	}
	c, err := o.chainFor(args.Channel)
	if err != nil {
		return nil, 0, err
	}
	channel, env := c.id, args.Env
	o.mu.Lock()
	stopped := o.stopped
	consenter := o.consenter
	o.mu.Unlock()
	// A restarting OSN registers its endpoint before the consenter
	// attaches; envelopes landing in that window are refused (the
	// gateway fails over), not dropped into a nil consenter.
	if stopped || consenter == nil {
		return nil, 0, ErrStopped
	}
	// Peek the trace tag before any cost is charged so the ingress span
	// covers the signature check and the consensus accept.
	var traced *ingressEntry
	var tracedTx string
	if o.cfg.Tracer.Enabled() {
		// Both outlive the call, in spans and the ingress map, so they
		// are copied out of the peeked envelope rather than pinning it.
		if info, err := types.PeekEnvelopeInfo(env); err == nil && info.TraceID != "" {
			traced = &ingressEntry{id: trace.TraceID(strings.Clone(info.TraceID)), at: time.Now()}
			tracedTx = strings.Clone(string(info.TxID))
		}
	}
	// Orderer ingest cost: envelope signature check + enqueue.
	if err := o.cfg.CPU.Execute(ctx, o.cfg.Model.OrderPerTxCPU); err != nil {
		return nil, 0, err
	}
	if err := consenter.Submit(ctx, channel, env); err != nil {
		return nil, 0, err
	}
	if traced != nil {
		now := time.Now()
		o.cfg.Tracer.Record(traced.id, trace.SpanOrdererIngress, o.cfg.ID,
			traced.at, now, "channel", channel)
		o.traceMu.Lock()
		if o.ingress == nil || len(o.ingress) > maxTracedIngress {
			o.ingress = make(map[string]ingressEntry)
		}
		o.ingress[tracedTx] = ingressEntry{id: traced.id, at: now}
		o.traceMu.Unlock()
	}
	return "ACK", 4, nil
}

// handleGetBlocks serves deliver and catch-up: channel blocks [From,
// To), truncated at the chain tip and at maxGetBlocksBatch, so a peer N
// blocks behind pays one round trip instead of N. A request past the
// tip with a positive Wait parks on the chain's wake channel until a
// cut, Wait, or Stop ends it; a stopped OSN answers ErrStopped.
func (o *Orderer) handleGetBlocks(ctx context.Context, _ string, payload any) (any, int, error) {
	args, ok := payload.(*GetBlocksArgs)
	if !ok {
		return nil, 0, fmt.Errorf("orderer: bad getblocks payload %T", payload)
	}
	c, err := o.chainFor(args.Channel)
	if err != nil {
		return nil, 0, err
	}
	to := min(args.To, args.From+maxGetBlocksBatch)
	deadline := time.Now().Add(args.Wait)
	for {
		// Stop sets stopped before it wakes the chain under c.mu, so a
		// poll that reads it here either sees it or parks on a wake
		// channel that Stop then closes.
		c.mu.Lock()
		if o.isStopped() {
			c.mu.Unlock()
			return nil, 0, ErrStopped
		}
		blocks := c.rangeLocked(args.From, to)
		if len(blocks) > 0 {
			c.mu.Unlock()
			size := 0
			for _, b := range blocks {
				size += b.Size()
			}
			o.egressBlocks.Add(uint64(len(blocks)))
			o.egressBytes.Add(uint64(size))
			return &GetBlocksReply{Blocks: blocks}, size, nil
		}
		if !time.Now().Before(deadline) {
			c.mu.Unlock()
			return &GetBlocksReply{}, 8, nil
		}
		if c.wake == nil {
			c.wake = make(chan struct{})
		}
		wake := c.wake
		c.mu.Unlock()
		timer := simcpu.GetTimer(time.Until(deadline))
		select {
		case <-wake:
			if timer.Stop() {
				simcpu.PutTimer(timer)
			}
		case <-ctx.Done():
			if timer.Stop() {
				simcpu.PutTimer(timer)
			}
			return nil, 0, ctx.Err()
		case <-timer.C:
			simcpu.PutTimer(timer)
		}
	}
}

// ChainHeight returns the number of the last cut block on a channel
// (0 = genesis only). Unknown channels report 0.
func (o *Orderer) ChainHeight(channel string) uint64 {
	c, err := o.chainFor(channel)
	if err != nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastNum
}

// ChainBlocks returns channel blocks [from, to) for in-process chain
// rehydration (fabnet restarting an OSN reads a live node's chain).
// The range is clamped to the chain; blocks are immutable once cut, so
// sharing pointers is safe.
func (o *Orderer) ChainBlocks(channel string, from, to uint64) []*types.Block {
	c, err := o.chainFor(channel)
	if err != nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rangeLocked(from, to)
}

// RestoreChain primes a channel's chain with blocks recovered from
// another replica (or a peer's block store) after a crash-restart, so
// the rebuilt OSN continues numbering from its pre-crash tip instead
// of re-cutting from genesis. It must run before Start: consenters
// read the tip when they attach. Blocks at or below the current tip
// are skipped; the rest must extend the chain contiguously.
func (o *Orderer) RestoreChain(channel string, blocks []*types.Block) error {
	c, err := o.chainFor(channel)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.wakeLocked() // a restore that fails part-way still grew the chain
	for _, b := range blocks {
		if b == nil || b.Header.Number <= c.lastNum {
			continue
		}
		if b.Header.Number != c.lastNum+1 {
			return fmt.Errorf("orderer %s: restore channel %s: block %d does not extend tip %d",
				o.cfg.ID, c.id, b.Header.Number, c.lastNum)
		}
		c.blocks = append(c.blocks, b)
		c.lastNum = b.Header.Number
		c.prevHash = b.Header.Hash()
	}
	return nil
}

// emitBatchAt is emitBatch for consenters that know the batch's
// consensus sequence number (Raft entry index, Kafka cut sequence): a
// number at or below the chain tip means this batch already became a
// block — the node restarted with a rehydrated chain and the consenter
// is replaying its durable log — so the replay is skipped instead of
// double-cutting.
func (o *Orderer) emitBatchAt(channel string, num uint64, batch [][]byte) {
	if c, err := o.chainFor(channel); err == nil {
		c.mu.Lock()
		replayed := num <= c.lastNum
		c.mu.Unlock()
		if replayed {
			return
		}
	}
	o.emitBatch(channel, batch)
}

// emitBatch turns one ordered batch into the channel's next block and
// wakes the deliver polls parked on the chain. Consenters call it from
// one goroutine per channel in that channel's consensus order, which
// keeps numbering identical across OSNs; different channels emit
// concurrently.
func (o *Orderer) emitBatch(channel string, batch [][]byte) {
	if len(batch) == 0 {
		return
	}
	c, err := o.chainFor(channel)
	if err != nil || o.isStopped() {
		return
	}

	// Conflict-aware pass: emitBatch is the single funnel every
	// consenter (solo, kafka, raft) drives in consensus order on every
	// OSN, and the reorder is deterministic, so applying it here keeps
	// blocks byte-identical across the cluster without touching any
	// consenter.
	earlyAborted := 0
	if o.cfg.Cutter.Reorder {
		batch, earlyAborted = blockcutter.Reorder(batch)
	}

	c.mu.Lock()
	num := c.lastNum + 1
	block := types.NewBlock(num, c.prevHash, batch)
	now := time.Now()
	block.Metadata.OrderedTime = now.UnixNano()
	block.Metadata.OrdererID = o.cfg.ID
	block.Metadata.ChannelID = c.id
	if o.cfg.Cutter.Reorder {
		block.Metadata.Reordered = true
		block.Metadata.EarlyAborted = earlyAborted
	}
	c.lastNum = num
	c.prevHash = block.Header.Hash()
	c.blocks = append(c.blocks, block)
	c.wakeLocked()
	c.mu.Unlock()

	if o.cfg.Recorder {
		o.cfg.Collector.Block(metrics.BlockEvent{Number: num, Channel: c.id, CutAt: now, Txs: len(block.Data)})
	}
	if o.cfg.Tracer.Enabled() {
		o.recordResidency(c.id, num, batch, now)
	}
}

// recordResidency closes the cutter-residency span of every traced
// envelope in one cut block: consensus accept to block cut. Only the
// OSN that served an envelope's Broadcast holds its ingress entry, so
// in a Raft cluster — where every OSN replays every batch through
// emitBatch — each envelope's residency is recorded exactly once.
func (o *Orderer) recordResidency(channel string, num uint64, batch [][]byte, cutAt time.Time) {
	o.traceMu.Lock()
	pending := len(o.ingress)
	o.traceMu.Unlock()
	if pending == 0 {
		return
	}
	blockNum := fmt.Sprint(num)
	for _, env := range batch {
		info, err := types.PeekEnvelopeInfo(env)
		if err != nil || info.TraceID == "" {
			continue
		}
		// The peeked TxID is only looked up, and e.id is the copy taken
		// at ingress, so nothing here keeps the envelope alive.
		o.traceMu.Lock()
		e, ok := o.ingress[string(info.TxID)]
		if ok {
			delete(o.ingress, string(info.TxID))
		}
		o.traceMu.Unlock()
		if !ok {
			continue
		}
		o.cfg.Tracer.Record(e.id, trace.SpanOrdererResidency, o.cfg.ID,
			e.at, cutAt, "channel", channel, "block", blockNum)
	}
}

// EgressStats reports the blocks and bytes this OSN has served to peers
// by KindGetBlocks (deliver polls and catch-up fetches).
func (o *Orderer) EgressStats() (blocks, bytes uint64) {
	return o.egressBlocks.Load(), o.egressBytes.Load()
}

// scaledTimeout converts the configured BatchTimeout into wall time.
func (o *Orderer) scaledTimeout() time.Duration {
	d := o.cfg.Cutter.BatchTimeout
	if d <= 0 {
		d = time.Second
	}
	return o.cfg.Model.ScaledDelay(d)
}
