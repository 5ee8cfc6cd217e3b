package orderer

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"fabricsim/internal/raft"
	"fabricsim/internal/trace"
	"fabricsim/internal/types"
)

// RaftConsenter orders envelopes through the Raft substrate, following
// Fabric's etcdraft design: the Raft leader OSN runs the block cutter
// and proposes whole batches as log entries; every OSN applies committed
// batches in log order, so all emit identical blocks. Follower OSNs
// forward client envelopes to the leader (KindSubmit).
//
// Each channel gets its own Raft group (its own elections, log, and
// leader), mirroring Fabric's one-etcdraft-cluster-per-channel layout,
// so channels order concurrently and may even be led by different OSNs.
type RaftConsenter struct {
	lanes
	orderer *Orderer
	groups  map[string]*raftGroup
}

// raftGroup is one channel's consensus lane.
type raftGroup struct {
	channel string
	node    *raft.Node
	in      chan []byte
	applyMu sync.Mutex

	// store is the persist-time-accounting decorator around this group's
	// raft store; non-nil only when tracing is on.
	store *raft.TimedStore
	// proposeMu guards proposed: the leader-side propose marks awaiting
	// their apply, keyed by entry index (consensus-span bookkeeping).
	proposeMu sync.Mutex
	proposed  map[uint64]proposeMark
}

// proposeMark is the leader-side start of one consensus round: the wall
// clock at propose and the store's persist-time counter at that moment.
type proposeMark struct {
	at      time.Time
	persist time.Duration
}

// maxPendingProposals bounds the proposed map: marks whose entries
// never apply here (leadership lost mid-flight) must not accrete.
const maxPendingProposals = 4096

var _ Consenter = (*RaftConsenter)(nil)

// RaftConfig parameterizes the consenter's embedded Raft nodes.
type RaftConfig struct {
	// Peers lists every OSN in the cluster (transport IDs).
	Peers []string
	// ElectionTimeout and HeartbeatInterval are wall-clock (scaled).
	ElectionTimeout   time.Duration
	HeartbeatInterval time.Duration
	// Stores optionally maps channel ID to the raft.Store persisting
	// that channel's group on this OSN; channels absent from the map
	// get fresh volatile stores. A restarted OSN handed its pre-crash
	// stores rejoins with term, vote, and log intact — the chain must
	// be rehydrated to at least each store's compaction base first
	// (RestoreChain) so replayed entries dedupe by index.
	Stores map[string]raft.Store
	// CompactThreshold tunes committed-prefix log compaction of the
	// embedded nodes (0 = raft default, negative disables).
	CompactThreshold int
}

// NewRaftConsenter attaches a Raft consenter to the OSN and starts one
// Raft group per channel.
func NewRaftConsenter(o *Orderer, rc RaftConfig) (*RaftConsenter, error) {
	r := &RaftConsenter{
		lanes:   newLanes(),
		orderer: o,
		groups:  make(map[string]*raftGroup),
	}
	appendDelay := func() {
		_ = o.cfg.CPU.Execute(context.Background(), o.cfg.Model.RaftAppendCPU)
	}
	for i, ch := range o.Channels() {
		g := &raftGroup{
			channel: ch,
			in:      make(chan []byte, laneDepth),
		}
		group := ""
		if i > 0 {
			// The first channel keeps the unsuffixed message kinds so a
			// single-channel deployment stays wire-compatible.
			group = ch
		}
		store := rc.Stores[ch]
		if o.cfg.Tracer.Enabled() {
			// Decorate the store so consensus spans can report the persist
			// share of each round; a missing store gets a volatile one
			// (matching the node's own fallback) so accounting still works.
			if store == nil {
				store = raft.NewMemStore()
			}
			g.store = raft.NewTimedStore(store)
			store = g.store
		}
		node, err := raft.NewNode(raft.Config{
			ID:                o.cfg.ID,
			Peers:             rc.Peers,
			Endpoint:          o.cfg.Endpoint,
			ElectionTimeout:   rc.ElectionTimeout,
			HeartbeatInterval: rc.HeartbeatInterval,
			Apply:             func(e raft.Entry) { r.applyEntry(g, e) },
			AppendDelay:       appendDelay,
			Group:             group,
			Store:             store,
			CompactThreshold:  rc.CompactThreshold,
		})
		if err != nil {
			r.stopNodes()
			return nil, fmt.Errorf("raft consenter: channel %s: %w", ch, err)
		}
		g.node = node
		r.groups[ch] = g
		r.add(func() {
			o.cutLoop(g.in, r.ctx.Done(), func(batch [][]byte) { r.propose(g, batch) })
		})
	}
	o.cfg.Endpoint.Handle(KindSubmit, r.handleForward)
	o.SetConsenter(r)
	return r, nil
}

func (r *RaftConsenter) stopNodes() {
	for _, g := range r.groups {
		if g.node != nil {
			g.node.Stop()
		}
	}
}

// NodeFor exposes the Raft node of one channel's group.
func (r *RaftConsenter) NodeFor(channel string) (*raft.Node, bool) {
	g, ok := r.groups[channel]
	if !ok {
		return nil, false
	}
	return g.node, true
}

// Submit implements Consenter. On the channel's leader the envelope
// enters the local cutter loop; otherwise it is forwarded to the
// current leader of that channel's group.
func (r *RaftConsenter) Submit(ctx context.Context, channel string, env []byte) error {
	g, ok := r.groups[channel]
	if !ok {
		return ErrUnknownChannel
	}
	leader, ok := g.node.Leader()
	if !ok {
		return errors.New("raft consenter: no leader elected")
	}
	if leader == r.orderer.cfg.ID {
		return r.enqueue(ctx, g.in, env)
	}
	args := &SubmitArgs{Channel: channel, Env: env}
	_, err := r.orderer.cfg.Endpoint.Call(ctx, leader, KindSubmit, args, len(env)+len(channel)+16)
	if err != nil {
		return fmt.Errorf("raft consenter: forward to %s: %w", leader, err)
	}
	return nil
}

// handleForward ingests envelopes forwarded from follower OSNs.
func (r *RaftConsenter) handleForward(ctx context.Context, _ string, payload any) (any, int, error) {
	args, ok := payload.(*SubmitArgs)
	if !ok {
		return nil, 0, fmt.Errorf("raft consenter: bad forward payload %T", payload)
	}
	g, ok := r.groups[args.Channel]
	if !ok {
		return nil, 0, ErrUnknownChannel
	}
	if state, _ := g.node.State(); state != raft.Leader {
		leader, _ := g.node.Leader()
		return nil, 0, fmt.Errorf("raft consenter: not leader (leader is %q)", leader)
	}
	if err := r.enqueue(ctx, g.in, args.Env); err != nil {
		return nil, 0, err
	}
	return "ACK", 4, nil
}

// Stop implements Consenter: the cut loops exit first, then the
// channels' Raft nodes stop.
func (r *RaftConsenter) Stop() {
	r.lanes.Stop()
	r.stopNodes()
}

// propose is the sink of a channel's cut loop. The loop runs on every
// OSN, but only the group's leader receives envelopes, so only it
// proposes each cut batch as one log entry.
func (r *RaftConsenter) propose(g *raftGroup, batch [][]byte) {
	data := encodeBatch(batch)
	var mark proposeMark
	tracing := r.orderer.cfg.Tracer.Enabled()
	if tracing {
		mark.at = time.Now()
		if g.store != nil {
			mark.persist = g.store.PersistTime()
		}
	}
	idx, err := g.node.Propose(data)
	if err != nil {
		// Leadership lost mid-batch: the envelopes are dropped and
		// their clients will hit the 3-second ordering timeout,
		// which the paper counts as rejected transactions.
		return
	}
	if tracing {
		g.proposeMu.Lock()
		if g.proposed == nil || len(g.proposed) > maxPendingProposals {
			g.proposed = make(map[uint64]proposeMark)
		}
		g.proposed[idx] = mark
		g.proposeMu.Unlock()
	}
}

// applyEntry is the Raft apply callback: decode the batch and emit it on
// the group's channel. Raft applies entries from a single goroutine in
// log order on every OSN, which keeps per-channel block numbering
// consistent cluster-wide. Entry index and block number advance in
// lock-step (every entry cuts exactly one block), so emitBatchAt can
// drop entries re-applied after a crash-restart whose blocks the
// rehydrated chain already holds.
func (r *RaftConsenter) applyEntry(g *raftGroup, e raft.Entry) {
	batch, err := decodeBatch(e.Data)
	if err != nil {
		return // a malformed entry would indicate a bug, not input error
	}
	g.applyMu.Lock()
	defer g.applyMu.Unlock()
	r.orderer.emitBatchAt(g.channel, e.Index, batch)
	r.recordConsensus(g, e.Index, batch)
}

// recordConsensus closes the consensus span of one applied entry: the
// propose→apply wall time on the proposing leader, with the persist
// share (store write time accrued in between) attached. Only the node
// that proposed the entry holds its mark, so each traced envelope gets
// exactly one consensus span per round.
func (r *RaftConsenter) recordConsensus(g *raftGroup, index uint64, batch [][]byte) {
	tr := r.orderer.cfg.Tracer
	if !tr.Enabled() {
		return
	}
	g.proposeMu.Lock()
	mark, ok := g.proposed[index]
	if ok {
		delete(g.proposed, index)
	}
	g.proposeMu.Unlock()
	if !ok {
		return
	}
	now := time.Now()
	idxStr := fmt.Sprint(index)
	persist := ""
	if g.store != nil {
		persist = (g.store.PersistTime() - mark.persist).String()
	}
	for _, env := range batch {
		info, err := types.PeekEnvelopeInfo(env)
		if err != nil || info.TraceID == "" {
			continue
		}
		// The tracer keeps the ID in its span and may key a trace on it:
		// a copy, so it does not pin the peeked envelope.
		id := trace.TraceID(strings.Clone(info.TraceID))
		if persist != "" {
			tr.Record(id, trace.SpanRaftConsensus,
				r.orderer.cfg.ID, mark.at, now,
				"channel", g.channel, "index", idxStr, "persist", persist)
		} else {
			tr.Record(id, trace.SpanRaftConsensus,
				r.orderer.cfg.ID, mark.at, now,
				"channel", g.channel, "index", idxStr)
		}
	}
}

// encodeBatch serializes a batch of envelopes into one Raft entry.
func encodeBatch(batch [][]byte) []byte {
	size := 8
	for _, b := range batch {
		size += len(b) + 8
	}
	enc := types.NewEncoder(size)
	enc.Uvarint(uint64(len(batch)))
	for _, b := range batch {
		enc.Bytes2(b)
	}
	return enc.Bytes()
}

// decodeBatch reverses encodeBatch.
func decodeBatch(data []byte) ([][]byte, error) {
	dec := types.NewDecoder(data)
	n := dec.Uvarint()
	// Every envelope occupies at least its length byte: a larger count is
	// corrupt, and must not size the slice.
	if n > uint64(dec.Remaining()) {
		return nil, fmt.Errorf("orderer: batch of %d envelopes in %d bytes: %w", n, dec.Remaining(), types.ErrShortBuffer)
	}
	out := make([][]byte, 0, n)
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		out = append(out, dec.Bytes2())
	}
	if err := dec.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}
