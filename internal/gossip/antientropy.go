package gossip

import (
	"context"
	"fmt"
	"time"

	"fabricsim/internal/metrics"
	"fabricsim/internal/orderer"
)

// This file is the anti-entropy (pull) side of the protocol: push
// gossip is fast but lossy — a peer that was down, partitioned, or
// simply unlucky with fanout selection ends up behind. Every
// AntiEntropyInterval each node exchanges a digest of ledger heights
// with one random peer (org boundaries ignored: any peer can repair
// any other) and closes observed gaps with ranged block pulls served
// from the remote ledger. The exchange repairs both directions: the
// requester pulls what it is missing, and the responder — seeing the
// requester's digest — pulls what *it* is missing, so one contact
// converges both nodes.

// antiEntropyLoop periodically reconciles with one random peer.
func (n *Node) antiEntropyLoop() {
	defer n.wg.Done()
	if len(n.others) == 0 {
		return
	}
	for {
		// Jitter ±25% so the fleet's rounds do not synchronize.
		n.mu.Lock()
		jitter := time.Duration(n.rng.Int63n(int64(n.cfg.AntiEntropyInterval)/2 + 1))
		n.mu.Unlock()
		wait := n.cfg.AntiEntropyInterval*3/4 + jitter
		select {
		case <-n.ctx.Done():
			return
		case <-time.After(wait):
		}
		n.mu.Lock()
		partner := n.others[n.rng.Intn(len(n.others))]
		n.mu.Unlock()
		n.reconcileWith(partner)
	}
}

// digest snapshots the local heights (next needed block per channel).
func (n *Node) digest() *DigestMsg {
	heights := make(map[string]uint64, len(n.cfg.Channels))
	for _, ch := range n.cfg.Channels {
		heights[ch] = n.cfg.Sink.NextBlock(ch)
	}
	return &DigestMsg{Heights: heights}
}

// reconcileWith exchanges digests with one peer and pulls every range
// the peer is ahead on.
func (n *Node) reconcileWith(partner string) {
	raw, err := n.cfg.Endpoint.CallWithin(n.ctx, n.cfg.AntiEntropyInterval,
		partner, KindDigest, n.digest(), 8*(len(n.cfg.Channels)+1))
	if err != nil {
		return
	}
	remote, ok := raw.(*DigestMsg)
	if !ok {
		return
	}
	for _, ch := range n.cfg.Channels {
		theirs := remote.Heights[ch]
		if mine := n.cfg.Sink.NextBlock(ch); theirs > mine {
			n.pull(partner, ch, mine, theirs)
		}
	}
}

// handleDigest serves the anti-entropy exchange: reply with our
// heights, and if the requester's digest shows it ahead of us, repair
// ourselves from it in the background.
func (n *Node) handleDigest(_ context.Context, from string, payload any) (any, int, error) {
	msg, ok := payload.(*DigestMsg)
	if !ok {
		return nil, 0, fmt.Errorf("gossip: bad digest payload %T", payload)
	}
	if n.isStopped() {
		return nil, 0, fmt.Errorf("gossip %s: stopped", n.cfg.ID)
	}
	for _, ch := range n.cfg.Channels {
		theirs := msg.Heights[ch]
		if mine := n.cfg.Sink.NextBlock(ch); theirs > mine {
			channel, gapFrom, gapTo := ch, mine, theirs
			n.goRun(func() { n.pull(from, channel, gapFrom, gapTo) })
		}
	}
	mine := n.digest()
	return mine, 8 * (len(mine.Heights) + 1), nil
}

// handleGetBlocks serves committed blocks [From, To) from the local
// ledger, truncated at the committed height and at maxPullBatch: the
// peer side of the one ranged-fetch message OSNs also answer.
func (n *Node) handleGetBlocks(_ context.Context, _ string, payload any) (any, int, error) {
	args, ok := payload.(*orderer.GetBlocksArgs)
	if !ok {
		return nil, 0, fmt.Errorf("gossip: bad getblocks payload %T", payload)
	}
	reply := &orderer.GetBlocksReply{}
	size := 8
	to := min(args.To, args.From+maxPullBatch)
	for num := args.From; num < to; num++ {
		b, ok := n.cfg.Sink.BlockAt(args.Channel, num)
		if !ok {
			break // past our committed height (or pipeline still staging)
		}
		reply.Blocks = append(reply.Blocks, b)
		size += b.Size()
	}
	return reply, size, nil
}

// pull pages channel blocks [from, to) out of peer src's ledger and
// ingests them in order as anti-entropy. One pull per channel runs at a
// time: overlapping gap triggers (several blocks running ahead at once)
// collapse into the first pull instead of duplicating traffic; a later
// trigger re-fills any remainder. A failed page just returns: the next
// push or anti-entropy round retries.
func (n *Node) pull(src, channel string, from, to uint64) {
	n.mu.Lock()
	if n.pulling[channel] {
		n.mu.Unlock()
		return
	}
	n.pulling[channel] = true
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.pulling, channel)
		n.mu.Unlock()
	}()

	// A gap at least SnapshotThreshold wide is closed snapshot-first:
	// install the remote ledger's snapshot (state + index + tip) and pull
	// only the tail beyond it. A fetch/install failure falls through to
	// the ranged block pulls — slower, never less correct.
	if ss := n.cfg.SnapshotSink; ss != nil && n.cfg.SnapshotThreshold > 0 &&
		to-from >= uint64(n.cfg.SnapshotThreshold) {
		ctx, cancel := context.WithTimeout(n.ctx, 10*n.cfg.AntiEntropyInterval)
		height, err := ss.FetchSnapshot(ctx, src, channel)
		cancel()
		if err == nil && height > from {
			if c := n.cfg.Collector; c != nil {
				c.SnapshotBootstrap()
			}
			from = height
		}
	}

	for from < to {
		if n.isStopped() {
			return
		}
		raw, err := n.cfg.Endpoint.CallWithin(n.ctx, n.cfg.AntiEntropyInterval, src, orderer.KindGetBlocks,
			&orderer.GetBlocksArgs{Channel: channel, From: from, To: to}, 24)
		if err != nil {
			return
		}
		reply, ok := raw.(*orderer.GetBlocksReply)
		if !ok || len(reply.Blocks) == 0 {
			return // src cannot serve (yet); the next trigger retries
		}
		if c := n.cfg.Collector; c != nil {
			c.AntiEntropyPull(len(reply.Blocks))
		}
		for _, b := range reply.Blocks {
			n.acceptBlock(b, 0, src, metrics.SourceAntiEntropy)
		}
		from += uint64(len(reply.Blocks))
	}
}
