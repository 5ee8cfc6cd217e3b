package gossip

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"
)

// This file is the org-leader election: per channel, the org member
// with the lowest rotated rank that is alive runs the deliver loop,
// renews its lease with heartbeats, and is replaced when its beats
// stop.
//
// Ranks rotate per channel (a hash of the channel ID offsets the sorted
// member list), so in multi-channel deployments different members lead
// different channels and the deliver load spreads across the org.
//
// The protocol is deliberately small: a leader broadcasts
// Beat{channel, term, leader} every LeaderLease/4; a member whose lease
// expired probes every lower-ranked member, and claims the leadership
// with an incremented term only when all of them are unreachable.
// Members adopt the beat with the highest term (ties: lowest rank), so
// a recovered old leader that still beats on a stale term resigns the
// moment it hears the new leader, and its deliver loop ends with the
// poll in flight.

// electionState tracks one channel's leadership as seen by this node.
type electionState struct {
	term     uint64
	leader   string
	lastBeat time.Time
	// electing guards against overlapping takeover probes.
	electing bool
	// delivering reports that this node's deliver loop for the channel
	// runs; the loop clears it, under n.mu, as it exits.
	delivering bool
}

// rankOf returns a node's election rank for a channel: its index in the
// sorted member list, rotated by a hash of the channel ID. Rank 0 is
// the channel's preferred leader.
func (n *Node) rankOf(channel, id string) int {
	total := len(n.members)
	if total == 0 {
		return 0
	}
	pos := -1
	for i, m := range n.members {
		if m == id {
			pos = i
			break
		}
	}
	if pos < 0 {
		return total // not an org member: ranks below every member
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(channel))
	offset := int(h.Sum32()) % total
	if offset < 0 {
		offset += total
	}
	return (pos - offset + total) % total
}

// IsLeader reports whether this node currently leads the channel's org
// delivery.
func (n *Node) IsLeader(channel string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	es, ok := n.elections[channel]
	return ok && es.leader == n.cfg.ID
}

// electionLoop renews this node's leases and watches the others'.
func (n *Node) electionLoop() {
	defer n.wg.Done()
	tick := n.cfg.LeaderLease / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-ticker.C:
		}
		for _, ch := range n.cfg.Channels {
			n.mu.Lock()
			es := n.elections[ch]
			var action func()
			switch {
			case es.leader == n.cfg.ID:
				es.lastBeat = time.Now()
				beat := &Beat{Channel: ch, Org: n.cfg.Org, Leader: n.cfg.ID, Term: es.term}
				action = func() { n.broadcastBeat(beat) }
			case time.Since(es.lastBeat) > n.cfg.LeaderLease && !es.electing:
				es.electing = true
				term := es.term
				channel := ch
				action = func() {
					n.goRun(func() { n.tryTakeover(channel, term) })
				}
			}
			n.mu.Unlock()
			if action != nil {
				action()
			}
		}
	}
}

// broadcastBeat sends one lease heartbeat to every org member.
func (n *Node) broadcastBeat(beat *Beat) {
	for _, m := range n.members {
		if m == n.cfg.ID {
			continue
		}
		_ = n.cfg.Endpoint.Send(m, KindBeat, beat, 48)
	}
}

// tryTakeover runs when the local lease on a channel expired: probe
// every member ranked below us; if one answers, it is the rightful
// next leader — reset the lease and wait for its claim. If none do,
// claim the leadership ourselves.
func (n *Node) tryTakeover(channel string, sawTerm uint64) {
	defer func() {
		n.mu.Lock()
		n.elections[channel].electing = false
		n.mu.Unlock()
	}()
	probeTimeout := n.cfg.LeaderLease / 4
	if probeTimeout < 5*time.Millisecond {
		probeTimeout = 5 * time.Millisecond
	}
	myRank := n.rankOf(channel, n.cfg.ID)
	for _, m := range n.members {
		if m == n.cfg.ID || n.rankOf(channel, m) > myRank {
			continue
		}
		if _, err := n.cfg.Endpoint.CallWithin(n.ctx, probeTimeout, m, KindPing, nil, 4); err == nil {
			// A better-ranked member is alive; give it one more lease
			// to claim before we re-probe.
			n.mu.Lock()
			n.elections[channel].lastBeat = time.Now()
			n.mu.Unlock()
			return
		}
	}
	n.mu.Lock()
	es := n.elections[channel]
	if es.term != sawTerm || es.leader == n.cfg.ID {
		// A claim (ours or a rival's) landed while we probed.
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	n.cfg.Collector.LeaderElection()
	n.becomeLeader(channel)
}

// becomeLeader claims a channel's org leadership: bump the term, start
// beating, and start the deliver loop unless the previous one is still
// running, which then carries on. The loop pulls from the ledger height,
// so its first poll fetches whatever the org missed while leaderless.
// Only tryTakeover's claims count as elections: the rank-0 claim at
// Start is no re-election.
func (n *Node) becomeLeader(channel string) {
	n.mu.Lock()
	es := n.elections[channel]
	es.term++
	es.leader = n.cfg.ID
	es.lastBeat = time.Now()
	beat := &Beat{Channel: channel, Org: n.cfg.Org, Leader: n.cfg.ID, Term: es.term}
	startLoop := n.cfg.OrdererID != "" && !es.delivering
	if startLoop {
		es.delivering = true
	}
	n.mu.Unlock()

	n.broadcastBeat(beat)
	if startLoop {
		n.goRun(func() { n.deliverLoop(channel) })
	}
}

// handleBeat ingests a leader heartbeat.
func (n *Node) handleBeat(_ context.Context, _ string, payload any) (any, int, error) {
	beat, ok := payload.(*Beat)
	if !ok {
		return nil, 0, fmt.Errorf("gossip: bad beat payload %T", payload)
	}
	n.mu.Lock()
	es, ok := n.elections[beat.Channel]
	if !ok {
		n.mu.Unlock()
		return nil, 0, nil
	}
	adopt := beat.Term > es.term ||
		(beat.Term == es.term && es.leader != beat.Leader &&
			n.rankOf(beat.Channel, beat.Leader) < n.rankOf(beat.Channel, es.leader))
	switch {
	case adopt:
		es.term = beat.Term
		es.leader = beat.Leader
		es.lastBeat = time.Now()
		n.mu.Unlock()
	case beat.Term == es.term && beat.Leader == es.leader:
		es.lastBeat = time.Now()
		n.mu.Unlock()
	default:
		n.mu.Unlock() // stale claim from a deposed leader
	}
	return nil, 0, nil
}
