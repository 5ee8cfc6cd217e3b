// Package raft is a from-scratch implementation of the Raft consensus
// algorithm (leader election, log replication, commitment), standing in
// for etcd/raft as the substrate of the Raft ordering service. It
// provides crash fault-tolerance: a cluster of 2f+1 nodes tolerates f
// failures, with the leader committing an entry once a majority of
// followers have appended it — exactly the behaviour the paper describes
// in Section III.
//
// Hard state — currentTerm, votedFor, and the log — is persisted
// through a pluggable Store (in-memory, or a file-backed WAL in the
// internal/wal record format; see store.go) before any message that depends on it is sent, exactly the
// durability contract of Figure 2 in the Raft paper. A restarted node
// reloads the store in NewNode and rejoins with its term, vote, and
// log intact, so crash-restart faults cannot produce a double vote or
// a regressed term. Committed-prefix compaction keeps the retained log
// bounded: applied entries below every peer's match index are folded
// into a base sentinel and the WAL is rewritten.
package raft

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"fabricsim/internal/transport"
)

// State is a Raft node's role.
type State uint8

// Raft roles.
const (
	Follower State = iota + 1
	Candidate
	Leader
)

// String returns the role name.
func (s State) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Errors returned by Propose.
var (
	ErrNotLeader = errors.New("raft: not the leader")
	ErrStopped   = errors.New("raft: stopped")
)

// Entry is one replicated log record.
type Entry struct {
	Term  uint64
	Index uint64
	Data  []byte
}

// Message kinds on the transport. A node configured with a Group name
// suffixes its kinds ("raft.vote.<group>") so multiple independent Raft
// groups — e.g. one ordering group per channel — can share one endpoint.
const (
	kindVote   = "raft.vote"
	kindAppend = "raft.append"
)

func (n *Node) voteKind() string   { return kindVote + n.kindSuffix }
func (n *Node) appendKind() string { return kindAppend + n.kindSuffix }

// maxEntriesPerAppend bounds one AppendEntries batch (etcd/raft's
// MaxSizePerMsg plays the same role).
const maxEntriesPerAppend = 32

// VoteArgs is the RequestVote RPC request.
type VoteArgs struct {
	Term         uint64
	CandidateID  string
	LastLogIndex uint64
	LastLogTerm  uint64
}

// VoteReply is the RequestVote RPC response.
type VoteReply struct {
	Term    uint64
	Granted bool
}

// AppendArgs is the AppendEntries RPC request (also the heartbeat).
type AppendArgs struct {
	Term         uint64
	LeaderID     string
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []Entry
	LeaderCommit uint64
}

// AppendReply is the AppendEntries RPC response. ConflictIndex
// implements the accelerated log-backtracking optimization.
type AppendReply struct {
	Term          uint64
	Success       bool
	ConflictIndex uint64
}

// Config parameterizes a Raft node.
type Config struct {
	// ID is this node's transport identifier.
	ID string
	// Peers lists all cluster members, including this node.
	Peers []string
	// Endpoint is the node's attachment to the cluster network.
	Endpoint transport.Endpoint
	// ElectionTimeout is the base election timeout; actual timeouts are
	// randomized in [1x, 2x). Pass wall-clock (already scaled) values.
	ElectionTimeout time.Duration
	// HeartbeatInterval is the leader's replication cadence.
	HeartbeatInterval time.Duration
	// Apply is invoked for each committed entry, in log order, from a
	// single goroutine.
	Apply func(Entry)
	// AppendDelay optionally injects the cost model's per-append CPU
	// cost (already scaled); nil means no delay.
	AppendDelay func()
	// Group optionally names an independent Raft group; nodes only talk
	// to peers of the same group. Empty is the default (single) group.
	Group string
	// Store persists hard state and log entries; nil means a fresh
	// private MemStore (volatile across restarts).
	Store Store
	// CompactThreshold is the number of applied entries retained above
	// the compaction base before the committed prefix is folded away.
	// Zero means the default; negative disables compaction.
	CompactThreshold int
}

// defaultCompactThreshold keeps compaction rare enough that rewrite
// cost is amortized but frequent enough that minutes-long runs stay
// bounded.
const defaultCompactThreshold = 128

// Node is one Raft cluster member.
type Node struct {
	cfg    Config
	quorum int

	mu          sync.Mutex
	state       State
	currentTerm uint64
	votedFor    string
	leaderID    string
	log         []Entry // log[0] is the compaction base sentinel
	commitIndex uint64
	lastApplied uint64
	nextIndex   map[string]uint64
	matchIndex  map[string]uint64
	lastContact time.Time
	timeoutSpan time.Duration

	store      Store
	persistErr error // first store failure, for PersistErr

	applyCh chan struct{}
	stopCh  chan struct{}
	stopped bool
	wg      sync.WaitGroup
	rng     *rand.Rand

	kindSuffix string // "" or "." + cfg.Group
}

// NewNode creates and starts a Raft node, reloading any persisted hard
// state and log from cfg.Store. A reloaded node resumes with its
// pre-crash term and vote (so it cannot vote twice in a term) and with
// commitIndex/lastApplied at the compaction base — entries above the
// base are re-applied in order once re-committed, and the application
// layer deduplicates by entry index. A fresh node (nothing loaded)
// that is its group's campaigner starts an election at its first tick.
func NewNode(cfg Config) (*Node, error) {
	if cfg.ID == "" || len(cfg.Peers) == 0 {
		return nil, errors.New("raft: config requires ID and Peers")
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 150 * time.Millisecond
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = cfg.ElectionTimeout / 5
	}
	store := cfg.Store
	if store == nil {
		store = NewMemStore()
	}
	hs, base, entries, err := store.Load()
	if err != nil {
		return nil, fmt.Errorf("raft: load persisted state: %w", err)
	}
	log := make([]Entry, 0, len(entries)+1)
	log = append(log, Entry{Term: base.Term, Index: base.Index})
	log = append(log, entries...)
	n := &Node{
		cfg:         cfg,
		quorum:      len(cfg.Peers)/2 + 1,
		state:       Follower,
		currentTerm: hs.Term,
		votedFor:    hs.VotedFor,
		log:         log,
		commitIndex: base.Index,
		lastApplied: base.Index,
		store:       store,
		nextIndex:   make(map[string]uint64),
		matchIndex:  make(map[string]uint64),
		lastContact: time.Now(),
		applyCh:     make(chan struct{}, 1),
		stopCh:      make(chan struct{}),
		rng:         rand.New(rand.NewSource(int64(hashString(cfg.ID + "/" + cfg.Group)))),
	}
	if cfg.Group != "" {
		n.kindSuffix = "." + cfg.Group
	}
	n.timeoutSpan = n.randomTimeout()
	fresh := hs.Term == 0 && len(entries) == 0 && base.Index == 0
	if fresh && campaigner(cfg.Group, cfg.Peers) == cfg.ID {
		// etcdraft's start on a fresh channel: one member, the same on
		// all, campaigns at its first tick instead of waiting out a
		// full election timeout. A reloaded node waits as usual.
		n.lastContact = time.Time{}
	}

	cfg.Endpoint.Handle(n.voteKind(), n.handleVote)
	cfg.Endpoint.Handle(n.appendKind(), n.handleAppend)

	n.wg.Add(2)
	go func() {
		defer n.wg.Done()
		n.tickLoop()
	}()
	go func() {
		defer n.wg.Done()
		n.applyLoop()
	}()
	return n, nil
}

// campaigner is the member of a fresh group that campaigns at once:
// the sorted peer list indexed by the group name's hash, so every
// member names the same node and different channels spread their
// first leaders over the cluster.
func campaigner(group string, peers []string) string {
	sorted := slices.Clone(peers)
	slices.Sort(sorted)
	return sorted[hashString(group)%uint64(len(sorted))]
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// baseIndexLocked is the compaction base: the index of the last entry
// folded away (0 for an uncompacted log).
func (n *Node) baseIndexLocked() uint64 { return n.log[0].Index }

// lastIndexLocked is the index of the last log entry.
func (n *Node) lastIndexLocked() uint64 { return n.log[len(n.log)-1].Index }

// entryLocked returns the entry at index; the caller must have checked
// baseIndex <= index <= lastIndex (the base itself is a valid sentinel
// read: its term is the term of the compacted-away entry).
func (n *Node) entryLocked(index uint64) Entry {
	return n.log[index-n.log[0].Index]
}

// persistHardLocked records term and vote through the store; it must
// run before releasing n.mu so no RPC observing the new state can be
// answered ahead of the write.
func (n *Node) persistHardLocked() {
	err := n.store.SaveHardState(HardState{Term: n.currentTerm, VotedFor: n.votedFor})
	if err != nil && n.persistErr == nil {
		n.persistErr = err
	}
}

// persistEntriesLocked appends entries to the store (truncating any
// conflicting persisted suffix from entries[0].Index).
func (n *Node) persistEntriesLocked(entries []Entry) {
	if len(entries) == 0 {
		return
	}
	if err := n.store.AppendEntries(entries); err != nil && n.persistErr == nil {
		n.persistErr = err
	}
}

// PersistErr reports the first store failure, if any. Persistence
// errors do not halt the node — the in-memory path keeps the cluster
// live — but they void the crash-recovery guarantee, so harnesses
// should surface them.
func (n *Node) PersistErr() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.persistErr
}

// Stop shuts the node down and waits for its goroutines.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	close(n.stopCh)
	n.mu.Unlock()
	n.wg.Wait()
}

// Leader returns the current leader's ID as known by this node.
func (n *Node) Leader() (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderID, n.leaderID != ""
}

// State returns this node's current role and term.
func (n *Node) State() (State, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state, n.currentTerm
}

// LastIndex returns the index of the last log entry.
func (n *Node) LastIndex() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastIndexLocked()
}

// CompactionBase returns the index below which the log has been
// compacted away (0 until the first compaction).
func (n *Node) CompactionBase() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.baseIndexLocked()
}

// Propose appends data to the replicated log if this node is the
// leader. It returns the assigned index; commitment is reported through
// the Apply callback.
func (n *Node) Propose(data []byte) (uint64, error) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return 0, ErrStopped
	}
	if n.state != Leader {
		leader := n.leaderID
		n.mu.Unlock()
		return 0, fmt.Errorf("%w (leader is %q)", ErrNotLeader, leader)
	}
	entry := Entry{
		Term:  n.currentTerm,
		Index: n.lastIndexLocked() + 1,
		Data:  data,
	}
	n.log = append(n.log, entry)
	n.persistEntriesLocked(n.log[len(n.log)-1:])
	n.matchIndex[n.cfg.ID] = entry.Index
	// A single-node cluster commits on its own match; with peers this
	// is a no-op until replies arrive.
	n.advanceCommitLocked()
	n.mu.Unlock()

	n.broadcastAppend()
	return entry.Index, nil
}

func (n *Node) randomTimeout() time.Duration {
	base := n.cfg.ElectionTimeout
	return base + time.Duration(n.rng.Int63n(int64(base)))
}

// tickLoop drives election timeouts and leader heartbeats.
func (n *Node) tickLoop() {
	tick := n.cfg.HeartbeatInterval / 2
	if tick <= 0 {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	lastHeartbeat := time.Time{}
	for {
		select {
		case <-n.stopCh:
			return
		case now := <-ticker.C:
			n.mu.Lock()
			state := n.state
			elapsed := now.Sub(n.lastContact)
			span := n.timeoutSpan
			n.mu.Unlock()

			switch state {
			case Leader:
				if now.Sub(lastHeartbeat) >= n.cfg.HeartbeatInterval {
					lastHeartbeat = now
					n.broadcastAppend()
				}
			case Follower, Candidate:
				if elapsed >= span {
					n.startElection()
				}
			}
		}
	}
}

// startElection transitions to candidate and solicits votes.
func (n *Node) startElection() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.state = Candidate
	n.currentTerm++
	term := n.currentTerm
	n.votedFor = n.cfg.ID
	n.persistHardLocked() // term and self-vote durable before soliciting
	n.leaderID = ""
	n.lastContact = time.Now()
	n.timeoutSpan = n.randomTimeout()
	lastIdx := n.lastIndexLocked()
	lastTerm := n.entryLocked(lastIdx).Term
	n.mu.Unlock()

	args := &VoteArgs{
		Term:         term,
		CandidateID:  n.cfg.ID,
		LastLogIndex: lastIdx,
		LastLogTerm:  lastTerm,
	}

	var votesMu sync.Mutex
	votes := 1 // own vote
	if votes >= n.quorum {
		// Single-node cluster: the self-vote already carries the term.
		n.becomeLeader(term)
		return
	}
	for _, peer := range n.cfg.Peers {
		if peer == n.cfg.ID {
			continue
		}
		peer := peer
		go func() {
			raw, err := n.cfg.Endpoint.CallWithin(context.Background(), n.cfg.ElectionTimeout, peer, n.voteKind(), args, 64)
			if err != nil {
				return
			}
			reply, ok := raw.(*VoteReply)
			if !ok {
				return
			}
			n.mu.Lock()
			if reply.Term > n.currentTerm {
				n.becomeFollowerLocked(reply.Term, "")
				n.mu.Unlock()
				return
			}
			stillCandidate := n.state == Candidate && n.currentTerm == term
			n.mu.Unlock()
			if !stillCandidate || !reply.Granted {
				return
			}
			votesMu.Lock()
			votes++
			won := votes >= n.quorum
			votesMu.Unlock()
			if won {
				n.becomeLeader(term)
			}
		}()
	}
}

// becomeLeader transitions to leader for term if still a candidate.
func (n *Node) becomeLeader(term uint64) {
	n.mu.Lock()
	if n.state != Candidate || n.currentTerm != term {
		n.mu.Unlock()
		return
	}
	n.state = Leader
	n.leaderID = n.cfg.ID
	next := n.lastIndexLocked() + 1
	for _, p := range n.cfg.Peers {
		n.nextIndex[p] = next
		n.matchIndex[p] = 0
	}
	n.matchIndex[n.cfg.ID] = next - 1
	n.mu.Unlock()
	n.broadcastAppend()
}

// becomeFollowerLocked steps down; callers hold n.mu.
func (n *Node) becomeFollowerLocked(term uint64, leader string) {
	if term > n.currentTerm {
		n.currentTerm = term
		n.votedFor = ""
		n.persistHardLocked()
	}
	n.state = Follower
	if leader != "" {
		n.leaderID = leader
	}
	n.lastContact = time.Now()
	n.timeoutSpan = n.randomTimeout()
}

// broadcastAppend replicates to all peers.
func (n *Node) broadcastAppend() {
	n.mu.Lock()
	if n.state != Leader {
		n.mu.Unlock()
		return
	}
	term := n.currentTerm
	n.mu.Unlock()
	for _, peer := range n.cfg.Peers {
		if peer == n.cfg.ID {
			continue
		}
		go n.replicateTo(peer, term)
	}
}

// replicateTo sends one AppendEntries to a peer and processes the reply.
func (n *Node) replicateTo(peer string, term uint64) {
	n.mu.Lock()
	if n.state != Leader || n.currentTerm != term || n.stopped {
		n.mu.Unlock()
		return
	}
	base := n.baseIndexLocked()
	next := n.nextIndex[peer]
	if next < base+1 {
		// The prefix below the base is compacted away; it is committed
		// on a quorum, so a follower this far behind is caught up from
		// the base (leaders only compact below every peer's match).
		next = base + 1
	}
	if last := n.lastIndexLocked(); next > last+1 {
		next = last + 1
	}
	prevIdx := next - 1
	prevTerm := n.entryLocked(prevIdx).Term
	// Cap the batch per AppendEntries so a lagging follower is caught
	// up over several rounds instead of one unbounded message that
	// would monopolize the link and delay heartbeats.
	tail := n.log[next-base:]
	if len(tail) > maxEntriesPerAppend {
		tail = tail[:maxEntriesPerAppend]
	}
	entries := make([]Entry, len(tail))
	copy(entries, tail)
	args := &AppendArgs{
		Term:         term,
		LeaderID:     n.cfg.ID,
		PrevLogIndex: prevIdx,
		PrevLogTerm:  prevTerm,
		Entries:      entries,
		LeaderCommit: n.commitIndex,
	}
	n.mu.Unlock()

	size := 64
	for i := range entries {
		size += len(entries[i].Data) + 16
	}
	raw, err := n.cfg.Endpoint.CallWithin(context.Background(), n.cfg.ElectionTimeout, peer, n.appendKind(), args, size)
	if err != nil {
		return
	}
	reply, ok := raw.(*AppendReply)
	if !ok {
		return
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	if reply.Term > n.currentTerm {
		n.becomeFollowerLocked(reply.Term, "")
		return
	}
	if n.state != Leader || n.currentTerm != term {
		return
	}
	if reply.Success {
		match := prevIdx + uint64(len(entries))
		if match > n.matchIndex[peer] {
			n.matchIndex[peer] = match
		}
		n.nextIndex[peer] = match + 1
		n.advanceCommitLocked()
		return
	}
	// Log inconsistency: back off using the follower's hint.
	if reply.ConflictIndex > 0 && reply.ConflictIndex < n.nextIndex[peer] {
		n.nextIndex[peer] = reply.ConflictIndex
	} else if n.nextIndex[peer] > 1 {
		n.nextIndex[peer]--
	}
	if n.nextIndex[peer] < n.baseIndexLocked()+1 {
		n.nextIndex[peer] = n.baseIndexLocked() + 1
	}
}

// advanceCommitLocked moves commitIndex to the highest majority-matched
// index whose entry is from the current term (Raft's commitment rule).
func (n *Node) advanceCommitLocked() {
	for idx := n.lastIndexLocked(); idx > n.commitIndex; idx-- {
		if n.entryLocked(idx).Term != n.currentTerm {
			break
		}
		count := 0
		for _, p := range n.cfg.Peers {
			if n.matchIndex[p] >= idx {
				count++
			}
		}
		if count >= n.quorum {
			n.commitIndex = idx
			select {
			case n.applyCh <- struct{}{}:
			default:
			}
			// Propagate the new commit index to followers immediately
			// rather than on the next heartbeat, so follower state
			// machines (block delivery) stay in lock-step with the
			// leader's.
			term := n.currentTerm
			for _, peer := range n.cfg.Peers {
				if peer == n.cfg.ID {
					continue
				}
				go n.replicateTo(peer, term)
			}
			break
		}
	}
}

// handleVote processes RequestVote RPCs.
func (n *Node) handleVote(_ context.Context, _ string, payload any) (any, int, error) {
	args, ok := payload.(*VoteArgs)
	if !ok {
		return nil, 0, fmt.Errorf("raft: bad vote payload %T", payload)
	}
	n.mu.Lock()
	defer n.mu.Unlock()

	if args.Term > n.currentTerm {
		n.becomeFollowerLocked(args.Term, "")
	}
	reply := &VoteReply{Term: n.currentTerm}
	if args.Term < n.currentTerm {
		return reply, 16, nil
	}
	lastIdx := n.lastIndexLocked()
	lastTerm := n.entryLocked(lastIdx).Term
	upToDate := args.LastLogTerm > lastTerm ||
		(args.LastLogTerm == lastTerm && args.LastLogIndex >= lastIdx)
	if (n.votedFor == "" || n.votedFor == args.CandidateID) && upToDate {
		n.votedFor = args.CandidateID
		n.persistHardLocked() // vote durable before the reply leaves
		n.lastContact = time.Now()
		n.timeoutSpan = n.randomTimeout()
		reply.Granted = true
	}
	return reply, 16, nil
}

// handleAppend processes AppendEntries RPCs.
func (n *Node) handleAppend(_ context.Context, _ string, payload any) (any, int, error) {
	args, ok := payload.(*AppendArgs)
	if !ok {
		return nil, 0, fmt.Errorf("raft: bad append payload %T", payload)
	}
	if n.cfg.AppendDelay != nil && len(args.Entries) > 0 {
		n.cfg.AppendDelay()
	}

	n.mu.Lock()
	defer n.mu.Unlock()

	reply := &AppendReply{Term: n.currentTerm}
	if args.Term < n.currentTerm {
		return reply, 24, nil
	}
	n.becomeFollowerLocked(args.Term, args.LeaderID)
	reply.Term = n.currentTerm

	// Consistency check on the previous entry.
	base := n.baseIndexLocked()
	if args.PrevLogIndex > n.lastIndexLocked() {
		reply.ConflictIndex = n.lastIndexLocked() + 1
		return reply, 24, nil
	}
	entries := args.Entries
	prevIdx, prevTerm := args.PrevLogIndex, args.PrevLogTerm
	if prevIdx < base {
		// Everything at or below the base is committed and applied
		// here, so it matches the leader's log (Log Matching + Leader
		// Completeness); skip the already-compacted portion.
		skip := base - prevIdx
		if uint64(len(entries)) <= skip {
			reply.Success = true
			return reply, 24, nil
		}
		entries = entries[skip:]
		prevIdx, prevTerm = base, n.log[0].Term
	}
	if n.entryLocked(prevIdx).Term != prevTerm {
		// Find the first index of the conflicting term.
		conflictTerm := n.entryLocked(prevIdx).Term
		idx := prevIdx
		for idx > base+1 && n.entryLocked(idx-1).Term == conflictTerm {
			idx--
		}
		reply.ConflictIndex = idx
		return reply, 24, nil
	}

	// Append any new entries, truncating on divergence.
	var appended []Entry
	for i, e := range entries {
		idx := prevIdx + 1 + uint64(i)
		if idx <= n.lastIndexLocked() {
			if n.entryLocked(idx).Term == e.Term {
				continue
			}
			n.log = n.log[:idx-base]
		}
		n.log = append(n.log, e)
		appended = append(appended, e)
	}
	n.persistEntriesLocked(appended)

	if args.LeaderCommit > n.commitIndex {
		last := n.lastIndexLocked()
		if args.LeaderCommit < last {
			n.commitIndex = args.LeaderCommit
		} else {
			n.commitIndex = last
		}
		select {
		case n.applyCh <- struct{}{}:
		default:
		}
	}
	reply.Success = true
	return reply, 24, nil
}

// applyLoop delivers committed entries to the Apply callback in order.
func (n *Node) applyLoop() {
	for {
		select {
		case <-n.stopCh:
			return
		case <-n.applyCh:
		}
		for {
			n.mu.Lock()
			if n.lastApplied >= n.commitIndex {
				n.mu.Unlock()
				break
			}
			n.lastApplied++
			entry := n.entryLocked(n.lastApplied)
			n.mu.Unlock()
			if n.cfg.Apply != nil {
				n.cfg.Apply(entry)
			}
		}
		n.maybeCompact()
	}
}

// maybeCompact folds the committed, applied prefix of the log into the
// base sentinel once it exceeds the configured threshold. A leader
// additionally holds compaction below every peer's match index so it
// never discards entries a lagging follower still needs (AppendEntries
// here has no snapshot-install fallback; a dead follower therefore
// stalls leader compaction, which is bounded by run length).
func (n *Node) maybeCompact() {
	if n.cfg.CompactThreshold < 0 {
		return
	}
	threshold := n.cfg.CompactThreshold
	if threshold == 0 {
		threshold = defaultCompactThreshold
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	limit := n.lastApplied
	if n.state == Leader {
		for _, p := range n.cfg.Peers {
			if p == n.cfg.ID {
				continue
			}
			if m := n.matchIndex[p]; m < limit {
				limit = m
			}
		}
	}
	base := n.baseIndexLocked()
	if limit <= base || limit-base < uint64(threshold) {
		return
	}
	keep := n.log[limit-base:]
	compacted := make([]Entry, len(keep))
	copy(compacted, keep)
	compacted[0].Data = nil // base sentinel carries no payload
	n.log = compacted
	if err := n.store.Compact(limit, n.log[0].Term); err != nil && n.persistErr == nil {
		n.persistErr = err
	}
}
