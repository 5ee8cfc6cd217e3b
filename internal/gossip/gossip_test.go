package gossip

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"fabricsim/internal/metrics"
	"fabricsim/internal/orderer"
	"fabricsim/internal/simtest"
	"fabricsim/internal/trace"
	"fabricsim/internal/transport"
	"fabricsim/internal/types"
)

// fakeSink mimics the peer's ingest semantics: strictly ordered commit
// from block 1, an out-of-order pending buffer, and gap reporting.
type fakeSink struct {
	mu     sync.Mutex
	chains map[string]*fakeChain
}

type fakeChain struct {
	next    uint64
	blocks  map[uint64]*types.Block
	pending map[uint64]*types.Block
}

func newFakeSink(channels ...string) *fakeSink {
	if len(channels) == 0 {
		channels = []string{orderer.DefaultChannel}
	}
	s := &fakeSink{chains: make(map[string]*fakeChain)}
	for _, ch := range channels {
		s.chains[ch] = &fakeChain{
			next:    1,
			blocks:  make(map[uint64]*types.Block),
			pending: make(map[uint64]*types.Block),
		}
	}
	return s
}

func (s *fakeSink) chain(channel string) *fakeChain {
	if channel == "" {
		channel = orderer.DefaultChannel
	}
	return s.chains[channel]
}

func (s *fakeSink) IngestBlock(block *types.Block) (IngestResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.chain(block.Metadata.ChannelID)
	if c == nil {
		return IngestResult{}, fmt.Errorf("fakeSink: unknown channel %q", block.Metadata.ChannelID)
	}
	num := block.Header.Number
	switch {
	case num < c.next:
		return IngestResult{}, nil
	case num > c.next:
		if _, buffered := c.pending[num]; buffered {
			return IngestResult{}, nil
		}
		c.pending[num] = block
		return IngestResult{Fresh: true, MissFrom: c.next, MissTo: num}, nil
	}
	c.blocks[num] = block
	c.next = num + 1
	for {
		nxt, ok := c.pending[c.next]
		if !ok {
			break
		}
		delete(c.pending, c.next)
		c.blocks[c.next] = nxt
		c.next = nxt.Header.Number + 1
	}
	return IngestResult{Fresh: true}, nil
}

func (s *fakeSink) NextBlock(channel string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.chain(channel)
	if c == nil {
		return 0
	}
	return c.next
}

func (s *fakeSink) BlockAt(channel string, num uint64) (*types.Block, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.chain(channel)
	if c == nil {
		return nil, false
	}
	b, ok := c.blocks[num]
	return b, ok
}

// seed commits blocks 1..n directly into the sink.
func (s *fakeSink) seed(channel string, n uint64) {
	for num := uint64(1); num <= n; num++ {
		_, _ = s.IngestBlock(testBlock(channel, num))
	}
}

func testBlock(channel string, num uint64) *types.Block {
	b := types.NewBlock(num, []byte("prev"), [][]byte{[]byte(fmt.Sprintf("%s/%d", channel, num))})
	b.Metadata.ChannelID = channel
	return b
}

// fakeOrderer is a deliver-service stub: it serves a chain the test
// grows over KindGetBlocks, parks polls past the tip until the chain
// grows or their Wait ends, and records every poll.
type fakeOrderer struct {
	mu       sync.Mutex
	blocks   []*types.Block // index 0 unused; blocks[i] has number i
	wake     chan struct{}
	polls    []fakePoll
	inFlight map[string]int
}

// fakePoll is one served poll: who asked, from which block, when it
// began, and how many blocks it returned.
type fakePoll struct {
	poller string
	from   uint64
	began  time.Time
	served int
}

func newFakeOrderer(t *testing.T, net *transport.Network, id string, height uint64) *fakeOrderer {
	t.Helper()
	f := &fakeOrderer{blocks: []*types.Block{nil}, inFlight: make(map[string]int)}
	f.grow(height)
	ep, err := net.Register(id)
	if err != nil {
		t.Fatal(err)
	}
	ep.Handle(orderer.KindGetBlocks, f.handleGetBlocks)
	return f
}

func (f *fakeOrderer) handleGetBlocks(ctx context.Context, from string, payload any) (any, int, error) {
	args := payload.(*orderer.GetBlocksArgs)
	poll := fakePoll{poller: from, from: args.From, began: time.Now()}
	f.mu.Lock()
	f.inFlight[from]++
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.inFlight[from]--
		f.polls = append(f.polls, poll)
		f.mu.Unlock()
	}()
	deadline := poll.began.Add(args.Wait)
	for {
		f.mu.Lock()
		reply := &orderer.GetBlocksReply{}
		for num := max(args.From, 1); num < min(args.To, uint64(len(f.blocks))); num++ {
			reply.Blocks = append(reply.Blocks, f.blocks[num])
		}
		if len(reply.Blocks) > 0 || !time.Now().Before(deadline) {
			f.mu.Unlock()
			poll.served = len(reply.Blocks)
			return reply, 64, nil
		}
		if f.wake == nil {
			f.wake = make(chan struct{})
		}
		wake := f.wake
		f.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(time.Until(deadline)):
		}
	}
}

// grow appends n blocks to the chain and wakes the parked polls.
func (f *fakeOrderer) grow(n uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := uint64(0); i < n; i++ {
		f.blocks = append(f.blocks, testBlock(orderer.DefaultChannel, uint64(len(f.blocks))))
	}
	if f.wake != nil {
		close(f.wake)
		f.wake = nil
	}
}

// pollsBy returns the finished polls of one poller, in order.
func (f *fakeOrderer) pollsBy(poller string) []fakePoll {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []fakePoll
	for _, p := range f.polls {
		if p.poller == poller {
			out = append(out, p)
		}
	}
	return out
}

// pollers returns every node that has polled, finished or not.
func (f *fakeOrderer) pollers() map[string]bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]bool)
	for _, p := range f.polls {
		out[p.poller] = true
	}
	for p, n := range f.inFlight {
		if n > 0 {
			out[p] = true
		}
	}
	return out
}

// polling reports whether the node has a poll parked here.
func (f *fakeOrderer) polling(poller string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inFlight[poller] > 0
}

// cluster is a one-org gossip test fixture.
type cluster struct {
	t     *testing.T
	net   *transport.Network
	nodes []*Node
	sinks []*fakeSink
	// cols and tracers record each node's gossip events; a tracer's
	// block origins give every accepted block's source and hop count.
	cols    []*metrics.Collector
	tracers []*trace.Tracer
}

func newCluster(t *testing.T, size int, ordererID string, tweak func(*Config)) *cluster {
	t.Helper()
	c := &cluster{
		t:   t,
		net: transport.NewNetwork(transport.Config{TimeScale: 1.0}),
	}
	t.Cleanup(c.net.Close)
	members := make([]string, size)
	for i := range members {
		members[i] = fmt.Sprintf("peer%d", i+1)
	}
	for i := 0; i < size; i++ {
		ep, err := c.net.Register(members[i])
		if err != nil {
			t.Fatal(err)
		}
		sink := newFakeSink()
		col, tr := metrics.NewCollector(), trace.New(0)
		cfg := Config{
			ID:                  members[i],
			Org:                 "Org1",
			Endpoint:            ep,
			OrgMembers:          members,
			ChannelPeers:        members,
			OrdererID:           ordererID,
			Sink:                sink,
			Fanout:              2,
			AntiEntropyInterval: 40 * time.Millisecond,
			LeaderLease:         120 * time.Millisecond,
			Collector:           col,
			Tracer:              tr,
			Seed:                int64(i + 1),
		}
		if tweak != nil {
			tweak(&cfg)
		}
		c.sinks = append(c.sinks, sink)
		c.cols = append(c.cols, col)
		c.tracers = append(c.tracers, tr)
		c.nodes = append(c.nodes, NewNode(cfg))
	}
	return c
}

// summary reduces node i's collector.
func (c *cluster) summary(i int) metrics.Summary {
	c.cols[i].Submitted("probe", time.Now()) // Summarize reduces nothing without a transaction record
	return c.cols[i].Summarize(metrics.SummaryOptions{})
}

func (c *cluster) start() {
	c.t.Helper()
	for _, n := range c.nodes {
		n.Start()
		c.t.Cleanup(n.Stop)
	}
}

func (c *cluster) waitConverged(height uint64, d time.Duration) {
	c.t.Helper()
	if simtest.Until(d, func() bool {
		for _, s := range c.sinks {
			if s.NextBlock("") != height+1 {
				return false
			}
		}
		return true
	}) {
		return
	}
	for i, s := range c.sinks {
		c.t.Errorf("node %d next = %d, want %d", i+1, s.NextBlock(""), height+1)
	}
	c.t.FailNow()
}

// deliver hands a block to n as its deliver loop does.
func deliver(n *Node, block *types.Block) {
	n.acceptBlock(block, 0, "", metrics.SourceDeliver)
}

// leaderOf finds the node currently leading the default channel.
func (c *cluster) leaderOf() *Node {
	c.t.Helper()
	var lead *Node
	if !simtest.Until(2*time.Second, func() bool {
		for _, n := range c.nodes {
			if n.IsLeader(orderer.DefaultChannel) {
				lead = n
				return true
			}
		}
		return false
	}) {
		c.t.Fatal("no leader emerged")
	}
	return lead
}

// TestPushGossipSpreadsBlocks checks that a block handed to one member
// reaches the whole org via fanout-bounded pushes, each block accepted
// exactly once per node.
func TestPushGossipSpreadsBlocks(t *testing.T) {
	c := newCluster(t, 5, "", nil)
	c.start()
	lead := c.leaderOf()
	for num := uint64(1); num <= 3; num++ {
		deliver(lead, testBlock(orderer.DefaultChannel, num))
	}
	c.waitConverged(3, 3*time.Second)
	for i, s := range c.sinks {
		for num := uint64(1); num <= 3; num++ {
			if _, ok := s.BlockAt("", num); !ok {
				t.Errorf("node %d missing block %d", i+1, num)
			}
		}
	}
	for i, tr := range c.tracers {
		for num := uint64(1); num <= 3; num++ {
			if _, _, ok := tr.OriginOf(orderer.DefaultChannel, num); !ok {
				t.Errorf("node %d reported no accept of block %d", i+1, num)
			}
		}
		if s := c.summary(i); s.GossipBlocks+s.DeliverBlocks > 3 {
			t.Errorf("node %d accepted %d pushed blocks, want at most 3", i+1, s.GossipBlocks+s.DeliverBlocks)
		}
	}
}

// TestHopCountsBounded checks that forwarded messages carry increasing
// hop counts and never exceed maxHops, on an org with more members than
// a push path may visit.
func TestHopCountsBounded(t *testing.T) {
	c := newCluster(t, maxHops+4, "", func(cfg *Config) {
		cfg.Fanout = 1 // force long gossip paths
	})
	c.start()
	lead := c.leaderOf()
	for num := uint64(1); num <= 5; num++ {
		deliver(lead, testBlock(orderer.DefaultChannel, num))
	}
	c.waitConverged(5, 5*time.Second) // anti-entropy covers past maxHops
	sawForwarded := false
	for _, tr := range c.tracers {
		for num := uint64(1); num <= 5; num++ {
			_, h, _ := tr.OriginOf(orderer.DefaultChannel, num)
			if h > maxHops {
				t.Errorf("hop count %d exceeds maxHops %d", h, maxHops)
			}
			if h > 0 {
				sawForwarded = true
			}
		}
	}
	if !sawForwarded {
		t.Error("no block traveled a gossip hop")
	}
}

// TestDuplicateSuppression checks the sink's dedup: re-pushing an
// already-owned block is counted as a duplicate and goes no further.
func TestDuplicateSuppression(t *testing.T) {
	c := newCluster(t, 2, "", nil)
	c.start()
	lead := c.leaderOf()
	b := testBlock(orderer.DefaultChannel, 1)
	deliver(lead, b)
	c.waitConverged(1, 2*time.Second)
	deliver(lead, b) // replay
	if !simtest.Until(time.Second, func() bool {
		for i, n := range c.nodes {
			if n == lead && c.summary(i).GossipDuplicates >= 1 {
				return true
			}
		}
		return false
	}) {
		t.Error("replayed block not suppressed as duplicate")
	}
}

// TestInitialLeaderSubscribesAndCatchesUp checks the deliver side: the
// rank-0 member claims leadership, and its first deliver poll fetches
// the whole chain it missed from its own height; gossip spreads it to
// the whole org. The leader is the only node that polls the orderer.
func TestInitialLeaderSubscribesAndCatchesUp(t *testing.T) {
	c := newCluster(t, 4, "osn1", nil)
	fo := newFakeOrderer(t, c.net, "osn1", 5)
	c.start()
	c.waitConverged(5, 5*time.Second)
	lead := c.leaderOf()
	if pollers := fo.pollers(); len(pollers) != 1 || !pollers[lead.cfg.ID] {
		t.Errorf("orderer pollers = %v, want only the leader %s", pollers, lead.cfg.ID)
	}
	if polls := fo.pollsBy(lead.cfg.ID); len(polls) == 0 || polls[0].from != 1 || polls[0].served != 5 {
		t.Errorf("leader's first poll = %+v, want from 1 serving all 5 blocks", polls)
	}
}

// TestLeaderFailoverReelectsAndResubscribes kills the leader and checks
// that a surviving member claims the lease and catches up from its own
// height in one deliver poll. Once the old leader recovers and the org
// agrees on one leader again, every other node's poll ends within a
// lease or two, and only the leader polls from then on.
func TestLeaderFailoverReelectsAndResubscribes(t *testing.T) {
	c := newCluster(t, 3, "osn1", nil)
	fo := newFakeOrderer(t, c.net, "osn1", 2)
	c.start()
	c.waitConverged(2, 5*time.Second)
	old := c.leaderOf()
	c.net.Links().Isolate(old.cfg.ID, true)
	fo.grow(3)

	var newLead *Node
	if !simtest.Until(5*time.Second, func() bool {
		for _, n := range c.nodes {
			if n != old && n.IsLeader(orderer.DefaultChannel) {
				newLead = n
				return true
			}
		}
		return false
	}) {
		t.Fatal("no new leader elected after crash")
	}
	if !simtest.Until(2*time.Second, func() bool { return len(fo.pollsBy(newLead.cfg.ID)) > 0 }) {
		t.Fatal("new leader never polled the orderer")
	}
	if first := fo.pollsBy(newLead.cfg.ID)[0]; first.from != 3 || first.served != 3 {
		t.Errorf("new leader's first poll = %+v, want from its height 3 serving blocks 3-5", first)
	}

	// Recovery: the whole org converges on exactly one self-claiming
	// leader. Which node wins is not asserted — the recovered old
	// leader resigns on the higher-term beat, but as the channel's
	// preferred (rank-0) member it may legitimately re-claim the lease
	// afterwards (preferred-leader failback).
	c.net.Links().Isolate(old.cfg.ID, false)
	var lead *Node
	if !simtest.Until(10*time.Second, func() bool {
		views := make(map[string]bool)
		var claims []*Node
		for _, n := range c.nodes {
			if l, ok := n.Leader(orderer.DefaultChannel); ok {
				views[l] = true
			}
			if n.IsLeader(orderer.DefaultChannel) {
				claims = append(claims, n)
			}
		}
		if len(views) == 1 && len(claims) == 1 {
			lead = claims[0]
			return true
		}
		return false
	}) {
		t.Fatal("org never converged on a single leader after the old one recovered")
	}
	// A deposed leader's loop ends with the poll it has parked, which
	// lasts at most one lease (two here, for scheduling slack).
	lease := c.nodes[0].cfg.LeaderLease
	if !simtest.Until(2*lease, func() bool {
		for _, n := range c.nodes {
			if n != lead && fo.polling(n.cfg.ID) {
				return false
			}
		}
		return true
	}) {
		t.Fatal("a node that no longer leads still polls the orderer")
	}
	quiet := time.Now()
	fo.grow(1)
	c.waitConverged(6, 5*time.Second)
	for _, n := range c.nodes {
		if n == lead {
			continue
		}
		for _, p := range fo.pollsBy(n.cfg.ID) {
			if p.began.After(quiet) {
				t.Errorf("%s, not the leader, polled again at %v", n.cfg.ID, p.began.Sub(quiet))
			}
		}
		if fo.polling(n.cfg.ID) {
			t.Errorf("%s, not the leader, polls again", n.cfg.ID)
		}
	}
}

// TestAntiEntropyClosesGap checks pull-based repair: a node that missed
// every push converges through digest exchange + ranged pulls alone.
func TestAntiEntropyClosesGap(t *testing.T) {
	// The blocks are seeded straight into node 1's ledger and never
	// pushed, so digest exchange + ranged pulls are the only way node 2
	// can learn of them.
	c := newCluster(t, 2, "", nil)
	c.sinks[0].seed(orderer.DefaultChannel, 6)
	c.start()
	c.waitConverged(6, 5*time.Second)
	found := false
	for i := range c.nodes {
		if c.summary(i).AntiEntropyBlocks > 0 {
			found = true
		}
	}
	if !found {
		t.Error("convergence happened without any anti-entropy pull")
	}
}

// TestGossipGapTriggersImmediatePull checks that a block running ahead
// of the chain triggers a targeted pull from its sender instead of
// waiting for the next anti-entropy round.
func TestGossipGapTriggersImmediatePull(t *testing.T) {
	c := newCluster(t, 2, "", func(cfg *Config) {
		cfg.AntiEntropyInterval = time.Hour // rule out periodic repair
	})
	c.sinks[0].seed(orderer.DefaultChannel, 4)
	c.start()
	lead := c.nodes[0]
	// Push only block 5: node 2 sees the gap [1,5) and pulls it.
	deliver(lead, testBlock(orderer.DefaultChannel, 5))
	if simtest.Until(3*time.Second, func() bool { return c.sinks[1].NextBlock("") == 6 }) {
		return
	}
	t.Fatalf("node 2 next = %d, want 6 (gap pull from sender)", c.sinks[1].NextBlock(""))
}
