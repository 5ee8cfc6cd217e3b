package raft

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"fabricsim/internal/simtest"
	"fabricsim/internal/transport"
)

// cluster is a test harness around n Raft nodes on one network.
type cluster struct {
	t        *testing.T
	net      *transport.Network
	nodes    map[string]*Node
	peers    []string
	stores   map[string]Store
	election time.Duration

	mu      sync.Mutex
	applied map[string][]Entry
}

func newCluster(t *testing.T, n int) *cluster {
	return newClusterWithStores(t, n, nil)
}

// newClusterWithStores builds a cluster whose nodes persist through
// mkStore-provided stores, enabling crash-restart tests; nil mkStore
// means volatile (node-private) stores.
func newClusterWithStores(t *testing.T, n int, mkStore func(id string) Store) *cluster {
	return newClusterElecting(t, n, mkStore, 100*time.Millisecond)
}

// newClusterElecting is newClusterWithStores with the nodes' election
// timeout; heartbeats stay every 20ms.
func newClusterElecting(t *testing.T, n int, mkStore func(id string) Store, election time.Duration) *cluster {
	t.Helper()
	c := &cluster{
		t:        t,
		net:      transport.NewNetwork(transport.Config{TimeScale: 1.0, Latency: 200 * time.Microsecond}),
		nodes:    make(map[string]*Node),
		stores:   make(map[string]Store),
		election: election,
		applied:  make(map[string][]Entry),
	}
	t.Cleanup(c.net.Close)
	for i := 1; i <= n; i++ {
		c.peers = append(c.peers, fmt.Sprintf("n%d", i))
	}
	for _, id := range c.peers {
		if mkStore != nil {
			c.stores[id] = mkStore(id)
		}
		c.nodes[id] = c.startNode(id)
		t.Cleanup(func() { c.stopNode(id) })
	}
	return c
}

// startNode registers id on the network and boots a node against the
// cluster's store for id (nil for volatile clusters).
func (c *cluster) startNode(id string) *Node {
	c.t.Helper()
	ep, err := c.net.Register(id)
	if err != nil {
		c.t.Fatal(err)
	}
	node, err := NewNode(Config{
		ID:                id,
		Peers:             c.peers,
		Endpoint:          ep,
		ElectionTimeout:   c.election,
		HeartbeatInterval: 20 * time.Millisecond,
		Store:             c.stores[id],
		Apply: func(e Entry) {
			c.mu.Lock()
			c.applied[id] = append(c.applied[id], e)
			c.mu.Unlock()
		},
	})
	if err != nil {
		c.t.Fatal(err)
	}
	return node
}

func (c *cluster) stopNode(id string) {
	if n := c.nodes[id]; n != nil {
		n.Stop()
	}
}

// restart crash-restarts id: the node is stopped and rebuilt from its
// persisted store under the same identity. Applied entries recorded
// before the restart are kept (the new node re-applies from its
// compaction base, so c.applied[id] may contain duplicates — tests
// that restart a node should compare suffixes or reset the slice).
func (c *cluster) restart(id string) *Node {
	c.t.Helper()
	c.stopNode(id)
	c.net.Deregister(id)
	node := c.startNode(id)
	c.nodes[id] = node
	return node
}

// waitLeader blocks until exactly one live node considers itself leader.
func (c *cluster) waitLeader(timeout time.Duration) *Node {
	var leader *Node
	if !simtest.Until(timeout, func() bool {
		for id, n := range c.nodes {
			if c.net.Links().Isolated(id) {
				continue
			}
			if st, _ := n.State(); st == Leader {
				leader = n
				return true
			}
		}
		return false
	}) {
		c.t.Fatal("no leader elected")
	}
	return leader
}

func (c *cluster) appliedOn(id string) []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, len(c.applied[id]))
	copy(out, c.applied[id])
	return out
}

func (c *cluster) waitApplied(id string, count int, timeout time.Duration) []Entry {
	var got []Entry
	if !simtest.Until(timeout, func() bool { got = c.appliedOn(id); return len(got) >= count }) {
		c.t.Fatalf("node %s applied %d entries, want %d", id, len(got), count)
	}
	return got
}

func TestElection(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.waitLeader(3 * time.Second)
	if _, term := leader.State(); term == 0 {
		t.Error("leader at term 0")
	}
	// All nodes eventually agree on the leader.
	if !simtest.Until(2*time.Second, func() bool {
		for _, n := range c.nodes {
			if l, ok := n.Leader(); !ok || l != leader.cfg.ID {
				return false
			}
		}
		return true
	}) {
		t.Error("nodes never agreed on the leader")
	}
}

func TestReplicationAndApply(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.waitLeader(3 * time.Second)
	for i := 0; i < 5; i++ {
		if _, err := leader.Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for id := range c.nodes {
		entries := c.waitApplied(id, 5, 5*time.Second)
		for i := 0; i < 5; i++ {
			if entries[i].Index != uint64(i+1) || !bytes.Equal(entries[i].Data, []byte{byte(i)}) {
				t.Errorf("node %s entry %d = %+v", id, i, entries[i])
			}
		}
	}
}

func TestProposeOnFollowerRejected(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.waitLeader(3 * time.Second)
	for id, n := range c.nodes {
		if id == leader.cfg.ID {
			continue
		}
		if _, err := n.Propose([]byte("x")); err == nil {
			t.Errorf("follower %s accepted proposal", id)
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	c := newCluster(t, 5)
	leader := c.waitLeader(3 * time.Second)
	if _, err := leader.Propose([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	for id := range c.nodes {
		c.waitApplied(id, 1, 5*time.Second)
	}

	c.net.Links().Isolate(leader.cfg.ID, true)
	var next *Node
	if !simtest.Until(5*time.Second, func() bool {
		for id, n := range c.nodes {
			if id == leader.cfg.ID || c.net.Links().Isolated(id) {
				continue
			}
			if st, _ := n.State(); st == Leader {
				next = n
				return true
			}
		}
		return false
	}) {
		t.Fatal("no new leader after crash")
	}
	if _, err := next.Propose([]byte("post")); err != nil {
		t.Fatal(err)
	}
	for id := range c.nodes {
		if id == leader.cfg.ID {
			continue
		}
		entries := c.waitApplied(id, 2, 5*time.Second)
		if !bytes.Equal(entries[1].Data, []byte("post")) {
			t.Errorf("node %s entry 2 = %q", id, entries[1].Data)
		}
	}
}

// Log-matching safety: all nodes apply identical sequences even with
// concurrent proposals.
func TestLogMatchingUnderConcurrency(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.waitLeader(3 * time.Second)
	const n = 30
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = leader.Propose([]byte{byte(i)})
		}()
	}
	wg.Wait()
	want := c.waitApplied(leader.cfg.ID, 1, 5*time.Second)
	// All proposals may not commit if leadership churned; compare the
	// common applied prefix across nodes, once every node has applied
	// what the leader has, or after 300 ms.
	simtest.Until(300*time.Millisecond, func() bool {
		ref := c.appliedOn(leader.cfg.ID)
		for id := range c.nodes {
			if len(c.appliedOn(id)) < len(ref) {
				return false
			}
		}
		return true
	})
	ref := c.appliedOn(leader.cfg.ID)
	for id := range c.nodes {
		got := c.appliedOn(id)
		minLen := len(ref)
		if len(got) < minLen {
			minLen = len(got)
		}
		for i := 0; i < minLen; i++ {
			if got[i].Index != ref[i].Index || !bytes.Equal(got[i].Data, ref[i].Data) {
				t.Fatalf("divergent apply at %d on %s", i, id)
			}
		}
	}
	_ = want
}

func TestEntryAccessors(t *testing.T) {
	c := newCluster(t, 3)
	leader := c.waitLeader(3 * time.Second)
	idx, err := leader.Propose([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	c.waitApplied(leader.cfg.ID, 1, 5*time.Second)
	e, ok := leader.EntryAt(idx)
	if !ok || !bytes.Equal(e.Data, []byte("hello")) {
		t.Errorf("EntryAt(%d) = %+v ok=%v", idx, e, ok)
	}
	if _, ok := leader.EntryAt(0); ok {
		t.Error("sentinel entry exposed")
	}
	if leader.LogLength() != 1 {
		t.Errorf("LogLength = %d", leader.LogLength())
	}
	if leader.CommitIndex() != idx {
		t.Errorf("CommitIndex = %d", leader.CommitIndex())
	}
}

func TestStopIsIdempotent(t *testing.T) {
	c := newCluster(t, 3)
	n := c.nodes["n1"]
	n.Stop()
	n.Stop()
	if _, err := n.Propose(nil); err != ErrStopped {
		t.Errorf("Propose after stop: %v", err)
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := NewNode(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}
