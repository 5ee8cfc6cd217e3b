package raft

import (
	"testing"
	"time"

	"fabricsim/internal/simtest"
	"fabricsim/internal/transport"
)

// freshElection is the election timeout of the fresh-start tests. A
// follower's timeout is randomized in [1x, 2x), so a leader elected
// inside one freshElection was elected by a campaign at the first
// tick; it is long enough that a loaded host does not elect one late.
const freshElection = 300 * time.Millisecond

// TestFreshGroupElectsCampaignerAtOnce: a fresh group's designated
// campaigner wins term 1 at its first tick, well inside one election
// timeout, and no other member campaigns: every member reaches term 1
// and none passes it.
func TestFreshGroupElectsCampaignerAtOnce(t *testing.T) {
	start := time.Now()
	c := newClusterElecting(t, 3, nil, freshElection)
	leader := c.waitLeader(10 * freshElection)
	took := time.Since(start)
	if want := campaigner("", c.peers); leader.cfg.ID != want {
		t.Errorf("leader is %s, want the campaigner %s", leader.cfg.ID, want)
	}
	if took >= freshElection {
		t.Errorf("leader elected after %v, want inside one election timeout (%v)", took, freshElection)
	}
	// The member whose vote the campaign did not need learns term 1
	// from the leader's first message, which a busy host may delay.
	simtest.Until(10*freshElection, func() bool {
		for _, n := range c.nodes {
			if _, term := n.State(); term == 0 {
				return false
			}
		}
		return true
	})
	for id, n := range c.nodes {
		if _, term := n.State(); term != 1 {
			t.Errorf("node %s at term %d, want 1", id, term)
		}
	}
}

// TestFreshGroupsSpreadCampaigners: two groups on the same members
// whose names hash to different indices are led by different nodes.
func TestFreshGroupsSpreadCampaigners(t *testing.T) {
	peers := []string{"n1", "n2", "n3"}
	groups := []string{"ch1", "ch3"}
	if campaigner(groups[0], peers) == campaigner(groups[1], peers) {
		t.Fatalf("groups %q share a campaigner; pick names that hash apart", groups)
	}
	net := transport.NewNetwork(transport.Config{TimeScale: 1.0, Latency: 200 * time.Microsecond})
	t.Cleanup(net.Close)
	members := make(map[string][]*Node)
	began := time.Now()
	for _, id := range peers {
		ep, err := net.Register(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range groups {
			node, err := NewNode(Config{
				ID:                id,
				Peers:             peers,
				Endpoint:          ep,
				ElectionTimeout:   freshElection,
				HeartbeatInterval: 20 * time.Millisecond,
				Group:             g,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(node.Stop)
			members[g] = append(members[g], node)
		}
	}
	for _, g := range groups {
		want := campaigner(g, peers)
		leader := ""
		simtest.Until(freshElection-time.Since(began), func() bool {
			for _, n := range members[g] {
				if st, _ := n.State(); st == Leader {
					leader = n.cfg.ID
				}
			}
			return leader != ""
		})
		if leader != want {
			t.Errorf("group %s: leader %q inside one election timeout, want the campaigner %s", g, leader, want)
		}
	}
}

// TestRestartedCampaignerWaitsForTimeout: the campaigner restarted over
// its store has a term, so it is not fresh and does not campaign at its
// first tick; with the leader's heartbeats arriving, no term rises for
// two election timeouts. Each restart gives the first tick a chance to
// come before the first heartbeat, so the node restarts several times.
func TestRestartedCampaignerWaitsForTimeout(t *testing.T) {
	c := newClusterElecting(t, 3, func(string) Store { return NewMemStore() }, freshElection)
	d := campaigner("", c.peers)
	if first := c.waitLeader(10 * freshElection); first.cfg.ID != d {
		t.Fatalf("fresh leader %s, want the campaigner %s", first.cfg.ID, d)
	}
	// Hand leadership to another member: cut the campaigner off until
	// one is elected, then let it rejoin as a follower.
	c.net.Links().Isolate(d, true)
	leader := c.waitLeader(10 * freshElection)
	c.net.Links().Isolate(d, false)
	if !simtest.Until(10*freshElection, func() bool {
		st, _ := c.nodes[d].State()
		l, _ := c.nodes[d].Leader()
		return st == Follower && l == leader.cfg.ID
	}) {
		t.Fatalf("%s never followed the new leader %s", d, leader.cfg.ID)
	}
	_, term := leader.State()

	for i := 0; i < 8; i++ {
		c.restart(d)
		time.Sleep(30 * time.Millisecond) // past the restarted node's first tick
	}
	time.Sleep(2 * freshElection)
	for id, n := range c.nodes {
		if _, got := n.State(); got != term {
			t.Errorf("node %s at term %d after %s restarted, want %d", id, got, d, term)
		}
	}
	if st, _ := leader.State(); st != Leader {
		t.Errorf("%s lost leadership to the restarted campaigner", leader.cfg.ID)
	}
}
