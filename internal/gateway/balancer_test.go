package gateway

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fabricsim/internal/peer"
	"fabricsim/internal/policy"
	"fabricsim/internal/transport"
	"fabricsim/internal/types"
)

func testReplicas(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("peer1r%d", i+1)
	}
	return out
}

func TestRoundRobinSpreadsPerPrincipal(t *testing.T) {
	b := NewRoundRobin()
	lt := NewLoadTracker()
	reps := testReplicas(4)
	seen := make(map[string]int)
	for i := 0; i < 40; i++ {
		seen[b.Pick("Org1.peer0", reps, lt)]++
	}
	for _, r := range reps {
		if seen[r] != 10 {
			t.Errorf("replica %s picked %d of 40: %v", r, seen[r], seen)
		}
	}
	// A second principal rotates independently, starting from its own
	// cursor.
	if got := b.Pick("Org2.peer0", reps, lt); got != reps[0] {
		t.Errorf("fresh principal started at %s, want %s", got, reps[0])
	}
}

func TestPowerOfTwoPrefersIdleReplica(t *testing.T) {
	b := NewPowerOfTwo(1)
	lt := NewLoadTracker()
	reps := testReplicas(2)
	// Load peer1r1 with a big in-flight backlog; every pick must land on
	// the idle replica (with two candidates, p2c always samples both).
	for i := 0; i < 10; i++ {
		lt.Begin(reps[0])
	}
	for i := 0; i < 20; i++ {
		if got := b.Pick("Org1.peer0", reps, lt); got != reps[1] {
			t.Fatalf("pick %d chose loaded replica %s", i, got)
		}
	}
}

func TestLeastLatencyPrefersFastReplica(t *testing.T) {
	b := NewLeastLatency()
	lt := NewLoadTracker()
	reps := testReplicas(2)
	// Both replicas measured once: r1 slow, r2 fast.
	lt.Begin(reps[0])
	lt.Done(reps[0], 80*time.Millisecond, true)
	lt.Begin(reps[1])
	lt.Done(reps[1], 10*time.Millisecond, true)
	for i := 0; i < 10; i++ {
		if got := b.Pick("Org1.peer0", reps, lt); got != reps[1] {
			t.Fatalf("pick %d chose slow replica %s", i, got)
		}
	}
	// An untried replica scores zero and is probed before the averages
	// take over.
	reps3 := append(append([]string(nil), reps...), "peer1r3")
	if got := b.Pick("Org1.peer0", reps3, lt); got != "peer1r3" {
		t.Errorf("untried replica not probed, got %s", got)
	}
}

func TestBalancersSkipDownReplicas(t *testing.T) {
	lt := NewLoadTracker()
	reps := testReplicas(3)
	// A failed call marks the replica down for the cooldown window.
	lt.Begin(reps[0])
	lt.Done(reps[0], time.Millisecond, false)
	if lt.Healthy(reps[0]) {
		t.Fatal("failed replica still healthy")
	}
	for _, b := range []Balancer{NewRoundRobin(), NewRandom(1), NewPowerOfTwo(1), NewLeastLatency()} {
		for i := 0; i < 12; i++ {
			if got := b.Pick("Org1.peer0", reps, lt); got == reps[0] {
				t.Errorf("%s picked the down replica", b.Name())
				break
			}
		}
	}
	// A later success clears the mark.
	lt.Begin(reps[0])
	lt.Done(reps[0], time.Millisecond, true)
	if !lt.Healthy(reps[0]) {
		t.Error("recovered replica still marked down")
	}
	// With every replica down there is nothing better than trying one.
	for _, r := range reps {
		lt.Begin(r)
		lt.Done(r, time.Millisecond, false)
	}
	if got := NewRoundRobin().Pick("Org1.peer0", reps, lt); got == "" {
		t.Error("all-down replica set produced no pick")
	}
}

func TestNewBalancerNames(t *testing.T) {
	for name, want := range map[string]string{
		"":           "roundrobin",
		"roundrobin": "roundrobin",
		"rr":         "roundrobin",
		"random":     "random",
		"p2c":        "p2c",
		"ewma":       "ewma",
	} {
		b, err := NewBalancer(name, 1)
		if err != nil {
			t.Fatalf("NewBalancer(%q): %v", name, err)
		}
		if b.Name() != want {
			t.Errorf("NewBalancer(%q).Name() = %s, want %s", name, b.Name(), want)
		}
	}
	if _, err := NewBalancer("bogus", 1); err == nil {
		t.Error("unknown balancer name accepted")
	}
}

// TestSharedLoadTrackerTwoGatewaysRace drives two gateways' target
// selection — sharing one balancer and one load tracker, as fabnet
// wires them — concurrently with endorsement accounting. Run under
// -race it proves the shared replica counters are safe.
func TestSharedLoadTrackerTwoGatewaysRace(t *testing.T) {
	for _, balName := range []string{"roundrobin", "random", "p2c", "ewma"} {
		bal, err := NewBalancer(balName, 1)
		if err != nil {
			t.Fatal(err)
		}
		lt := NewLoadTracker()
		pol := policy.OrOverPeers(2)
		peers := map[string][]string{
			"Org1.peer0": {"peer1", "peer1r2", "peer1r3"},
			"Org2.peer0": {"peer2", "peer2r2", "peer2r3"},
		}
		gws := []*Gateway{
			{cfg: Config{Policy: pol, PeersByPrincipal: peers, Balancer: bal, Loads: lt}},
			{cfg: Config{Policy: pol, PeersByPrincipal: peers, Balancer: bal, Loads: lt}},
		}
		var wg sync.WaitGroup
		for _, g := range gws {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					targets, err := g.selectTargets(pol, nil)
					if err != nil {
						t.Error(err)
						return
					}
					for _, tgt := range targets {
						lt.Begin(tgt.node)
						lt.Done(tgt.node, time.Duration(i)*time.Microsecond, i%97 != 0)
					}
				}
			}()
		}
		wg.Wait()
		total := uint64(0)
		for _, replicas := range peers {
			for _, node := range replicas {
				total += lt.Count(node)
			}
		}
		if total == 0 {
			t.Errorf("%s: no endorsements accounted", balName)
		}
	}
}

// TestEndorseFallbackWhenReplicaDown wires a gateway to one org carried
// by two replicas, the first of which fails every call; the endorsement
// must fall back to the healthy sibling, and the tracker must mark the
// failing replica down so later picks avoid it.
func TestEndorseFallbackWhenReplicaDown(t *testing.T) {
	net := transport.NewNetwork(transport.Config{TimeScale: 0.01})
	t.Cleanup(net.Close)
	gwEP, err := net.Register("gw1")
	if err != nil {
		t.Fatal(err)
	}
	downEP, err := net.Register("peer1")
	if err != nil {
		t.Fatal(err)
	}
	upEP, err := net.Register("peer1r2")
	if err != nil {
		t.Fatal(err)
	}
	downEP.Handle(peer.KindEndorse, func(_ context.Context, _ string, _ any) (any, int, error) {
		return nil, 0, errors.New("replica down")
	})
	upEP.Handle(peer.KindEndorse, func(_ context.Context, _ string, payload any) (any, int, error) {
		req := payload.(*peer.EndorseRequest)
		return &types.ProposalResponse{
			TxID: req.Proposal.TxID, Status: 200,
			ResultsHash: []byte("h"), Results: &types.RWSet{},
			Endorsement: types.Endorsement{EndorserID: "Org1.peer0", EndorserOrg: "Org1"},
		}, 64, nil
	})

	lt := NewLoadTracker()
	g := &Gateway{cfg: Config{
		ID:               "gw1",
		Endpoint:         gwEP,
		Loads:            lt,
		PeersByPrincipal: map[string][]string{"Org1.peer0": {"peer1", "peer1r2"}},
	}}
	req := &peer.EndorseRequest{Proposal: &types.Proposal{TxID: "tx1", ChaincodeID: "bench"}}
	out := g.endorseOne(context.Background(), endorseTarget{principal: "Org1.peer0", node: "peer1"}, req, 64)
	if !out.OK() {
		t.Fatalf("fallback failed: %+v", out)
	}
	if lt.Healthy("peer1") {
		t.Error("failing replica not marked down")
	}
	if !lt.Healthy("peer1r2") {
		t.Error("healthy replica marked down")
	}
	if lt.Count("peer1r2") != 1 {
		t.Errorf("healthy replica count = %d, want 1", lt.Count("peer1r2"))
	}
	// With both replicas down-and-failing the call reports the error.
	downEP2, err := net.Register("peer9")
	if err != nil {
		t.Fatal(err)
	}
	downEP2.Handle(peer.KindEndorse, func(_ context.Context, _ string, _ any) (any, int, error) {
		return nil, 0, errors.New("also down")
	})
	g2 := &Gateway{cfg: Config{
		ID:               "gw1",
		Endpoint:         gwEP,
		Loads:            NewLoadTracker(),
		PeersByPrincipal: map[string][]string{"Org9.peer0": {"peer9"}},
	}}
	out = g2.endorseOne(context.Background(), endorseTarget{principal: "Org9.peer0", node: "peer9"}, req, 64)
	if out.OK() || !strings.Contains(out.Message, "also down") {
		t.Errorf("all-replicas-down endorsement = %+v, want the call's error", out)
	}
}
