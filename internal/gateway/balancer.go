package gateway

// Load-aware endorsement routing. With replicated endorsers an org
// principal ("Org1.peer0") is carried by several interchangeable peers;
// for every transaction the gateway must pick exactly one replica per
// required principal. The Balancer interface makes that choice
// pluggable, and the LoadTracker supplies the live per-target signals
// (in-flight calls, endorsement counts, latency EWMA, health) the
// load-aware strategies consult. One balancer and one tracker are
// shared by every gateway of a network, so the signals aggregate the
// whole client population's view of each replica.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// downCooldown is how long a target stays deprioritized after a failed
// endorsement call before balancers consider it again.
const downCooldown = time.Second

// ewmaWeight is the divisor of the latency EWMA update step: each
// observation moves the average by 1/ewmaWeight of the error.
const ewmaWeight = 8

// targetLoad is one endorsing peer's live load accounting.
type targetLoad struct {
	inflight atomic.Int64
	count    atomic.Uint64
	// ewmaNanos is the exponentially weighted moving average of the
	// endorsement round-trip latency, in nanoseconds (0 = never tried).
	ewmaNanos atomic.Int64
	// downUntil is the unix-nano deadline until which the target is
	// considered down (0 = healthy).
	downUntil atomic.Int64
}

// LoadTracker holds per-target endorsement load accounting, shared by
// every gateway of a network. All methods are safe for concurrent use.
type LoadTracker struct {
	mu      sync.RWMutex
	targets map[string]*targetLoad
}

// NewLoadTracker returns an empty tracker.
func NewLoadTracker() *LoadTracker {
	return &LoadTracker{targets: make(map[string]*targetLoad)}
}

// target returns (creating on first use) the accounting cell for node.
func (lt *LoadTracker) target(node string) *targetLoad {
	lt.mu.RLock()
	tl, ok := lt.targets[node]
	lt.mu.RUnlock()
	if ok {
		return tl
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if tl, ok = lt.targets[node]; ok {
		return tl
	}
	tl = &targetLoad{}
	lt.targets[node] = tl
	return tl
}

// Begin records the start of one endorsement call to node.
func (lt *LoadTracker) Begin(node string) {
	lt.target(node).inflight.Add(1)
}

// Abort releases one in-flight slot without judging the target: the
// caller gave up (context cancellation), which says nothing about the
// replica's health or latency.
func (lt *LoadTracker) Abort(node string) {
	lt.target(node).inflight.Add(-1)
}

// Done records the completion of one endorsement call: the in-flight
// count drops; a success folds the observed round trip into the latency
// EWMA and clears any down mark, a failure marks the target down for
// downCooldown so balancers route around it until it has had a chance
// to recover.
func (lt *LoadTracker) Done(node string, rtt time.Duration, ok bool) {
	tl := lt.target(node)
	tl.inflight.Add(-1)
	if !ok {
		tl.downUntil.Store(time.Now().Add(downCooldown).UnixNano())
		return
	}
	tl.downUntil.Store(0)
	tl.count.Add(1)
	for {
		prev := tl.ewmaNanos.Load()
		next := int64(rtt)
		if prev != 0 {
			next = prev + (int64(rtt)-prev)/ewmaWeight
		}
		if next == 0 {
			next = 1 // distinguish "measured ~0" from "never tried"
		}
		if tl.ewmaNanos.CompareAndSwap(prev, next) {
			return
		}
	}
}

// InFlight returns the current in-flight endorsement calls to node.
func (lt *LoadTracker) InFlight(node string) int64 {
	return lt.target(node).inflight.Load()
}

// Count returns the successful endorsements node has served.
func (lt *LoadTracker) Count(node string) uint64 {
	return lt.target(node).count.Load()
}

// EWMA returns node's endorsement-latency moving average (0 = never
// tried).
func (lt *LoadTracker) EWMA(node string) time.Duration {
	return time.Duration(lt.target(node).ewmaNanos.Load())
}

// Healthy reports whether node is not currently marked down.
func (lt *LoadTracker) Healthy(node string) bool {
	d := lt.target(node).downUntil.Load()
	return d == 0 || time.Now().UnixNano() >= d
}

// Balancer picks which replica of a principal's replica set serves one
// endorsement. Implementations must be safe for concurrent use: one
// balancer instance is shared by all gateways of a network.
type Balancer interface {
	// Name returns the balancer's selection-flag name.
	Name() string
	// Pick selects one node from replicas (never empty) to endorse for
	// principal, consulting the shared load tracker.
	Pick(principal string, replicas []string, loads *LoadTracker) string
}

// NewBalancer builds a balancer by flag name: "roundrobin" (default),
// "random", "p2c" (power-of-two-choices over in-flight counts), or
// "ewma" (least expected latency).
func NewBalancer(name string, seed int64) (Balancer, error) {
	switch strings.ToLower(name) {
	case "", "roundrobin", "rr":
		return NewRoundRobin(), nil
	case "random":
		return NewRandom(seed), nil
	case "p2c", "power2", "poweroftwo":
		return NewPowerOfTwo(seed), nil
	case "ewma", "leastlatency", "least-latency":
		return NewLeastLatency(), nil
	default:
		return nil, fmt.Errorf("gateway: unknown balancer %q (roundrobin | random | p2c | ewma)", name)
	}
}

// healthyReplicas filters replicas down to the ones not marked down.
// When every replica is down the full set is returned: there is nothing
// better to do than try one. The common all-healthy case allocates
// nothing.
func healthyReplicas(replicas []string, loads *LoadTracker) []string {
	allHealthy := true
	for _, r := range replicas {
		if !loads.Healthy(r) {
			allHealthy = false
			break
		}
	}
	if allHealthy {
		return replicas
	}
	healthy := make([]string, 0, len(replicas))
	for _, r := range replicas {
		if loads.Healthy(r) {
			healthy = append(healthy, r)
		}
	}
	if len(healthy) == 0 {
		return replicas
	}
	return healthy
}

// roundRobin rotates each principal's replica set independently. At one
// replica per org it reduces to the legacy fixed assignment.
type roundRobin struct {
	mu      sync.Mutex
	cursors map[string]*atomic.Uint64
}

// NewRoundRobin returns the default balancer: an independent rotation
// per principal.
func NewRoundRobin() Balancer {
	return &roundRobin{cursors: make(map[string]*atomic.Uint64)}
}

func (b *roundRobin) Name() string { return "roundrobin" }

func (b *roundRobin) Pick(principal string, replicas []string, loads *LoadTracker) string {
	if len(replicas) == 1 {
		return replicas[0]
	}
	b.mu.Lock()
	cur, ok := b.cursors[principal]
	if !ok {
		cur = &atomic.Uint64{}
		b.cursors[principal] = cur
	}
	b.mu.Unlock()
	cand := healthyReplicas(replicas, loads)
	return cand[int((cur.Add(1)-1)%uint64(len(cand)))]
}

// randomBalancer picks a replica uniformly at random: stateless, and a
// baseline the load-aware strategies must beat.
type randomBalancer struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandom returns the uniform-random balancer.
func NewRandom(seed int64) Balancer {
	return &randomBalancer{rng: rand.New(rand.NewSource(seed))}
}

func (b *randomBalancer) Name() string { return "random" }

func (b *randomBalancer) Pick(principal string, replicas []string, loads *LoadTracker) string {
	cand := healthyReplicas(replicas, loads)
	if len(cand) == 1 {
		return cand[0]
	}
	b.mu.Lock()
	i := b.rng.Intn(len(cand))
	b.mu.Unlock()
	return cand[i]
}

// powerOfTwo samples two distinct replicas at random and routes to the
// one with fewer in-flight endorsements (the classic
// power-of-two-choices result: near-best-of-all balance at two probes'
// cost). In-flight count is the signal that reacts fastest when one
// replica slows down — its queue grows immediately — which is what
// makes p2c win on heterogeneous or perturbed replicas.
type powerOfTwo struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewPowerOfTwo returns the power-of-two-choices balancer.
func NewPowerOfTwo(seed int64) Balancer {
	return &powerOfTwo{rng: rand.New(rand.NewSource(seed))}
}

func (b *powerOfTwo) Name() string { return "p2c" }

func (b *powerOfTwo) Pick(principal string, replicas []string, loads *LoadTracker) string {
	cand := healthyReplicas(replicas, loads)
	if len(cand) == 1 {
		return cand[0]
	}
	b.mu.Lock()
	i := b.rng.Intn(len(cand))
	j := b.rng.Intn(len(cand) - 1)
	b.mu.Unlock()
	if j >= i {
		j++
	}
	x, y := cand[i], cand[j]
	lx, ly := loads.InFlight(x), loads.InFlight(y)
	switch {
	case ly < lx:
		return y
	case lx < ly:
		return x
	case loads.Count(y) < loads.Count(x):
		return y // tie on queue depth: spread by served count
	default:
		return x
	}
}

// leastLatency routes to the replica with the lowest expected time to
// serve the next call: the latency EWMA scaled by the queue already in
// front of it (EWMA * (inflight + 1)). Untried replicas score zero, so
// every replica gets probed before the averages take over.
type leastLatency struct{}

// NewLeastLatency returns the least-expected-latency balancer.
func NewLeastLatency() Balancer { return leastLatency{} }

func (leastLatency) Name() string { return "ewma" }

func (leastLatency) Pick(principal string, replicas []string, loads *LoadTracker) string {
	cand := healthyReplicas(replicas, loads)
	best := cand[0]
	bestScore := int64(-1)
	for _, r := range cand {
		score := int64(loads.EWMA(r)) * (loads.InFlight(r) + 1)
		if bestScore < 0 || score < bestScore ||
			(score == bestScore && loads.Count(r) < loads.Count(best)) {
			best, bestScore = r, score
		}
	}
	return best
}
