package transport

import (
	"math/rand"
	"sync"
	"time"
)

// This file is the link-level fault surface of the transport: instead of
// one global latency scalar, every directed link can carry its own
// properties (base latency, jitter, loss probability) and can be hard-cut
// by partitions or node isolation — all settable atomically at runtime
// while senders are mid-flight. Both the in-memory network and the TCP
// transport consult the same LinkSet, so the chaos controller drives
// either transport through one API.
//
// Time units: on the in-memory network, properties are model time (the
// pump scales them by Config.TimeScale exactly like the global latency).
// On TCP there is no time scale; properties are wall-clock.

// RetransmitDelay is the latency penalty a Call frame pays when a loss
// roll eats it: RPCs ride a retransmitting stream, so packet loss
// surfaces as a TCP-RTO-sized stall instead of a silently hung call.
// Model time on the in-memory network, wall time on TCP.
const RetransmitDelay = 200 * time.Millisecond

// LinkProps describes one directed link's behavior.
type LinkProps struct {
	// Latency is the one-way base propagation latency.
	Latency time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter) per
	// message. FIFO order per link is still preserved: a jittered
	// message delays its successors rather than being overtaken.
	Jitter time.Duration
	// Loss is the per-message drop probability in [0, 1). Losses are
	// silent — the sender is not told, exactly like a lossy wire.
	Loss float64
}

// RegionMatrix maps (source region, destination region) to link
// properties; nodes labeled with regions inherit their pair's entry for
// every link that has no explicit per-link override.
type RegionMatrix map[string]map[string]LinkProps

// LinkSet is the runtime link-property matrix of one network. All
// methods are safe for concurrent use; updates take effect for the next
// message on the link.
//
// Resolution order for a directed link src->dst:
//  1. severed (either node isolated, or the pair cut by a partition) — drop
//  2. per-link override (Set)
//  3. region-pair properties (SetRegionProps + SetRegion labels)
//  4. the network default
type LinkSet struct {
	mu        sync.RWMutex
	def       LinkProps
	overrides map[linkKey]LinkProps
	cut       map[linkKey]struct{} // hard-dropped directed pairs
	isolated  map[string]struct{}  // crashed/unplugged nodes
	regions   map[string]string    // node -> region label
	matrix    RegionMatrix

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewLinkSet creates a LinkSet whose every link starts at the default
// properties.
func NewLinkSet(def LinkProps) *LinkSet {
	return &LinkSet{
		def:       def,
		overrides: make(map[linkKey]LinkProps),
		cut:       make(map[linkKey]struct{}),
		isolated:  make(map[string]struct{}),
		regions:   make(map[string]string),
		rng:       rand.New(rand.NewSource(1)),
	}
}

// Seed reseeds the loss/jitter randomness so fault runs replay
// deterministically.
func (ls *LinkSet) Seed(seed int64) {
	ls.rngMu.Lock()
	defer ls.rngMu.Unlock()
	ls.rng = rand.New(rand.NewSource(seed))
}

// SetDefault replaces the network-wide default link properties.
func (ls *LinkSet) SetDefault(p LinkProps) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.def = p
}

// linkKey names one directed link. Unlike a "src->dst" string it cannot
// make two links collide ("a->b" to "c" and "a" to "b->c"), and building
// one allocates nothing.
type linkKey struct{ src, dst string }

// Set overrides one directed link's properties.
func (ls *LinkSet) Set(src, dst string, p LinkProps) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.overrides[linkKey{src, dst}] = p
}

// Unset removes one directed link's override, reverting it to the
// region matrix or default.
func (ls *LinkSet) Unset(src, dst string) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	delete(ls.overrides, linkKey{src, dst})
}

// Partition cuts every directed link between group a and group b (both
// directions), leaving intra-group links untouched. Latency/loss
// overrides survive underneath and reappear on Heal.
func (ls *LinkSet) Partition(a, b []string) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			ls.cut[linkKey{x, y}] = struct{}{}
			ls.cut[linkKey{y, x}] = struct{}{}
		}
	}
}

// Heal removes the cuts a matching Partition installed.
func (ls *LinkSet) Heal(a, b []string) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			delete(ls.cut, linkKey{x, y})
			delete(ls.cut, linkKey{y, x})
		}
	}
}

// Isolate marks a node crashed/unplugged: every link to and from it
// drops until Isolate(id, false).
func (ls *LinkSet) Isolate(id string, isolated bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if isolated {
		ls.isolated[id] = struct{}{}
	} else {
		delete(ls.isolated, id)
	}
}

// Isolated reports whether Isolate has cut a node off.
func (ls *LinkSet) Isolated(id string) bool {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	_, ok := ls.isolated[id]
	return ok
}

// SetRegion labels a node with a region; region-pair properties from
// SetRegionProps then apply to its links.
func (ls *LinkSet) SetRegion(node, region string) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.regions[node] = region
}

// SetRegionProps installs a region-pair property matrix. Links between
// labeled nodes without a per-link override resolve through it.
func (ls *LinkSet) SetRegionProps(m RegionMatrix) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.matrix = m
}

// Severed reports whether a directed link is hard-cut (partition or
// isolation). No randomness is consumed.
func (ls *LinkSet) Severed(src, dst string) bool {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	return ls.severedLocked(src, dst)
}

func (ls *LinkSet) severedLocked(src, dst string) bool {
	if _, ok := ls.isolated[src]; ok {
		return true
	}
	if _, ok := ls.isolated[dst]; ok {
		return true
	}
	_, ok := ls.cut[linkKey{src, dst}]
	return ok
}

// PropsFor resolves a directed link's effective properties, ignoring
// cuts and isolation.
func (ls *LinkSet) PropsFor(src, dst string) LinkProps {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	return ls.propsLocked(src, dst)
}

func (ls *LinkSet) propsLocked(src, dst string) LinkProps {
	if p, ok := ls.overrides[linkKey{src, dst}]; ok {
		return p
	}
	if ls.matrix != nil {
		if row, ok := ls.matrix[ls.regions[src]]; ok {
			if p, ok := row[ls.regions[dst]]; ok {
				return p
			}
		}
	}
	return ls.def
}

// Sample decides one message's fate on a directed link: the one-way
// delay it should experience, and whether it is dropped (severed link or
// a loss roll). Each call may consume randomness for jitter and loss.
func (ls *LinkSet) Sample(src, dst string) (delay time.Duration, drop bool) {
	ls.mu.RLock()
	if ls.severedLocked(src, dst) {
		ls.mu.RUnlock()
		return 0, true
	}
	p := ls.propsLocked(src, dst)
	ls.mu.RUnlock()

	delay = p.Latency
	if p.Jitter > 0 || p.Loss > 0 {
		ls.rngMu.Lock()
		if p.Jitter > 0 {
			delay += time.Duration(ls.rng.Int63n(int64(p.Jitter)))
		}
		if p.Loss > 0 && ls.rng.Float64() < p.Loss {
			drop = true
		}
		ls.rngMu.Unlock()
	}
	return delay, drop
}

// Canned multi-region WAN matrices: region labels plus one-way
// latencies in the shape of real inter-continental RTTs. Loss is zero —
// chaos faults layer loss on top. Latencies are model time on the
// in-memory network, wall time on TCP.

// wanIntra is the in-region (same-datacenter-metro) link.
var wanIntra = LinkProps{Latency: 500 * time.Microsecond, Jitter: 100 * time.Microsecond}

// NamedMatrix returns a canned region matrix and its region list by
// name. Known names: "wan2" (us-east, eu-west) and "wan3" (us-east,
// eu-west, ap-south).
func NamedMatrix(name string) (RegionMatrix, []string, bool) {
	pair := func(l, j time.Duration) LinkProps { return LinkProps{Latency: l, Jitter: j} }
	switch name {
	case "wan2":
		regions := []string{"us-east", "eu-west"}
		usEU := pair(40*time.Millisecond, 4*time.Millisecond)
		return RegionMatrix{
			"us-east": {"us-east": wanIntra, "eu-west": usEU},
			"eu-west": {"eu-west": wanIntra, "us-east": usEU},
		}, regions, true
	case "wan3":
		regions := []string{"us-east", "eu-west", "ap-south"}
		usEU := pair(40*time.Millisecond, 4*time.Millisecond)
		usAP := pair(110*time.Millisecond, 10*time.Millisecond)
		euAP := pair(75*time.Millisecond, 8*time.Millisecond)
		return RegionMatrix{
			"us-east":  {"us-east": wanIntra, "eu-west": usEU, "ap-south": usAP},
			"eu-west":  {"eu-west": wanIntra, "us-east": usEU, "ap-south": euAP},
			"ap-south": {"ap-south": wanIntra, "us-east": usAP, "eu-west": euAP},
		}, regions, true
	default:
		return nil, nil, false
	}
}
