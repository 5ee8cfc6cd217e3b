// Package chaos is the fault-injection subsystem: explicit reversible
// faults (crash/restart, partition, link degradation, CPU throttling)
// driven against a running cluster by a controller, either one-off or
// through a deterministic seeded schedule so a soak run replays exactly.
//
// The package depends only on the transport's LinkSet; the cluster
// itself is reached through the Cluster interface, which fabnet adapts
// (Network.Chaos()). That keeps the dependency arrow pointing one way —
// chaos knows nothing about peers, orderers, or gossip internals.
package chaos

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"fabricsim/internal/simcpu"
	"fabricsim/internal/transport"
)

// Cluster is the minimal control surface a chaos controller needs. The
// fabnet network implements it via an adapter; tests use fakes.
type Cluster interface {
	// Peers lists endorsing/committing peer node IDs, sorted.
	Peers() []string
	// Orderers lists ordering-node IDs, sorted.
	Orderers() []string
	// Orgs lists organization names, sorted.
	Orgs() []string
	// OrgOf returns the owning org of a peer ("" for non-peers).
	OrgOf(node string) string
	// OrgPeers lists the peers of one org, sorted.
	OrgPeers(org string) []string
	// Links is the runtime link-property matrix shared with the
	// transport (partitions, degradation, loss). Isolating a node on it
	// takes the node down: its traffic drops until it is brought back.
	Links() *transport.LinkSet
	// RestartPeer rebuilds a peer process under its old ID (persistent
	// backends reopen their disk; mem peers come back empty and
	// re-converge via gossip).
	RestartPeer(ctx context.Context, id string) error
	// RestartOrderer rebuilds an ordering node under its old ID: Raft
	// OSNs reload their persisted hard state, Solo/Kafka OSNs rehydrate
	// their chains from a live replica or peer block store.
	RestartOrderer(ctx context.Context, id string) error
	// ThrottleCPU pins a node's simulated CPU to the given core count
	// and returns the previous count.
	ThrottleCPU(id string, cores int) (prev int, err error)
}

// Fault taxonomy kinds.
const (
	KindCrash        = "crash"
	KindOrdererCrash = "crash-orderer"
	KindPartition    = "partition"
	KindDegrade      = "degrade"
	KindThrottle     = "throttle"
)

// Fault is one reversible disturbance. Inject applies it, Heal undoes
// it; both must be safe to call against a live, loaded cluster. Faults
// carry only their parameters (the Cluster arrives per call), so a
// schedule of faults is pure data and replays deterministically.
type Fault interface {
	// Kind is the taxonomy bucket (KindCrash, KindPartition, ...).
	Kind() string
	// Name identifies the fault instance in timelines and logs; equal
	// parameters yield equal names across runs.
	Name() string
	Inject(ctx context.Context, c Cluster) error
	Heal(ctx context.Context, c Cluster) error
}

// CrashPeer kills a peer process; Heal restarts it through the
// cluster's RestartPeer (persistent peers reopen their ledger, mem
// peers come back wiped and catch up via anti-entropy or snapshot).
type CrashPeer struct {
	Node string
}

func (f CrashPeer) Kind() string { return KindCrash }
func (f CrashPeer) Name() string { return fmt.Sprintf("crash(%s)", f.Node) }

func (f CrashPeer) Inject(_ context.Context, c Cluster) error {
	c.Links().Isolate(f.Node, true)
	return nil
}

func (f CrashPeer) Heal(ctx context.Context, c Cluster) error {
	c.Links().Isolate(f.Node, false)
	return c.RestartPeer(ctx, f.Node)
}

// CrashOrderer blacks out an ordering node and, on Heal, rebuilds it
// through the cluster's RestartOrderer: the OSN rejoins under its old
// identity from persisted Raft state (or a rehydrated chain), the
// blackout → restart → rejoin cycle CrashPeer gives peers. Raft
// leaders crashed this way force a re-election; the restarted node
// comes back as a follower.
type CrashOrderer struct {
	Node string
}

func (f CrashOrderer) Kind() string { return KindOrdererCrash }
func (f CrashOrderer) Name() string { return fmt.Sprintf("crash-orderer(%s)", f.Node) }

func (f CrashOrderer) Inject(_ context.Context, c Cluster) error {
	c.Links().Isolate(f.Node, true)
	return nil
}

func (f CrashOrderer) Heal(ctx context.Context, c Cluster) error {
	c.Links().Isolate(f.Node, false)
	return c.RestartOrderer(ctx, f.Node)
}

// Partition cuts every link between groups A and B in both directions;
// Heal removes exactly those cuts. Intra-group links are untouched.
type Partition struct {
	// Label names the split in timelines (e.g. the org or region).
	Label string
	A, B  []string
}

func (f Partition) Kind() string { return KindPartition }
func (f Partition) Name() string { return fmt.Sprintf("partition(%s)", f.Label) }

func (f Partition) Inject(_ context.Context, c Cluster) error {
	c.Links().Partition(f.A, f.B)
	return nil
}

func (f Partition) Heal(_ context.Context, c Cluster) error {
	c.Links().Heal(f.A, f.B)
	return nil
}

// PartitionOrg splits one org's peers from every other cluster node
// (peers and orderers). Clients stay connected on both sides: this is a
// data-plane split between cluster machines, not a client outage, so
// the isolated org keeps endorsing while its committed state falls
// behind until Heal.
func PartitionOrg(c Cluster, org string) Partition {
	inside := c.OrgPeers(org)
	member := make(map[string]bool, len(inside))
	for _, id := range inside {
		member[id] = true
	}
	var outside []string
	for _, id := range c.Peers() {
		if !member[id] {
			outside = append(outside, id)
		}
	}
	outside = append(outside, c.Orderers()...)
	return Partition{Label: org, A: inside, B: outside}
}

// Degrade overrides the properties of a set of directed links (slow,
// jittery, lossy); Heal reverts them to the region matrix or default.
type Degrade struct {
	// Label names the degradation in timelines (e.g. the victim node).
	Label string
	// Pairs are the affected directed links.
	Pairs [][2]string
	Props transport.LinkProps
}

func (f Degrade) Kind() string { return KindDegrade }
func (f Degrade) Name() string {
	return fmt.Sprintf("degrade(%s,%v/%.0f%%)", f.Label, f.Props.Latency, f.Props.Loss*100)
}

func (f Degrade) Inject(_ context.Context, c Cluster) error {
	ls := c.Links()
	for _, p := range f.Pairs {
		ls.Set(p[0], p[1], f.Props)
	}
	return nil
}

func (f Degrade) Heal(_ context.Context, c Cluster) error {
	ls := c.Links()
	for _, p := range f.Pairs {
		ls.Unset(p[0], p[1])
	}
	return nil
}

// DegradeNode degrades every link between one node and the rest of the
// cluster (peers and orderers), both directions — a flaky NIC or an
// overloaded top-of-rack port.
func DegradeNode(c Cluster, node string, props transport.LinkProps) Degrade {
	var pairs [][2]string
	for _, other := range append(append([]string{}, c.Peers()...), c.Orderers()...) {
		if other == node {
			continue
		}
		pairs = append(pairs, [2]string{node, other}, [2]string{other, node})
	}
	return Degrade{Label: node, Pairs: pairs, Props: props}
}

// Throttle pins a node's simulated CPU to Cores; Heal restores the
// count ThrottleCPU reported at inject time.
type Throttle struct {
	Node  string
	Cores int

	mu   sync.Mutex
	prev int
}

// NewThrottle creates a CPU-throttle fault.
func NewThrottle(node string, cores int) *Throttle {
	return &Throttle{Node: node, Cores: cores}
}

func (f *Throttle) Kind() string { return KindThrottle }
func (f *Throttle) Name() string { return fmt.Sprintf("throttle(%s,%dc)", f.Node, f.Cores) }

func (f *Throttle) Inject(_ context.Context, c Cluster) error {
	prev, err := c.ThrottleCPU(f.Node, f.Cores)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.prev = prev
	f.mu.Unlock()
	return nil
}

func (f *Throttle) Heal(_ context.Context, c Cluster) error {
	f.mu.Lock()
	prev := f.prev
	f.mu.Unlock()
	if prev <= 0 {
		return nil // never injected
	}
	_, err := c.ThrottleCPU(f.Node, prev)
	return err
}

// LogEntry records one controller action as it actually happened.
type LogEntry struct {
	At     time.Duration // offset from the controller's first action
	Action string        // "inject" | "heal"
	Fault  string        // Fault.Name()
	Kind   string
	Err    string // non-empty when the action failed
}

func (e LogEntry) String() string {
	s := fmt.Sprintf("%8.2fs %-6s %s", e.At.Seconds(), e.Action, e.Fault)
	if e.Err != "" {
		s += " ERR: " + e.Err
	}
	return s
}

// Controller injects and heals faults against one cluster, tracking
// what is active so everything can be healed, and logging a timeline.
type Controller struct {
	cluster Cluster

	mu     sync.Mutex
	active []Fault
	log    []LogEntry
	epoch  time.Time
}

// New creates a controller for a cluster.
func New(c Cluster) *Controller { return &Controller{cluster: c} }

func (ctl *Controller) record(action string, f Fault, err error) {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	if ctl.epoch.IsZero() {
		ctl.epoch = time.Now()
	}
	e := LogEntry{At: time.Since(ctl.epoch), Action: action, Fault: f.Name(), Kind: f.Kind()}
	if err != nil {
		e.Err = err.Error()
	}
	ctl.log = append(ctl.log, e)
}

// Inject applies a fault and tracks it as active.
func (ctl *Controller) Inject(ctx context.Context, f Fault) error {
	err := f.Inject(ctx, ctl.cluster)
	ctl.record("inject", f, err)
	if err != nil {
		return fmt.Errorf("chaos: inject %s: %w", f.Name(), err)
	}
	ctl.mu.Lock()
	ctl.active = append(ctl.active, f)
	ctl.mu.Unlock()
	return nil
}

// Heal reverts a fault and drops it from the active set. Healing a
// fault that is not active is allowed (Heal is idempotent bookkeeping;
// the fault's own Heal decides what reverting means).
func (ctl *Controller) Heal(ctx context.Context, f Fault) error {
	ctl.mu.Lock()
	for i, a := range ctl.active {
		// Match by name: fault values may hold slices (Partition
		// groups), so interface == would panic on them.
		if a.Name() == f.Name() {
			ctl.active = append(ctl.active[:i], ctl.active[i+1:]...)
			break
		}
	}
	ctl.mu.Unlock()
	err := f.Heal(ctx, ctl.cluster)
	ctl.record("heal", f, err)
	if err != nil {
		return fmt.Errorf("chaos: heal %s: %w", f.Name(), err)
	}
	return nil
}

// HealAll heals every active fault (most recent first) and returns the
// first error, continuing past failures.
func (ctl *Controller) HealAll(ctx context.Context) error {
	ctl.mu.Lock()
	faults := append([]Fault(nil), ctl.active...)
	ctl.mu.Unlock()
	var first error
	for i := len(faults) - 1; i >= 0; i-- {
		if err := ctl.Heal(ctx, faults[i]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Active lists the names of currently injected faults.
func (ctl *Controller) Active() []string {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	names := make([]string, len(ctl.active))
	for i, f := range ctl.active {
		names[i] = f.Name()
	}
	return names
}

// Log snapshots the controller's action timeline.
func (ctl *Controller) Log() []LogEntry {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	return append([]LogEntry(nil), ctl.log...)
}

// Run plays a schedule to completion: it sleeps to each event's inject
// offset, applies the fault, holds it for the event's duration, heals,
// and proceeds — sequentially, in timeline order (events in a schedule
// built by BuildSchedule never overlap). On context cancellation it
// heals everything still active before returning. Action errors are
// recorded in the log and returned as the first error after the
// schedule finishes; the run is not aborted, matching a soak's
// keep-going semantics.
func (ctl *Controller) Run(ctx context.Context, s Schedule) error {
	events := append([]Event(nil), s.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	start := time.Now()
	ctl.mu.Lock()
	if ctl.epoch.IsZero() {
		ctl.epoch = start
	}
	ctl.mu.Unlock()

	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, ev := range events {
		if !sleepUntil(ctx, start.Add(ev.At)) {
			break
		}
		keep(ctl.Inject(ctx, ev.Fault))
		if !sleepUntil(ctx, start.Add(ev.At+ev.For)) {
			break
		}
		keep(ctl.Heal(ctx, ev.Fault))
	}
	// Context gone or schedule done: nothing may stay broken behind us.
	keep(ctl.HealAll(context.WithoutCancel(ctx)))
	return first
}

// sleepUntil sleeps to a deadline; false means the context died first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	return simcpu.Sleep(ctx, time.Until(t)) == nil && ctx.Err() == nil
}
