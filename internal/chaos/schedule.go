package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"fabricsim/internal/transport"
)

// Event is one scheduled fault window: inject at At (offset from the
// run start), heal at At+For.
type Event struct {
	At    time.Duration
	For   time.Duration
	Fault Fault
}

// Schedule is a seeded, replayable fault plan. Two schedules built with
// the same seed, config, and cluster membership are identical.
type Schedule struct {
	Seed   int64
	Events []Event
}

// Timeline renders the planned fault windows, one line per event. This
// is the replay fingerprint: it depends only on the schedule, never on
// how the run actually unfolds, so equal seeds print equal timelines.
func (s Schedule) Timeline() []string {
	events := append([]Event(nil), s.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	lines := make([]string, len(events))
	for i, ev := range events {
		lines[i] = fmt.Sprintf("%+.2fs..%+.2fs %-9s %s",
			ev.At.Seconds(), (ev.At + ev.For).Seconds(), ev.Fault.Kind(), ev.Fault.Name())
	}
	return lines
}

// Kinds lists the distinct fault kinds in the schedule, sorted.
func (s Schedule) Kinds() []string {
	set := make(map[string]bool)
	for _, ev := range s.Events {
		set[ev.Fault.Kind()] = true
	}
	kinds := make([]string, 0, len(set))
	for k := range set {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// ScheduleConfig parameterizes the randomized schedule builder.
type ScheduleConfig struct {
	// Duration is the soak window the schedule spans; all fault windows
	// land inside it with headroom at both ends for warm-up and
	// post-heal convergence.
	Duration time.Duration
	// Faults is the number of fault windows (default 4).
	Faults int
	// Kinds restricts the fault taxonomy; empty means the classic four
	// (crash, partition, degrade, throttle — KindOrdererCrash is
	// opt-in, as it needs a cluster that can rebuild ordering nodes).
	// The builder cycles through the kinds before repeating, so Faults
	// >= len(Kinds) guarantees every kind appears.
	Kinds []string
	// Protected nodes are never crash/throttle targets (e.g. gateway
	// event peers whose standing subscription would not survive a
	// restart). Partitions and degradations may still include them.
	Protected []string
}

// Scheduled degrade faults add 30ms latency, 5ms jitter and 5% loss to
// a peer's links; scheduled throttle faults pin a peer to one core.
var degradeProps = transport.LinkProps{
	Latency: 30 * time.Millisecond,
	Jitter:  5 * time.Millisecond,
	Loss:    0.05,
}

const throttleCores = 1

func (cfg ScheduleConfig) withDefaults() ScheduleConfig {
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Faults <= 0 {
		cfg.Faults = 4
	}
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = []string{KindCrash, KindPartition, KindDegrade, KindThrottle}
	}
	return cfg
}

// BuildSchedule derives a randomized, replayable fault plan from one
// seed. Determinism contract: the plan is a pure function of (seed,
// config, cluster membership); membership lists are read through the
// Cluster's sorted accessors and all randomness comes from one
// rand.Rand seeded here. Fault windows are laid out in disjoint slots —
// one fault active at a time — so per-window SLO attribution in the
// soak bench is unambiguous.
func (ctl *Controller) BuildSchedule(seed int64, cfg ScheduleConfig) (Schedule, error) {
	cfg = cfg.withDefaults()
	c := ctl.cluster
	rng := rand.New(rand.NewSource(seed))

	peers := append([]string(nil), c.Peers()...)
	if len(peers) == 0 {
		return Schedule{}, fmt.Errorf("chaos: cluster has no peers to fault")
	}
	protected := make(map[string]bool, len(cfg.Protected))
	for _, id := range cfg.Protected {
		protected[id] = true
	}
	var targets []string // crash/throttle candidates
	for _, id := range peers {
		if !protected[id] {
			targets = append(targets, id)
		}
	}
	var osnTargets []string // orderer-crash candidates
	for _, id := range c.Orderers() {
		if !protected[id] {
			osnTargets = append(osnTargets, id)
		}
	}
	orgs := c.Orgs()

	pick := func(list []string) string { return list[rng.Intn(len(list))] }

	// Disjoint slots across the middle of the soak: the first 10% warms
	// up, the last 20% drains and converges.
	span := time.Duration(float64(cfg.Duration) * 0.7)
	first := time.Duration(float64(cfg.Duration) * 0.1)
	slot := span / time.Duration(cfg.Faults)

	s := Schedule{Seed: seed}
	for i := 0; i < cfg.Faults; i++ {
		kind := cfg.Kinds[i%len(cfg.Kinds)]
		// Fall back when a kind has no valid target in this cluster.
		if (kind == KindCrash || kind == KindThrottle) && len(targets) == 0 {
			kind = KindDegrade
		}
		if kind == KindOrdererCrash && len(osnTargets) == 0 {
			kind = KindDegrade
		}
		if kind == KindPartition && len(orgs) < 2 {
			kind = KindDegrade
		}

		var f Fault
		switch kind {
		case KindCrash:
			f = CrashPeer{Node: pick(targets)}
		case KindOrdererCrash:
			f = CrashOrderer{Node: pick(osnTargets)}
		case KindPartition:
			f = PartitionOrg(c, pick(orgs))
		case KindThrottle:
			f = NewThrottle(pick(targets), throttleCores)
		default: // KindDegrade
			f = DegradeNode(c, pick(peers), degradeProps)
		}

		// Inject in the first fifth of the slot, heal before it ends,
		// leaving an inter-fault gap for the cluster to breathe.
		at := first + time.Duration(i)*slot + time.Duration(rng.Int63n(int64(slot/5)+1))
		dur := slot/2 + time.Duration(rng.Int63n(int64(slot/5)+1))
		s.Events = append(s.Events, Event{At: at, For: dur, Fault: f})
	}
	return s, nil
}
