package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"fabricsim/internal/chaos"
	"fabricsim/internal/costmodel"
	"fabricsim/internal/fabnet"
	"fabricsim/internal/metrics"
	"fabricsim/internal/policy"
	"fabricsim/internal/types"
	"fabricsim/internal/workload"
)

// Chaos soak: a long open-loop workload driven through a seeded fault
// schedule (peer kill/restart, orderer crash + durable restart, org
// partition + heal, degraded links, CPU throttling) on a three-region
// WAN topology with a Raft ordering service, reporting SLO rows —
// committed tps through each fault window, commit-lag p99, re-election
// and snapshot-bootstrap counts — and hard invariants: no lost blocks,
// no duplicate commits, and post-heal tip-hash + state-hash agreement
// across all live peers. The schedule is a pure function of the seed,
// so two runs with the same -seed print the same fault timeline.
const (
	chaosOrgs     = 3
	chaosReplicas = 2
	// chaosOrderers sizes the Raft ordering service: three file-backed
	// OSNs, so a crashed one restarts from its persisted hard state
	// while the surviving majority keeps ordering.
	chaosOrderers = 3
	// chaosClients is kept below the peer count so the gateways' event
	// peers (Peers[(i-1) % len(Peers)]) leave some peers unprotected as
	// crash targets.
	chaosClients = 3
	chaosRate    = 150.0 // open-loop tx/s, model time
	// chaosSnapshotThreshold makes a crashed-and-wiped peer that missed
	// more than this many blocks bootstrap from a snapshot.
	chaosSnapshotThreshold = 12
)

// chaosKinds is the soak's fault taxonomy: the classic four plus the
// opt-in orderer crash (blackout, then a durable restart on heal).
var chaosKinds = []string{
	chaos.KindCrash, chaos.KindOrdererCrash, chaos.KindPartition, chaos.KindDegrade, chaos.KindThrottle,
}

// chaosSoak stretches the soak beyond the default point duration in
// full mode — fault windows need room to inject, bite, and heal.
func chaosSoak(opt Options) time.Duration {
	if !opt.Quick && opt.Duration < 20*time.Second {
		return 20 * time.Second
	}
	return opt.Duration
}

// ChaosWindow is one fault window's SLO row.
type ChaosWindow struct {
	Fault        string  `json:"fault"`
	Kind         string  `json:"kind"`
	StartS       float64 `json:"start_s"` // model time from run start
	EndS         float64 `json:"end_s"`
	CommittedTPS float64 `json:"committed_tps"`
	CommitLagP99 float64 `json:"commit_lag_p99_s"`
	// PhaseP99S decomposes the window's tail latency by lifecycle phase
	// (model seconds), showing which stage the fault inflated —
	// partitions blow up "order", committer stalls blow up "validate".
	PhaseP99S map[string]float64 `json:"phase_p99_s"`
}

// ChaosPoint is the machine-readable soak result (BENCH_chaos.json).
type ChaosPoint struct {
	Seed         int64    `json:"seed"`
	ScheduleSeed int64    `json:"schedule_seed"`
	Orgs         int      `json:"orgs"`
	Replicas     int      `json:"replicas"`
	WANMatrix    string   `json:"wan_matrix"`
	Faults       int      `json:"faults"`
	FaultKinds   []string `json:"fault_kinds"`
	Timeline     []string `json:"timeline"`

	Windows []ChaosWindow `json:"windows"`

	OverallTPS         float64 `json:"overall_committed_tps"`
	CommitLagP99S      float64 `json:"commit_lag_p99_s"`
	Reelections        int     `json:"reelections"`
	SnapshotBootstraps int     `json:"snapshot_bootstraps"`
	// OrdererCrashes counts the schedule's orderer crash-restart
	// windows; BroadcastFailovers counts the extra broadcast attempts
	// gateways made while an OSN was down.
	OrdererCrashes     int `json:"orderer_crashes"`
	BroadcastFailovers int `json:"broadcast_failovers"`

	// Hard invariants, checked after the post-heal convergence wait.
	LostBlocks       int  `json:"lost_blocks"`
	DuplicateCommits int  `json:"duplicate_commits"`
	TipConverged     bool `json:"tip_converged"`
	StateConverged   bool `json:"state_converged"`
	ChainValid       bool `json:"chain_valid"`

	// Soak and ConvergenceErr are shown in the report only.
	Soak           time.Duration `json:"-"`
	ConvergenceErr error         `json:"-"`
}

// chaosSoakPoint is the chaos sweep's single point.
type chaosSoakPoint struct{}

// phaseP99s extracts the per-phase tail (p99, model seconds) of a
// window summary's critical-path decomposition.
func phaseP99s(sum metrics.Summary) map[string]float64 {
	out := make(map[string]float64, len(metrics.PhaseOrdering()))
	for _, ph := range metrics.PhaseOrdering() {
		out[ph] = sum.PhaseLatency[ph].P99.Seconds()
	}
	return out
}

// measure builds the WAN network, plays the seeded fault schedule
// against the open-loop workload, waits for post-heal convergence, and
// checks the invariants.
func (chaosSoakPoint) measure(ctx context.Context, opt Options) (Point, error) {
	model := costmodel.Default(opt.Scale)
	col := metrics.NewCollector()
	if opt.OnCollector != nil {
		opt.OnCollector(col)
	}
	// Peers stay mem-backed (the snapshot-bootstrap path needs a wiped
	// restart), while the OSNs persist Raft hard state to disk so a
	// crashed orderer restarts from its log instead of from genesis.
	raftDir, err := os.MkdirTemp("", "fabricsim-chaos-raft-")
	if err != nil {
		return Point{}, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(raftDir)
	osnBackends := make(map[string]string, chaosOrderers)
	for i := 1; i <= chaosOrderers; i++ {
		osnBackends[fmt.Sprintf("osn%d", i)] = "file"
	}
	cfg := fabnet.Config{
		Orderer:           fabnet.Raft,
		NumOrderers:       chaosOrderers,
		NumEndorsingPeers: chaosOrgs,
		EndorsersPerOrg:   chaosReplicas,
		NumClients:        chaosClients,
		Policy:            policy.OrOverPeers(chaosOrgs),
		Model:             model,
		Collector:         col,
		BatchSize:         40,
		BatchTimeout:      300 * time.Millisecond,
		CommitterPool:     2,
		CommitDepth:       2,
		WANMatrix:         "wan3",
		Gossip: fabnet.GossipConfig{
			Enabled:             true,
			Fanout:              2,
			AntiEntropyInterval: 200 * time.Millisecond,
			LeaderLease:         800 * time.Millisecond,
		},
		Storage: fabnet.StorageConfig{
			Backend:           "mem",
			Dir:               raftDir,
			PerPeer:           osnBackends,
			SnapshotThreshold: chaosSnapshotThreshold,
		},
		// Compact aggressively so soak-length runs exercise the
		// compacted-log restart path, not just WAL replay.
		RaftCompactThreshold: 16,
	}
	net, err := fabnet.Build(cfg)
	if err != nil {
		return Point{}, fmt.Errorf("bench: %w", err)
	}
	defer net.Stop()
	if err := net.Start(ctx); err != nil {
		return Point{}, fmt.Errorf("bench: %w", err)
	}
	net.Links().Seed(opt.SubSeed("links"))

	// Gateways keep a standing event subscription to their event peer;
	// it does not survive that peer's restart, so event peers are
	// protected from crash/throttle faults (partitions and degradation
	// still hit them).
	protected := make([]string, chaosClients)
	for i := range protected {
		protected[i] = net.Peers[i].ID()
	}

	soak := chaosSoak(opt)
	scheduleSeed := opt.SubSeed("chaos.schedule")
	ctl := net.Chaos()
	sched, err := ctl.BuildSchedule(scheduleSeed, chaos.ScheduleConfig{
		// The schedule runs on the wall clock, so its span is the
		// soak's wall-time footprint.
		Duration: model.ScaledDelay(soak),
		// All five fault kinds always appear (the builder cycles
		// through kinds before repeating).
		Faults:    ifElse(opt.Quick, 5, 6),
		Kinds:     chaosKinds,
		Protected: protected,
	})
	if err != nil {
		return Point{}, fmt.Errorf("bench: %w", err)
	}

	point := &ChaosPoint{
		Seed:         opt.Seed,
		ScheduleSeed: scheduleSeed,
		Orgs:         chaosOrgs,
		Replicas:     chaosReplicas,
		WANMatrix:    cfg.WANMatrix,
		Faults:       len(sched.Events),
		FaultKinds:   sched.Kinds(),
		Timeline:     sched.Timeline(),
		Soak:         soak,
	}

	// Soak: the fault schedule plays out while the open-loop workload
	// keeps arriving at a fixed rate, fault or no fault.
	runStart := time.Now()
	chaosDone := make(chan error, 1)
	go func() { chaosDone <- ctl.Run(ctx, sched) }()
	_, err = workload.Run(ctx, net.Gateways, workload.Config{
		Rate:     chaosRate,
		Duration: soak,
		TxSize:   opt.TxSize,
		Model:    model,
		Seed:     opt.Seed,
	})
	chaosErr := <-chaosDone
	if err != nil {
		return Point{}, fmt.Errorf("bench: workload: %w", err)
	}
	if chaosErr != nil {
		// A fault that failed to apply or heal voids the run — the
		// invariants below would be measuring an unknown topology.
		return Point{}, fmt.Errorf("bench: chaos schedule: %w", chaosErr)
	}

	// Post-heal: every peer (including crashed-and-wiped ones) must
	// converge back to one tip hash and state hash.
	convErr := waitAgree(net.Peers, 60*time.Second)
	point.ConvergenceErr = convErr

	// --- Invariants ---
	// Agree verifies the chains only once tips and states agree, so a
	// run that did not converge verifies each chain here.
	ref := net.Peers[0].Ledger()
	refHeight := ref.Height()
	point.TipConverged = convErr == nil
	point.StateConverged = convErr == nil
	point.ChainValid = true
	for _, p := range net.Peers {
		l := p.Ledger()
		if l.Height() < refHeight {
			point.LostBlocks += int(refHeight - l.Height())
		}
		if convErr != nil && l.VerifyChain() != nil {
			point.ChainValid = false
		}
	}
	// Duplicate commits: no valid transaction ID may appear twice in
	// the scanned chain (a replayed envelope slipping past the
	// committer's duplicate check during fault churn). Scan the peer
	// with the fullest retained history — a peer that fell behind
	// during an orderer blackout may have snapshot-bootstrapped and
	// pruned its early blocks.
	scan := ref
	for _, p := range net.Peers {
		if p.Ledger().Base() < scan.Base() {
			scan = p.Ledger()
		}
	}
	committed := make(map[types.TxID]bool)
	for num := scan.Base() + 1; num < scan.Height(); num++ {
		blk, err := scan.GetBlock(num)
		if err != nil {
			return Point{}, fmt.Errorf("bench: block %d: %w", num, err)
		}
		txs, err := blk.Transactions()
		if err != nil {
			return Point{}, fmt.Errorf("bench: block %d: %w", num, err)
		}
		for i, tx := range txs {
			if i < len(blk.Metadata.ValidationFlags) && blk.Metadata.ValidationFlags[i].Valid() {
				if committed[tx.ID()] {
					point.DuplicateCommits++
				}
				committed[tx.ID()] = true
			}
		}
	}

	// --- SLO rows ---
	for _, ev := range sched.Events {
		sum := col.Summarize(metrics.SummaryOptions{
			TimeScale:   model.TimeScale,
			WindowStart: runStart.Add(ev.At),
			WindowEnd:   runStart.Add(ev.At + ev.For),
		})
		point.Windows = append(point.Windows, ChaosWindow{
			Fault:        ev.Fault.Name(),
			Kind:         ev.Fault.Kind(),
			StartS:       ev.At.Seconds() / model.TimeScale,
			EndS:         (ev.At + ev.For).Seconds() / model.TimeScale,
			CommittedTPS: sum.ValidateTPS,
			CommitLagP99: sum.CommitLag.P99.Seconds(),
			PhaseP99S:    phaseP99s(sum),
		})
		if ev.Fault.Kind() == chaos.KindOrdererCrash {
			point.OrdererCrashes++
		}
	}

	overall := col.Summarize(metrics.SummaryOptions{TimeScale: model.TimeScale})
	point.OverallTPS = overall.ValidateTPS
	point.CommitLagP99S = overall.CommitLag.P99.Seconds()
	point.Reelections = overall.LeaderElections
	point.SnapshotBootstraps = overall.SnapshotBootstraps
	point.BroadcastFailovers = overall.BroadcastFailovers

	return Point{Chaos: point}, nil
}

// writeChaosReport prints the soak's fault timeline, one SLO row per
// fault window, and the invariants.
func writeChaosReport(w io.Writer, pts []Point) {
	point := pts[0].Chaos
	fprintf(w, "seed=%d schedule_seed=%d faults=%d kinds=%v soak=%s wan=%s\n",
		point.Seed, point.ScheduleSeed, point.Faults, point.FaultKinds, point.Soak, point.WANMatrix)
	fprintf(w, "fault timeline (wall offsets, replayable from seed):\n")
	for _, line := range point.Timeline {
		fprintf(w, "  %s\n", line)
	}
	cols := []column[ChaosWindow]{
		{head: "fault window", verb: "%-34s", val: func(c ChaosWindow) any { return c.Fault }},
		{head: "kind", verb: "%-10s", val: func(c ChaosWindow) any { return c.Kind }},
		{head: "start(s)", verb: "%9.2f", val: func(c ChaosWindow) any { return c.StartS }},
		{head: "end(s)", verb: "%9.2f", val: func(c ChaosWindow) any { return c.EndS }},
		{head: "committed tps", verb: "%13.1f", val: func(c ChaosWindow) any { return c.CommittedTPS }},
		{head: "commit-lag p99(s)", verb: "%16.3f", val: func(c ChaosWindow) any { return c.CommitLagP99 }},
	}
	for _, ph := range metrics.PhaseOrdering() {
		cols = append(cols, column[ChaosWindow]{head: ph + "-p99(s)", verb: "%12.3f",
			val: func(c ChaosWindow) any { return c.PhaseP99S[ph] }})
	}
	fprintf(w, "\n")
	table[ChaosWindow]{cols: cols}.write(w, point.Windows)

	fprintf(w, "\noverall: committed tps=%.1f commit-lag p99=%.3fs re-elections=%d snapshot-bootstraps=%d orderer-crashes=%d broadcast-failovers=%d\n",
		point.OverallTPS, point.CommitLagP99S, point.Reelections,
		point.SnapshotBootstraps,
		point.OrdererCrashes, point.BroadcastFailovers)
	fprintf(w, "invariants: lost_blocks=%d duplicate_commits=%d tip_converged=%v state_converged=%v chain_valid=%v\n",
		point.LostBlocks, point.DuplicateCommits, point.TipConverged,
		point.StateConverged, point.ChainValid)
	if point.ConvergenceErr != nil {
		fprintf(w, "WARNING: post-heal convergence: %v\n", point.ConvergenceErr)
	}
}

// figChaos is the chaos soak: SLOs and safety invariants under a
// seeded, replayable fault schedule.
var figChaos = Experiment{
	ID:    "chaos",
	Title: "Chaos soak — Faults vs. SLOs on a 3-region WAN",
	note: fmt.Sprintf("(orderer=raft x %d file-backed, orgs=%d x %d replicas, gossip on, open loop %.0f tps, snapshot threshold=%d)\n",
		chaosOrderers, chaosOrgs, chaosReplicas, chaosRate, chaosSnapshotThreshold),
	sweeps:   []sweep{{"chaos", func(bool) []measurer { return []measurer{chaosSoakPoint{}} }}},
	render:   writeChaosReport,
	document: func(pts []Point) any { return pts[0].Chaos },
}
