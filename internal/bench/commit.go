package bench

import "fmt"

// Commit-sweep configuration: the pipeline sweep's topology (4
// endorsing peers, OR policy, one channel) with enough deeply-windowed
// clients that the committer — not the clients or the orderer — is the
// bottleneck at every point. The swept variables are the
// committer-pool width and the commit-pipeline depth, so the curve
// isolates what the staged, dependency-parallel committer recovers
// from the legacy serial commitLoop. The windowed pipeline load is
// used (rather than an overloading open loop) so committed throughput
// reads the committer's service capacity instead of a
// rejection-distorted overload figure.
const (
	commitSweepPeers   = 4
	commitSweepClients = 16
	commitSweepWindow  = 32
	// commitHotKeys confines the high-conflict workload to one hot key:
	// every transaction of a block lands in a single conflict group, so
	// the dependency analyzer finds nothing to parallelize and the
	// pipeline degrades gracefully toward the serial numbers.
	commitHotKeys = 1
)

// figCommit measures committed throughput and the per-stage validate
// breakdown as the committer grows from the serial walk (pool 1, depth
// 1 — the paper's bottleneck) to a deep, wide pipeline. On the
// low-conflict workload (fresh key per transaction) every transaction
// is its own conflict group, so the apply stage fans out across the
// pool while pipelining overlaps block N+1's VSCC with block N's apply
// and append; on the high-conflict workload (all writes on one hot
// key) the whole block is one dependency chain and the extra workers
// sit idle, degrading gracefully toward the serial numbers.
var figCommit = Experiment{
	ID:    "commit",
	Title: "Commit sweep — Throughput and Validate-Stage Breakdown vs. Pool x Depth",
	note: fmt.Sprintf("(orderer=solo, peers=%d, clients=%d, channels=1, policy=OR, windowed pipeline, %d in flight per client)\n",
		commitSweepPeers, commitSweepClients, commitSweepWindow),
	sweeps: []sweep{{"commit", func(quick bool) (pcs []measurer) {
		// The (pool, depth) grid (trimmed in quick mode). (1, 1) is
		// the legacy serial committer and must reproduce today's
		// ~300 tps validate cap within noise.
		grid := ifElse(quick, [][2]int{{1, 1}, {4, 2}}, [][2]int{{1, 1}, {2, 1}, {2, 2}, {4, 2}, {8, 2}, {8, 4}})
		for _, keySpace := range []int{0, commitHotKeys} {
			for _, pd := range grid {
				pc := soloOR(commitSweepPeers, commitSweepClients)
				pc.Window, pc.KeySpace = commitSweepWindow, keySpace
				pc.Committers, pc.Depth = pd[0], pd[1]
				pcs = append(pcs, pc)
			}
		}
		return pcs
	}}},
	tables: []table[Point]{{
		cols: []column[Point]{
			pcol("pool", "%-6d", func(p Point) any { return p.Config.Committers }),
			pcol("depth", "%-6d", func(p Point) any { return p.Config.Depth }),
			colThroughput,
			pcol("vscc(s)", "%10s", func(p Point) any { return secs(p.Summary.VSCCStage.Avg) }),
			pcol("apply(s)", "%10s", func(p Point) any { return secs(p.Summary.ApplyStage.Avg) }),
			pcol("append(s)", "%10s", func(p Point) any { return secs(p.Summary.AppendStage.Avg) }),
			pcol("groups", "%8.1f", func(p Point) any { return p.Summary.AvgConflictGroups }),
			pcol("validate(s)", "%12s", func(p Point) any { return secs(p.Summary.ValidateLatency.Avg) }),
		},
		group: func(p Point) string {
			return "workload: " + ifElse(p.Config.KeySpace == 0, "low-conflict (fresh key per tx)", "high-conflict (single hot key)")
		},
	}},
}
