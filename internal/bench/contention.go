package bench

import (
	"fmt"

	"fabricsim/internal/workload"
)

// Contention-sweep configuration: the commit sweep's topology (4
// endorsing peers, OR policy, deeply-windowed clients) pushed onto
// contended key spaces, so the committer's conflict handling — not the
// clients or the orderer — decides throughput. Two sections:
//
//  1. The single-hot-key blind-write workload that pins the staged
//     committer to its serial plateau (~300 tps): every transaction of
//     a block shares one key-overlap conflict group, so the pool
//     serializes. Conflict-aware ordering re-analyzes the same blocks
//     with true read->write dependencies; blind writes have no reads,
//     the block becomes N singleton chains, and the pool fans out
//     again. Reorder off must reproduce the plateau; reorder on must
//     beat it.
//  2. A SmallBank hot-account mix under Zipfian skew, crossed with
//     conflict-aware ordering and the gateway retry loop — the paper's
//     missing contention axis: committed tps, abort rate, and the
//     validate CPU burned on doomed transactions.
const (
	contentionPeers   = 4
	contentionClients = 16
	contentionWindow  = 32
	contentionPool    = 4
	contentionDepth   = 4
	// contentionHotKeys pins the blind-write section to one key — the
	// commit sweep's high-conflict plateau point.
	contentionHotKeys = 1
	// contentionAccounts bounds the SmallBank section's account pool so
	// the Zipf draw concentrates real read-modify-write collisions.
	contentionAccounts = 16
)

// smallbank tells the SmallBank rows from the hot-key rows.
func smallbank(p Point) bool { return p.Config.Profile == workload.ProfileSmallBank }

// contentionConfig are the swept switches, shown in both tables.
var contentionConfig = []column[Point]{
	{"workload", "%-10s", "workload", func(p Point) any { return ifElse(smallbank(p), "smallbank", "hot1") }},
	{"reord", "%-6v", "reorder", func(p Point) any { return p.Config.Reorder }},
	{"retry", "%-6v", "retry", func(p Point) any { return p.Config.Retry }},
	{"zipf", "%-6.1f", "zipf_s", func(p Point) any { return p.Config.ZipfS }},
}

// figContention measures committed throughput, abort rate, and wasted
// validate CPU on contended workloads as conflict-aware ordering and
// gateway retry toggle. The hot-key blind-write rows bracket the staged
// committer's serial plateau: with reorder off the single conflict
// group serializes the pool, with reorder on the dependency-chain
// analysis restores the fan-out. The SmallBank rows sweep Zipf skew x
// reorder x retry and expose the early-abort saving: doomed
// transactions leave the pipeline before validation instead of burning
// MVCC-check CPU, and retry converts their aborts back into commits.
var figContention = Experiment{
	ID:    "contention",
	Title: "Contention sweep — Throughput, Abort Rate, Wasted Validate CPU",
	note: fmt.Sprintf("(orderer=solo, peers=%d, clients=%d, window=%d, committers=%d, depth=%d, policy=OR)\n",
		contentionPeers, contentionClients, contentionWindow, contentionPool, contentionDepth),
	sweeps: []sweep{{"contention", func(quick bool) (pcs []measurer) {
		base := soloOR(contentionPeers, contentionClients)
		base.Window, base.Committers, base.Depth = contentionWindow, contentionPool, contentionDepth
		hot := base
		hot.KeySpace = contentionHotKeys
		for _, hot.Reorder = range []bool{false, true} {
			pcs = append(pcs, hot)
		}
		bank := base
		bank.KeySpace, bank.Profile = contentionAccounts, workload.ProfileSmallBank
		// The Zipf-exponent sweep (trimmed to the mid skew in quick mode).
		for _, bank.ZipfS = range ifElse(quick, []float64{1.5}, []float64{1.2, 1.5, 2.0}) {
			for _, bank.Reorder = range []bool{false, true} {
				for _, bank.Retry = range []bool{false, true} {
					pcs = append(pcs, bank)
				}
			}
		}
		return pcs
	}}},
	tables: []table[Point]{
		{
			cols: append(contentionConfig[:len(contentionConfig):len(contentionConfig)],
				keyed("throughput_tps", colThroughput),
				column[Point]{"abort", "%10.3f", "abort_rate", func(p Point) any { return p.Summary.AbortRate }},
				column[Point]{"mvcc", "%8d", "mvcc_aborts", func(p Point) any { return p.Summary.MVCCAborts }},
				column[Point]{"early", "%8d", "early_aborts", func(p Point) any { return p.Summary.EarlyAborts }},
				column[Point]{"wasted(s)", "%10.2f", "wasted_validate_s",
					func(p Point) any { return p.Summary.WastedValidateCPU.Seconds() }},
				// cli-ok is the client-visible fraction of submissions
				// that ultimately committed — the axis retry moves: it
				// converts conflict failures into eventual commits at
				// the cost of extra endorsement load.
				column[Point]{"cli-ok", "%9.3f", "client_success_rate", func(p Point) any {
					done := p.Stats.Succeeded + p.Stats.Failed
					return float64(p.Stats.Succeeded) / float64(max(done, 1))
				}},
				// phase_latency is the critical-path decomposition of
				// the committed cohort (p50/p99 model seconds per
				// lifecycle phase), so the JSON trail shows which
				// stage contention inflates.
				column[Point]{key: "phase_latency", val: func(p Point) any { return phaseLatencyJSON(p.Summary) }},
			),
			group: func(p Point) string {
				if smallbank(p) {
					return fmt.Sprintf("SmallBank hot accounts (keyspace=%d, Zipf draw): reorder x retry", contentionAccounts)
				}
				return fmt.Sprintf("hot-key blind writes (keyspace=%d): the serial plateau and its escape", contentionHotKeys)
			},
		},
		phaseTable(contentionConfig...),
	},
}
