package bench

import (
	"fmt"
	"io"
)

// Dissemination-sweep configuration. After replicated endorsers (PR 4)
// the execute and validate phases both scale out, which leaves the
// ordering service's deliver fan-out as the last per-peer serial cost:
// under direct deliver every peer fetches every block from an OSN, so
// orderer egress grows O(peers) and caps how far EndorsersPerOrg can be
// pushed. The sweep grows one topology 4 -> 32 peers (a fixed set of
// orgs, each org's endorser replicated) and compares direct deliver
// against the gossip layer, whose org-leader deliver polls hold orderer
// egress at O(orgs) while push gossip + anti-entropy carry blocks the
// rest of the way.
const (
	dissOrgs       = 4
	dissClients    = 8
	dissWindow     = 8
	dissCommitters = 4
	dissDepth      = 2
)

// dissPeers is a point's peer count, dissMode its dissemination mode.
func dissPeers(p Point) int   { return p.Peers * p.Config.EndorsersPerOrg }
func dissMode(p Point) string { return ifElse(p.Config.Gossip, "gossip", "direct") }

// figDissemination measures committed throughput, orderer egress
// (blocks and bytes), mean gossip hop count, and cluster-wide commit
// lag p99 as the peer count grows 4 -> 32 under direct deliver versus
// gossip. Committed throughput should match between the modes (the
// committer, not dissemination, is the bottleneck at equal load) while
// direct deliver's egress grows with the peer count and gossip's stays
// pinned near the org count.
var figDissemination = Experiment{
	ID:    "dissemination",
	Title: "Dissemination sweep — Direct Deliver vs. Gossip",
	note: fmt.Sprintf("(orderer=solo, orgs=%d, clients=%d, window=%d, committers=%d, depth=%d; peers = orgs x replicas)\n",
		dissOrgs, dissClients, dissWindow, dissCommitters, dissDepth),
	sweeps: []sweep{{"dissemination", func(quick bool) (pcs []measurer) {
		pc := soloOR(dissOrgs, dissClients)
		pc.Window, pc.Committers, pc.Depth = dissWindow, dissCommitters, dissDepth
		for _, pc.Gossip = range []bool{false, true} {
			// Replicas per org: peers = orgs * reps.
			for _, pc.EndorsersPerOrg = range ifElse(quick, []int{1, 4}, []int{1, 2, 4, 8}) {
				pcs = append(pcs, pc)
			}
		}
		return pcs
	}}},
	tables: []table[Point]{{
		cols: []column[Point]{
			{"mode", "%-8s", "mode", func(p Point) any { return dissMode(p) }},
			{key: "orgs", val: func(p Point) any { return p.Peers }},
			{"peers", "%6d", "peers", func(p Point) any { return dissPeers(p) }},
			keyed("throughput_tps", colThroughput),
			{"egr.blocks", "%12d", "orderer_egress_blocks", func(p Point) any { return p.OrdererEgressBlocks }},
			{"egr.MB", "%12.2f", "orderer_egress_mb", func(p Point) any { return float64(p.OrdererEgressBytes) / (1 << 20) }},
			{"hops", "%8.2f", "mean_gossip_hops", func(p Point) any { return p.Summary.MeanGossipHops }},
			{"ae.blocks", "%10d", "anti_entropy_blocks", func(p Point) any { return p.Summary.AntiEntropyBlocks }},
			{"lag p99(s)", "%12.2f", "commit_lag_p99_s", func(p Point) any { return p.Summary.CommitLag.P99.Seconds() }},
		},
		group: func(p Point) string { return "mode=" + dissMode(p) },
	}},
	// Egress ratio per peer count: the paper-style punchline rows. The
	// sweep lists the direct points, then the gossip points of equal size.
	render: func(w io.Writer, pts []Point) {
		half := len(pts) / 2
		rows := make([][2]Point, half) // {direct, gossip}
		for i := range rows {
			rows[i] = [2]Point{pts[i], pts[half+i]}
		}
		table[[2]Point]{
			cols: []column[[2]Point]{
				{head: "peers", verb: "%6d", val: func(r [2]Point) any { return dissPeers(r[0]) }},
				{head: "direct blocks", verb: "%14d", val: func(r [2]Point) any { return r[0].OrdererEgressBlocks }},
				{head: "gossip blocks", verb: "%14d", val: func(r [2]Point) any { return r[1].OrdererEgressBlocks }},
				{head: "ratio", verb: "%8.2f", val: func(r [2]Point) any {
					if r[0].OrdererEgressBlocks == 0 {
						return 0.0
					}
					return float64(r[1].OrdererEgressBlocks) / float64(r[0].OrdererEgressBlocks)
				}},
			},
			group: func([2]Point) string { return "gossip egress as a fraction of direct (same peer count)" },
		}.write(w, rows)
	},
}
