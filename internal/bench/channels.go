package bench

import "fmt"

// Channel-sweep configuration: few enough peers that the per-channel
// serial commit walk — not the endorsers — is the bottleneck, and
// enough client processes that the Node.js-style per-client CPU cap
// (~55 tps each) sits well above the single-channel ceiling.
const (
	chanSweepPeers   = 4
	chanSweepClients = 16
	chanSweepRate    = 800
)

// figChannels measures throughput and per-phase latency as the network
// is sharded into concurrently-ordered channels at fixed peer count.
// A single channel saturates on the committer's serial MVCC+commit walk
// (one pipeline per channel); adding channels multiplies the pipelines
// — separate ordering lanes, ledgers, and commit loops — so aggregate
// committed throughput climbs until the shared peer CPUs or the client
// pool become the next bottleneck.
var figChannels = Experiment{
	ID:    "channels",
	Title: "Channel sweep — Aggregate Throughput and Per-Phase Latency vs. #Channels",
	note: fmt.Sprintf("(orderer=solo, peers=%d, clients=%d, policy=OR, offered rate=%d tps)\n\n",
		chanSweepPeers, chanSweepClients, chanSweepRate),
	sweeps: []sweep{{"channels", func(quick bool) (pcs []measurer) {
		// The 1 -> 8 channel sweep (trimmed in quick mode).
		for _, nch := range ifElse(quick, []int{1, 4}, []int{1, 2, 4, 8}) {
			pc := soloOR(chanSweepPeers, chanSweepClients)
			pc.Rate, pc.Channels = chanSweepRate, nch
			pcs = append(pcs, pc)
		}
		return pcs
	}}},
	tables: []table[Point]{{cols: []column[Point]{
		pcol("#channels", "%-10d", func(p Point) any { return p.Channels }),
		colThroughput, colExecuteLat,
		pcol("order&val(s)", "%12s", func(p Point) any { return secs(p.Summary.OrderValidateLatency.Avg) }),
		colTotalLat, colRejected,
	}}},
}
