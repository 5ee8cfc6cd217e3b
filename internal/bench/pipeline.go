package bench

import "fmt"

// Pipeline-sweep configuration: the same fixed topology as the channel
// sweep's single-channel point (4 endorsing peers, OR policy, one
// channel), driven by 8 client processes. The only swept variable is
// the per-client in-flight window, so the curve isolates what the
// staged gateway API recovers from the blocking SDK life cycle.
const (
	pipeSweepPeers   = 4
	pipeSweepClients = 8
)

var colWindow = pcol("#inflight", "%-10d", func(p Point) any { return p.Window })

// figPipeline measures aggregate throughput and latency as each
// client's in-flight window grows from 1 (the paper's blocking SDK,
// where every client thread holds one transaction from proposal to
// commit event) to 64 (deep pipelining through gateway.SubmitAsync).
// Closed-loop throughput is bounded by end-to-end latency — roughly
// window/latency per client — so it climbs with the window until the
// execute-phase client CPU or the committer's serial walk saturates,
// which is exactly the decoupling the Fabric v2.4 Gateway API redesign
// buys without adding hardware.
var figPipeline = Experiment{
	ID:    "pipeline",
	Title: "Pipeline sweep — Aggregate Throughput and Latency vs. In-Flight Window",
	note: fmt.Sprintf("(orderer=solo, peers=%d, clients=%d, channels=1, policy=OR, windowed pipeline via SubmitAsync)\n\n",
		pipeSweepPeers, pipeSweepClients),
	sweeps: []sweep{{"pipeline", func(quick bool) (pcs []measurer) {
		// The 1 -> 64 in-flight window sweep (trimmed in quick mode).
		// Window 1 is the legacy closed loop — one blocking Invoke
		// per client at a time — and must match today's Invoke
		// numbers within noise.
		for _, window := range ifElse(quick, []int{1, 8, 64}, []int{1, 2, 4, 8, 16, 32, 64}) {
			pc := soloOR(pipeSweepPeers, pipeSweepClients)
			pc.Window = window
			pcs = append(pcs, pc)
		}
		return pcs
	}}},
	tables: []table[Point]{
		{cols: []column[Point]{
			colWindow,
			pcol("submitted", "%10d", func(p Point) any { return p.Stats.Submitted }),
			colThroughput, colExecuteLat, colTotalLat, colRejected,
		}},
		phaseTable(colWindow),
	},
}
