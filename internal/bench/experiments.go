package bench

import (
	"fmt"
	"io"

	"fabricsim/internal/fabnet"
	"fabricsim/internal/policy"
)

// The paper's headline configuration: ten endorsing peers (one per org),
// OR over all ten or AND over five, three OSNs for the distributed
// ordering services (ZooKeeper = brokers = 3 for Kafka).
const (
	figPeers  = 10
	figOSNs   = 3
	figANDLen = 5
)

// figSweep is the orderer x arrival-rate grid under one policy. Figs.
// 2-7 are all columns of the OR grid, the AND5 grid, or both.
func figSweep(label string, pol policy.Policy) sweep {
	return sweep{"fig/" + label, func(quick bool) (pcs []measurer) {
		pc := PointConfig{Peers: figPeers, Policy: pol, PolicyLabel: label}
		for _, pc.Orderer = range []fabnet.OrdererType{fabnet.Solo, fabnet.Kafka, fabnet.Raft} {
			pc.OSNs = ifElse(pc.Orderer == fabnet.Solo, 1, figOSNs)
			// The paper's arrival-rate sweep.
			for _, pc.Rate = range ifElse(quick, []float64{100, 250, 400},
				[]float64{50, 100, 150, 200, 250, 300, 350, 400, 450}) {
				pcs = append(pcs, pc)
			}
		}
		return pcs
	}}
}

var (
	figOR  = figSweep("OR", policy.OrOverPeers(figPeers))
	figAND = figSweep("AND", policy.AndOverPeers(figANDLen))
)

// figExperiment lays a rate sweep out under the figures' shared
// "-- orderer=... policy=... --" separators.
func figExperiment(id, title string, sweeps []sweep, cols ...column[Point]) Experiment {
	return Experiment{
		ID:     id,
		Title:  title,
		sweeps: sweeps,
		tables: []table[Point]{{
			cols: cols,
			group: func(p Point) string {
				return fmt.Sprintf("orderer=%s policy=%s", p.Orderer, p.Policy)
			},
		}},
	}
}

// fig2 reproduces "Overall Transaction Throughput": committed tps vs
// arrival rate for Solo/Kafka/Raft under OR and AND.
var fig2 = figExperiment("fig2", "Fig. 2 — Overall Transaction Throughput (tps)",
	[]sweep{figOR, figAND}, colOrderer, colPolicy, colRate, colThroughput, colRejected)

// fig3 reproduces "Overall Transaction Latency": average end-to-end
// latency vs arrival rate (rejected transactions count at the 3s cap).
var fig3 = figExperiment("fig3", "Fig. 3 — Overall Transaction Latency (s)",
	[]sweep{figOR, figAND}, colOrderer, colPolicy, colRate,
	pcol("avg", "%10s", func(p Point) any { return secs(p.Summary.TotalLatency.Avg) }),
	pcol("p50", "%10s", func(p Point) any { return secs(p.Summary.TotalLatency.P50) }),
	pcol("p95", "%10s", func(p Point) any { return secs(p.Summary.TotalLatency.P95) }))

// phaseThroughputFig is Fig. 4 / Fig. 5 (per-phase throughput).
func phaseThroughputFig(id, title string, sw sweep) Experiment {
	return figExperiment(id, title, []sweep{sw}, colOrderer, colRate,
		pcol("execute", "%10.1f", func(p Point) any { return p.Summary.ExecuteTPS }),
		pcol("order", "%10.1f", func(p Point) any { return p.Summary.OrderTPS }),
		pcol("validate", "%10.1f", func(p Point) any { return p.Summary.ValidateTPS }))
}

// fig4 reproduces per-phase throughput under OR.
var fig4 = phaseThroughputFig("fig4", "Fig. 4 — Per-Phase Throughput under OR (tps)", figOR)

// fig5 reproduces per-phase throughput under AND5.
var fig5 = phaseThroughputFig("fig5", "Fig. 5 — Per-Phase Throughput under AND5 (tps)", figAND)

// phaseLatencyFig is Fig. 6 / Fig. 7 (execute latency vs the combined
// order & validate latency, the paper's two lines).
func phaseLatencyFig(id, title string, sw sweep) Experiment {
	return figExperiment(id, title, []sweep{sw}, colOrderer, colRate, colExecuteLat,
		pcol("order&validate(s)", "%16s", func(p Point) any { return secs(p.Summary.OrderValidateLatency.Avg) }))
}

// fig6 reproduces per-phase latency under OR.
var fig6 = phaseLatencyFig("fig6", "Fig. 6 — Per-Phase Latency under OR (s)", figOR)

// fig7 reproduces per-phase latency under AND5.
var fig7 = phaseLatencyFig("fig7", "Fig. 7 — Per-Phase Latency under AND5 (s)", figAND)

// tableCells is the column order of Tables II and III. Cells the
// paper leaves blank ("-") are the peer counts above maxPeers. For ANDx
// rows with fewer than x deployed peers the effective policy is AND
// over the deployed peers, matching the degenerate configurations the
// paper reports numbers for (an AND5 policy with 3 deployed peers can
// never be satisfied literally).
var tableCells = []struct {
	label    string
	pol      func(deployed int) policy.Policy
	maxPeers int
}{
	{"OR10", func(int) policy.Policy { return policy.OrOverPeers(10) }, 10},
	{"OR3", func(int) policy.Policy { return policy.OrOverPeers(3) }, 3},
	{"AND5", func(deployed int) policy.Policy { return policy.AndOverPeers(min(5, deployed)) }, 5},
	{"AND3", func(deployed int) policy.Policy { return policy.AndOverPeers(min(3, deployed)) }, 3},
}

// tableGrid is the peak-throughput grid shared by Tables II and III:
// each cell runs at an offered rate comfortably above the expected
// capacity so the achieved rate is the peak.
var tableGrid = sweep{"tablegrid", func(quick bool) (pcs []measurer) {
	// Table II's first column.
	for _, n := range ifElse(quick, []int{1, 3, 5}, []int{1, 3, 5, 7, 10}) {
		for _, c := range tableCells {
			if n > c.maxPeers {
				continue
			}
			pc := soloOR(n, 0)
			pc.Policy, pc.PolicyLabel = c.pol(n), c.label
			// Overdrive: ~55 tps per deployed client plus headroom,
			// capped at the sweep maximum.
			pc.Rate = min(70.0*float64(n)+60, 460)
			pcs = append(pcs, pc)
		}
	}
	return pcs
}}

// gridRow is one #peers row of Tables II/III: its cells by policy label.
type gridRow struct {
	peers int
	cell  map[string]Point
}

// writeGrid pivots the grid's points into one row per peer count and
// one column per (cell value, policy label).
func writeGrid(w io.Writer, pts []Point, caption, width string, cells ...func(Point) string) {
	var rows []gridRow
	for _, p := range pts {
		if len(rows) == 0 || rows[len(rows)-1].peers != p.Peers {
			rows = append(rows, gridRow{p.Peers, make(map[string]Point)})
		}
		rows[len(rows)-1].cell[p.Policy] = p
	}
	cols := []column[gridRow]{{head: "#peers", verb: "%-8d", val: func(r gridRow) any { return r.peers }}}
	for _, cell := range cells {
		for i, c := range tableCells {
			verb := "%" + width + "s"
			if i == 0 && len(cells) > 1 {
				verb = "| " + verb
			}
			cols = append(cols, column[gridRow]{head: c.label, verb: verb, val: func(r gridRow) any {
				if p, ok := r.cell[c.label]; ok {
					return cell(p)
				}
				return "-"
			}})
		}
	}
	table[gridRow]{caption: caption, cols: cols}.write(w, rows)
}

// table2 reproduces "Throughput vs. Number of Endorsing Peers".
var table2 = Experiment{
	ID:     "table2",
	Title:  "Table II — Peak Throughput (tps) vs. #Endorsing Peers",
	sweeps: []sweep{tableGrid},
	render: func(w io.Writer, pts []Point) {
		writeGrid(w, pts, "", "8", func(p Point) string { return fmt.Sprintf("%.0f", p.Summary.ValidateTPS) })
	},
}

// table3 reproduces "Latency vs. Number of Endorsing Peers": execute
// latency and order & validate latency per cell.
var table3 = Experiment{
	ID:     "table3",
	Title:  "Table III — Latency (s) vs. #Endorsing Peers",
	sweeps: []sweep{tableGrid},
	render: func(w io.Writer, pts []Point) {
		writeGrid(w, pts,
			fmt.Sprintf("%-8s | %32s | %32s", "", "Execute Latency (s)", "Order & Validate Latency (s)"), "7",
			func(p Point) string { return secs(p.Summary.ExecuteLatency.Avg) },
			func(p Point) string { return secs(p.Summary.OrderValidateLatency.Avg) })
	},
}

// fig8 reproduces "Throughput (and Latency) vs. Number of Ordering
// Service Nodes" for Kafka and Raft with ZooKeeper = brokers in {3, 7}.
var fig8 = Experiment{
	ID:    "fig8",
	Title: "Fig. 8 — Throughput and Latency vs. #OSNs (Kafka vs Raft)",
	sweeps: []sweep{{"fig8", func(quick bool) (pcs []measurer) {
		pc := PointConfig{Peers: figPeers, Policy: policy.OrOverPeers(figPeers), PolicyLabel: "OR"}
		pc.Rate = 300 // near the OR peak, where orderer effects would show
		for _, pc.Brokers = range []int{3, 7} {
			pc.ZooKeepers = pc.Brokers
			for _, pc.Orderer = range []fabnet.OrdererType{fabnet.Kafka, fabnet.Raft} {
				for _, pc.OSNs = range ifElse(quick, []int{4, 12}, []int{4, 8, 12}) {
					pcs = append(pcs, pc)
				}
			}
		}
		return pcs
	}}},
	tables: []table[Point]{{
		cols: []column[Point]{
			colOrderer,
			pcol("#osn", "%6d", func(p Point) any { return p.OSNs }),
			colThroughput, colLatency, colBlockTime,
		},
		group: func(p Point) string {
			return fmt.Sprintf("#ZooKeeper = #Broker = %d, rate = %.0f tps, policy OR", p.Config.Brokers, p.Rate)
		},
	}},
}
