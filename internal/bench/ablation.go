package bench

import "time"

// Ablation experiments for the design parameters the paper names as the
// ordering service's "two core conditions" (Section III: BatchSize and
// BatchTimeout) and the workload's transaction-size knob (Section IV's
// "transaction size of 1 byte"). These are not paper figures; they
// quantify how sensitive the headline results are to those choices.

// ablation sweeps one field of the headline Solo/OR configuration at a
// fixed arrival rate; set writes the field into the point.
func ablation[V any](id, title string, rate float64, full, trimmed []V,
	set func(*PointConfig, V), cols ...column[Point]) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		sweeps: []sweep{{id, func(quick bool) (pcs []measurer) {
			for _, v := range ifElse(quick, trimmed, full) {
				pc := soloOR(figPeers, 0)
				pc.Rate = rate
				set(&pc, v)
				pcs = append(pcs, pc)
			}
			return pcs
		}}},
		tables: []table[Point]{{cols: cols}},
	}
}

// ablationBatchSize sweeps the BatchSize cut condition at a fixed
// arrival rate and reports throughput, latency, and block time.
var ablationBatchSize = ablation("batchsize", "Ablation — BatchSize (Solo, OR, 250 tps offered)", 250,
	[]int{10, 50, 100, 200, 500}, []int{10, 100, 500},
	func(pc *PointConfig, bs int) { pc.BatchSize = bs },
	pcol("batchsize", "%-10d", func(p Point) any { return p.Config.BatchSize }),
	colThroughput, colLatency, colBlockTime,
	pcol("txs/block", "%12.1f", func(p Point) any { return p.Summary.AvgBlockSize }))

// ablationBatchTimeout sweeps BatchTimeout at a low arrival rate, where
// blocks cut on the timer and latency tracks timeout/2.
var ablationBatchTimeout = ablation("batchtimeout", "Ablation — BatchTimeout (Solo, OR, 50 tps offered)", 50,
	[]time.Duration{250 * time.Millisecond, 500 * time.Millisecond, time.Second, 2 * time.Second},
	[]time.Duration{500 * time.Millisecond, 2 * time.Second},
	func(pc *PointConfig, bt time.Duration) { pc.BatchTimeout = bt },
	pcol("timeout(s)", "%-12s", func(p Point) any { return secs(p.Config.BatchTimeout) }),
	colThroughput, colLatency, colBlockTime)

// ablationTxSize sweeps the written value size; larger transactions pay
// chaincode per-byte cost and block transfer time.
var ablationTxSize = ablation("txsize", "Ablation — Transaction size (Solo, OR, 250 tps offered)", 250,
	[]int{1, 1024, 16 * 1024, 64 * 1024}, []int{1, 16 * 1024},
	func(pc *PointConfig, sz int) { pc.TxSize = sz },
	pcol("bytes", "%-10d", func(p Point) any { return p.Config.TxSize }),
	colThroughput, colLatency)
