// Package costmodel centralizes the calibrated service-time constants
// that substitute for the paper's physical testbed (i7-2600 peers, a
// Node.js SDK workload generator, Docker chaincode containers, spinning
// disks). Protocol logic elsewhere in the repository is real; only CPU
// and I/O *cost* is injected from this model, and every constant lives
// here so the calibration is auditable in one place.
//
// Calibration targets (see DESIGN.md section 4):
//
//   - a single client process sustains ~50 tps under OR (Table II slope),
//   - ANDx client cost grows with x (17ms + 1.2ms*x per tx),
//   - the validate phase caps near 300 tps with one endorsement per tx
//     and near 200-210 tps with five (the paper's AND5 bottleneck),
//   - the ordering service is never the bottleneck.
package costmodel

import "time"

// Model holds every calibrated constant. The zero value is unusable; use
// Default or Calibrated.
type Model struct {
	// TimeScale multiplies every modeled duration; 1.0 = real time.
	// Experiments use small values (e.g. 0.05) to compress wall time.
	TimeScale float64

	// --- Client (Node.js SDK substitute) ---

	// ClientPerTxCPU is the client-side CPU to build, sign, and submit
	// one proposal and assemble the final envelope.
	ClientPerTxCPU time.Duration
	// ClientPerEndorsementCPU is the extra client CPU to verify each
	// collected endorsement response.
	ClientPerEndorsementCPU time.Duration
	// ClientBaseLatency models fixed SDK/gRPC/event-loop latency per
	// endorsement round trip (pure delay, not capacity-consuming).
	ClientBaseLatency time.Duration
	// ClientCores is the simulated core count per client process
	// (Node.js is single-threaded).
	ClientCores int
	// OrderTimeout is the paper's 3-second client-side ordering
	// timeout: transactions not committed in time are rejected.
	OrderTimeout time.Duration

	// --- Endorsing peer, execute phase ---

	// EndorseVerifyCPU covers proposal well-formedness, signature, ACL,
	// and duplicate checks.
	EndorseVerifyCPU time.Duration
	// ChaincodeExecCPU is one chaincode invocation in the container.
	ChaincodeExecCPU time.Duration
	// ChaincodePerByteCPU adds cost proportional to the transaction
	// size parameter (value bytes written).
	ChaincodePerByteCPU time.Duration
	// ContainerLaunch is the one-time chaincode container start cost.
	ContainerLaunch time.Duration
	// PeerCores is the simulated core count of a peer machine
	// (i7-2600: 4 cores / 8 threads).
	PeerCores int

	// --- Ordering service ---

	// OrderPerTxCPU is the orderer's per-transaction ingest cost.
	OrderPerTxCPU time.Duration
	// OrdererCores is the simulated core count of an OSN.
	OrdererCores int
	// KafkaReplicaWriteCPU is a broker's cost to append one record.
	KafkaReplicaWriteCPU time.Duration
	// RaftAppendCPU is a Raft node's cost to append one entry batch.
	RaftAppendCPU time.Duration

	// --- Committing peer, validate phase ---

	// VSCCPerSigCPU is the validation cost per endorsement signature
	// (the dominant validate-phase cost; scales with the AND width).
	VSCCPerSigCPU time.Duration
	// VSCCPerTxCPU is the fixed VSCC cost per transaction.
	VSCCPerTxCPU time.Duration
	// MVCCPerTxCPU is the serial read-conflict check per transaction.
	MVCCPerTxCPU time.Duration
	// CommitPerTxCPU is the per-transaction ledger/state write cost.
	CommitPerTxCPU time.Duration
	// BlockCommitCPU is the fixed per-block commit overhead (header
	// verification plus the block-store fsync on the paper's SEAGATE
	// spinning disk).
	BlockCommitCPU time.Duration
	// ValidatorPool is the number of parallel VSCC workers per peer
	// (Fabric's validator pool defaults to the core count).
	ValidatorPool int
	// CommitterPool is the number of parallel state-apply workers per
	// channel commit pipeline. The dependency analyzer partitions each
	// block into conflict-free transaction groups; independent groups
	// fan out across the pool while each dependency chain still pays
	// its MVCC+commit cost serially. 1 (the default) is Fabric's
	// strictly serial committer.
	CommitterPool int
	// CommitDepth is the number of blocks one channel's commit pipeline
	// holds in flight: with depth d, block N+d-1's VSCC may overlap
	// block N's state apply and block-store append. 1 (the default)
	// processes blocks strictly one at a time, the legacy commitLoop
	// shape.
	CommitDepth int

	// --- Network (1 Gbps Ethernet substitute) ---

	// LinkLatency is the one-way base latency between machines.
	LinkLatency time.Duration
	// LinkBandwidth is the per-link bandwidth in bytes/second.
	LinkBandwidth float64
}

// Default returns the calibrated model at the given time scale.
func Default(timeScale float64) Model {
	if timeScale <= 0 {
		timeScale = 1
	}
	return Model{
		TimeScale: timeScale,

		ClientPerTxCPU:          17 * time.Millisecond,
		ClientPerEndorsementCPU: 1200 * time.Microsecond,
		ClientBaseLatency:       110 * time.Millisecond,
		ClientCores:             1,
		OrderTimeout:            3 * time.Second,

		EndorseVerifyCPU:    1 * time.Millisecond,
		ChaincodeExecCPU:    3 * time.Millisecond,
		ChaincodePerByteCPU: 2 * time.Nanosecond,
		ContainerLaunch:     300 * time.Millisecond,
		PeerCores:           8,

		OrderPerTxCPU:        300 * time.Microsecond,
		OrdererCores:         8,
		KafkaReplicaWriteCPU: 100 * time.Microsecond,
		RaftAppendCPU:        100 * time.Microsecond,

		VSCCPerSigCPU:  1650 * time.Microsecond,
		VSCCPerTxCPU:   600 * time.Microsecond,
		MVCCPerTxCPU:   500 * time.Microsecond,
		CommitPerTxCPU: 2 * time.Millisecond,
		BlockCommitCPU: 15 * time.Millisecond,
		ValidatorPool:  4,
		CommitterPool:  1,
		CommitDepth:    1,

		LinkLatency:   200 * time.Microsecond,
		LinkBandwidth: 125e6, // 1 Gbps
	}
}

// ClientTxCost returns the client CPU for one transaction that collects
// the given number of endorsements.
func (m *Model) ClientTxCost(endorsements int) time.Duration {
	return m.ClientPerTxCPU + time.Duration(endorsements)*m.ClientPerEndorsementCPU
}

// ChaincodeCost returns the peer CPU for one chaincode execution in the
// container: the base invocation cost plus the cost proportional to the
// written value size. An endorsement charges it on top of
// EndorseVerifyCPU, the proposal checks.
func (m *Model) ChaincodeCost(valueBytes int) time.Duration {
	return m.ChaincodeExecCPU + time.Duration(valueBytes)*m.ChaincodePerByteCPU
}

// VSCCCost returns the validate-phase policy-check CPU for one
// transaction carrying the given number of endorsement signatures.
func (m *Model) VSCCCost(signatures int) time.Duration {
	return m.VSCCPerTxCPU + time.Duration(signatures)*m.VSCCPerSigCPU
}

// ScaledDelay converts a modeled duration into wall-clock sleep time.
func (m *Model) ScaledDelay(d time.Duration) time.Duration {
	return time.Duration(float64(d) * m.TimeScale)
}

// UnscaledDuration converts a measured wall-clock duration back into
// modeled time for reporting.
func (m *Model) UnscaledDuration(d time.Duration) time.Duration {
	if m.TimeScale == 0 {
		return d
	}
	return time.Duration(float64(d) / m.TimeScale)
}

// ScaledRate converts a modeled arrival rate (tx/s in model time) into
// the wall-clock rate the generator must produce.
func (m *Model) ScaledRate(rate float64) float64 {
	if m.TimeScale == 0 {
		return rate
	}
	return rate / m.TimeScale
}
