package costmodel

import (
	"testing"
	"time"
)

func TestDefaultsSane(t *testing.T) {
	m := Default(1.0)
	if m.TimeScale != 1.0 {
		t.Errorf("TimeScale = %f", m.TimeScale)
	}
	if m.PeerCores < 1 || m.ClientCores < 1 || m.ValidatorPool < 1 {
		t.Error("core counts must be positive")
	}
	if m.OrderTimeout != 3*time.Second {
		t.Errorf("OrderTimeout = %s, paper uses 3s", m.OrderTimeout)
	}
	if Default(0).TimeScale != 1 {
		t.Error("non-positive scale not defaulted")
	}
}

// The calibration targets from DESIGN.md section 4 are structural
// properties of the model; this test pins them so a constant change
// that breaks the reproduction fails loudly.
func TestCalibrationTargets(t *testing.T) {
	m := Default(1.0)

	// Client capacity: ~50-60 tps per process under OR (1 endorsement).
	clientTPS := float64(time.Second) / float64(m.ClientTxCost(1))
	if clientTPS < 45 || clientTPS > 62 {
		t.Errorf("client capacity = %.1f tps, want ~55 (Table II slope)", clientTPS)
	}

	// Validate-phase capacity per tx = serial (MVCC check plus state
	// write) + parallel/pool.
	perTx := func(sigs int) time.Duration {
		return m.MVCCPerTxCPU + m.CommitPerTxCPU +
			m.BlockCommitCPU/100 + // amortized over a full block
			m.VSCCCost(sigs)/time.Duration(m.ValidatorPool)
	}
	orTPS := float64(time.Second) / float64(perTx(1))
	andTPS := float64(time.Second) / float64(perTx(5))
	if orTPS < 280 || orTPS > 340 {
		t.Errorf("OR validate cap = %.0f tps, want ~310 (paper ~300)", orTPS)
	}
	if andTPS < 180 || andTPS > 230 {
		t.Errorf("AND5 validate cap = %.0f tps, want ~206 (paper ~210)", andTPS)
	}

	// AND must cap below OR: the paper's central bottleneck finding.
	if andTPS >= orTPS {
		t.Error("AND5 validate capacity not below OR")
	}

	// The orderer must never be the bottleneck (paper's finding 2).
	orderTPS := float64(time.Second) / float64(m.OrderPerTxCPU) * float64(m.OrdererCores)
	if orderTPS < 2*orTPS {
		t.Errorf("orderer capacity %.0f tps is too close to validate cap %.0f", orderTPS, orTPS)
	}
}

func TestScaling(t *testing.T) {
	m := Default(0.1)
	if got := m.ScaledDelay(time.Second); got != 100*time.Millisecond {
		t.Errorf("ScaledDelay = %s", got)
	}
}

func TestCostHelpers(t *testing.T) {
	m := Default(1.0)
	if m.ClientTxCost(5) <= m.ClientTxCost(1) {
		t.Error("client cost does not grow with endorsements")
	}
	if m.VSCCCost(5) <= m.VSCCCost(1) {
		t.Error("VSCC cost does not grow with signatures")
	}
	if m.ChaincodeCost(1<<20) <= m.ChaincodeCost(1) {
		t.Error("chaincode cost does not grow with value size")
	}
}

// TestChaincodeCostComposition pins the container's charge apart from
// the proposal checks: ChaincodeCost is positive and does not depend on
// EndorseVerifyCPU, so no recalibration can push it negative.
func TestChaincodeCostComposition(t *testing.T) {
	m := Default(1.0)
	for _, bytes := range []int{0, 1, 1 << 20} {
		if m.ChaincodeCost(bytes) <= 0 {
			t.Errorf("ChaincodeCost(%d) = %s, not positive", bytes, m.ChaincodeCost(bytes))
		}
	}
	// Even a pathological recalibration cannot push the container's
	// charge negative: ChaincodeCost never depends on EndorseVerifyCPU.
	m.EndorseVerifyCPU = time.Hour
	if m.ChaincodeCost(1) <= 0 {
		t.Errorf("ChaincodeCost went non-positive after recalibration: %s", m.ChaincodeCost(1))
	}
}
