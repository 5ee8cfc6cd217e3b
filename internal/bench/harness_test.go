package bench

import (
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"fabricsim/internal/fabnet"
	"fabricsim/internal/metrics"
	"fabricsim/internal/policy"
)

func TestGetAndAll(t *testing.T) {
	want := []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table2", "table3", "fig8", "channels", "pipeline", "commit", "endorse", "dissemination", "recovery", "chaos", "contention"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() = %d experiments", len(all))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("All()[%d] = %s, want %s", i, all[i].ID, id)
		}
		if _, ok := Get(id); !ok {
			t.Errorf("Get(%s) missing", id)
		}
	}
	for _, id := range []string{"batchsize", "batchtimeout", "txsize"} {
		if _, ok := Get(id); !ok {
			t.Errorf("ablation %s missing", id)
		}
	}
	if _, ok := Get("fig99"); ok {
		t.Error("unknown id found")
	}
	if !strings.Contains(Describe(), "fig2") {
		t.Error("Describe missing fig2")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale <= 0 || o.Duration <= 0 || o.TxSize < 1 {
		t.Errorf("defaults not applied: %+v", o)
	}
	q := Options{Quick: true}.withDefaults()
	if q.Duration >= o.Duration {
		t.Error("quick mode not shorter")
	}
}

// The load tests below run lightest first. go test runs this package
// beside internal/fabnet, whose first end-to-end tests assert wall-clock
// throughput floors; a 400 tps point on a small host in their first
// seconds makes them miss, a 50 or 150 tps point does not.

// TestQuickExperimentRuns smoke-runs one cheap ablation end to end. The
// ablations go through RunPoint like every other sweep, so each of the
// two points must hand its collector to the -obs hook.
func TestQuickExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs load points")
	}
	exp, _ := Get("batchtimeout")
	collectors := 0
	opt := Options{
		Scale:       0.25,
		Duration:    3 * time.Second,
		Quick:       true,
		OnCollector: func(*metrics.Collector) { collectors++ },
	}
	if err := Run(context.Background(), []Experiment{exp}, opt, io.Discard); err != nil {
		t.Fatal(err)
	}
	if collectors != 2 {
		t.Errorf("OnCollector called %d times, want once per measured point (2)", collectors)
	}
}

// TestPaperFidelity holds the cost model's calibration to the paper's
// findings, one point per finding, on the headline ten-peer topology:
// below saturation the network keeps up with the offered rate; at
// overload the validate phase caps near 300 tps under OR and near 205
// under AND5 while execute still keeps up; and the cap is the same
// under Solo, Kafka and Raft — the orderer is never the bottleneck.
func TestPaperFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs load points")
	}
	or10, and5 := policy.OrOverPeers(figPeers), policy.AndOverPeers(figANDLen)
	for _, tc := range []struct {
		finding string
		orderer fabnet.OrdererType
		label   string
		pol     policy.Policy
		rate    float64
		// validate must read within tol of ref tps; execute at least
		// minExecute; blocks hold at least minBlockSize transactions.
		ref, tol, minExecute, minBlockSize float64
	}{
		{"keeps up below saturation", fabnet.Solo, "OR", or10, 150, 150, 0.07, 0, 0},
		{"validate caps under OR, execute does not", fabnet.Solo, "OR", or10, 400, 300, 0.10, 370, 50},
		{"validate caps lower under AND5", fabnet.Solo, "AND", and5, 400, 205, 0.10, 0, 0},
		{"Raft has the OR cap", fabnet.Raft, "OR", or10, 400, 300, 0.10, 0, 0},
		{"Kafka has the OR cap", fabnet.Kafka, "OR", or10, 400, 300, 0.10, 0, 0},
	} {
		osns := figOSNs
		if tc.orderer == fabnet.Solo {
			osns = 1
		}
		// A loaded host can only lower a reading (go test runs packages
		// side by side), never raise it, so a low point is measured up to
		// three times and a high one fails at once.
		for attempt := 1; ; attempt++ {
			p, err := RunPoint(context.Background(), PointConfig{
				Orderer:     tc.orderer,
				OSNs:        osns,
				Peers:       figPeers,
				Policy:      tc.pol,
				PolicyLabel: tc.label,
				Rate:        tc.rate,
			}, Options{Scale: 0.25, Duration: 6 * time.Second, Seed: 1})
			if err != nil {
				t.Fatalf("%s: %v", tc.finding, err)
			}
			s := p.Summary
			t.Logf("%s/%s @ %.0f, attempt %d: execute=%.1f order=%.1f validate=%.1f", tc.orderer, tc.label, tc.rate,
				attempt, s.ExecuteTPS, s.OrderTPS, s.ValidateTPS)
			low := s.ValidateTPS < tc.ref*(1-tc.tol) || s.ExecuteTPS < tc.minExecute
			if low && attempt < 3 {
				continue
			}
			if low || s.ValidateTPS > tc.ref*(1+tc.tol) {
				t.Errorf("%s: %s/%s @ %.0f validates %.1f tps (want %.0f within %.0f%%) and executes %.1f (want at least %.0f)",
					tc.finding, tc.orderer, tc.label, tc.rate, s.ValidateTPS, tc.ref, 100*tc.tol, s.ExecuteTPS, tc.minExecute)
			}
			if s.BlockTime <= 0 || s.AvgBlockSize < tc.minBlockSize {
				t.Errorf("%s: block time %s, block size %.0f (want at least %.0f)", tc.finding, s.BlockTime, s.AvgBlockSize, tc.minBlockSize)
			}
			break
		}
	}
}
