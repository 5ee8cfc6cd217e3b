//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package fabnet

import (
	"context"
	"math"
	"testing"
	"testing/synctest"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/metrics"
	"fabricsim/internal/policy"
	"fabricsim/internal/workload"
)

// kafkaRun is one virtual-time life of a three-peer Kafka network under
// OR at scale 1.0: the model time Build and Start took, the model time
// from Build to the end of Stop, and the summary of 10 model-seconds of
// load at 400 tps.
type kafkaRun struct {
	setup time.Duration
	life  time.Duration
	sum   metrics.Summary
	err   error
}

// runKafkaNetwork builds, starts, loads and stops the network; it must
// run inside a synctest bubble, and reports failures in the result.
func runKafkaNetwork() (r kafkaRun) {
	model := costmodel.Default(1.0)
	col := metrics.NewCollector()
	began := time.Now()
	n, err := Build(Config{
		Orderer:           Kafka,
		NumOrderers:       3,
		NumEndorsingPeers: 3,
		Policy:            policy.OrOverPeers(3),
		Model:             model,
		Collector:         col,
	})
	if err != nil {
		r.err = err
		return r
	}
	defer func() { r.life = time.Since(began) }()
	defer n.Stop()
	ctx := context.Background()
	if r.err = n.Start(ctx); r.err != nil {
		return r
	}
	r.setup = time.Since(began)
	if _, r.err = workload.Run(ctx, n.Gateways, workload.Config{
		Rate:     400,
		Duration: 10 * time.Second,
		Model:    model,
		Seed:     1,
	}); r.err != nil {
		return r
	}
	r.sum = col.Summarize(metrics.SummaryOptions{TimeScale: model.TimeScale, RejectLatency: model.OrderTimeout})
	return r
}

// TestKafkaNetworkInVirtualTime runs a Kafka network twice with one
// seed, each time inside a synctest bubble. The bubble returning proves
// no goroutine outlives Stop, since one left blocked would deadlock it;
// both runs must commit, and agree on their committed count and mean
// latency within 0.1 %. Run with GOEXPERIMENT=synctest.
func TestKafkaNetworkInVirtualTime(t *testing.T) {
	var runs [2]kafkaRun
	for i := range runs {
		done := make(chan struct{})
		go func() {
			defer close(done)
			synctest.Run(func() { runs[i] = runKafkaNetwork() })
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("run %d: bubble still running after 2m of wall time", i)
		}
		r := runs[i]
		if r.err != nil {
			t.Fatalf("run %d: %v", i, r.err)
		}
		if r.sum.Committed == 0 {
			t.Fatalf("run %d committed nothing", i)
		}
		t.Logf("run %d: setup %.3f model-s, Build to Stop %.3f model-s, committed %d, mean latency %v",
			i, r.setup.Seconds(), r.life.Seconds(), r.sum.Committed, r.sum.TotalLatency.Avg)
	}
	within := func(a, b float64) bool { return math.Abs(a-b) <= 0.001*math.Max(a, b) }
	a, b := runs[0].sum, runs[1].sum
	if !within(float64(a.Committed), float64(b.Committed)) {
		t.Errorf("committed %d then %d, want within 0.1%%", a.Committed, b.Committed)
	}
	if !within(float64(a.TotalLatency.Avg), float64(b.TotalLatency.Avg)) {
		t.Errorf("mean latency %v then %v, want within 0.1%%", a.TotalLatency.Avg, b.TotalLatency.Avg)
	}
}
