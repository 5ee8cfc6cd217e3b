//go:build goexperiment.synctest

package transport

import (
	"context"
	"testing"
	"time"

	"fabricsim/internal/simtest"
)

// TestLinkPipelinesFramesInVirtualTime sends two frames on one link at
// one instant. The link transmits them back to back, and each then
// propagates on its own: they must arrive one transmission time apart,
// not one transmission plus one propagation latency. Run with
// GOEXPERIMENT=synctest.
func TestLinkPipelinesFramesInVirtualTime(t *testing.T) {
	const (
		latency      = time.Millisecond
		size         = 1000
		bandwidth    = 1e6 // bytes/s: one frame transmits in 1 ms
		transmission = time.Millisecond
	)
	simtest.Run(t, func() {
		n := NewNetwork(Config{Latency: latency, Bandwidth: bandwidth, TimeScale: 1})
		defer n.Close()
		a, errA := n.Register("a")
		b, errB := n.Register("b")
		if errA != nil || errB != nil {
			t.Errorf("register: %v, %v", errA, errB)
			return
		}
		arrived := make(chan time.Time, 2)
		b.Handle("frame", func(context.Context, string, any) (any, int, error) {
			arrived <- time.Now()
			return nil, 0, nil
		})
		sent := time.Now()
		for range 2 {
			if err := a.Send("b", "frame", nil, size); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
		for i, want := range []time.Duration{transmission + latency, 2*transmission + latency} {
			if got := (<-arrived).Sub(sent); got != want {
				t.Errorf("frame %d arrived %v after the send, want %v", i, got, want)
			}
		}
	})
}
