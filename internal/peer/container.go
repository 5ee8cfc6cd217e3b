package peer

import (
	"context"
	"sync"
	"sync/atomic"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/simcpu"
)

// container emulates the Docker container Fabric launches per user
// chaincode: a one-time launch cost on first invocation, then per-
// invocation execution cost charged against the peer's CPU. System
// chaincodes (ESCC/VSCC) run in-process and are charged directly by the
// endorse/validate paths.
//
// Concurrent invocations are bounded by an executor pool sized to the
// peer's core count. The bound matters for scheduling fairness, not
// capacity: the simulated CPU is a FIFO reservation ledger, so letting
// every queued proposal reserve a core slot up front would push the
// committer's validate-phase work behind the entire endorse backlog —
// seconds of head-of-line blocking a real peer never exhibits, because
// its OS time-slices endorsement and validation fairly. Excess
// proposals instead wait in the container's request queue and only
// reserve CPU when an executor frees up, keeping the reservation
// horizon within one invocation of the present.
type container struct {
	model costmodel.Model
	cpu   *simcpu.CPU
	slots chan struct{}

	launchMu sync.Mutex
	launched atomic.Bool
}

func newContainer(model costmodel.Model, cpu *simcpu.CPU) *container {
	return &container{
		model: model,
		cpu:   cpu,
		slots: make(chan struct{}, cpu.Cores()),
	}
}

// launch charges the one-time container start; peers call it at startup
// (chaincode instantiation time), before any workload arrives. Only a
// launch that completed is remembered: one cut short by its context is
// tried again by the next caller.
func (c *container) launch(ctx context.Context) error {
	if c.launched.Load() {
		return nil
	}
	c.launchMu.Lock()
	defer c.launchMu.Unlock()
	if c.launched.Load() {
		return nil
	}
	if err := c.cpu.Execute(ctx, c.model.ContainerLaunch); err != nil {
		return err
	}
	c.launched.Store(true)
	return nil
}

// invoke charges one chaincode execution, launching the container first
// if the peer skipped explicit instantiation.
func (c *container) invoke(ctx context.Context, valueBytes int) error {
	if err := c.launch(ctx); err != nil {
		return err
	}
	select {
	case c.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-c.slots }()
	return c.cpu.Execute(ctx, c.model.ChaincodeCost(valueBytes))
}
