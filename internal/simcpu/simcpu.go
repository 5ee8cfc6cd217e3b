// Package simcpu models a machine's CPU as a pool of cores on which
// calibrated costs execute, substituting for the paper's physical
// testbed machines. Work beyond the core count queues, so saturating a
// node shows the same queueing knees the paper measures.
//
// Implementation note: modeled costs are often far smaller than the
// host's timer granularity (~1ms), so the CPU does NOT sleep each cost
// individually. Instead it keeps a per-core "busy until" reservation
// ledger: Execute reserves the earliest-available core for the scaled
// duration and then sleeps once, until the reserved completion time.
// Capacity and queueing delay come from the ledger arithmetic and are
// therefore exact; the host timer's overshoot only adds bounded wall
// jitter to individual completions without throttling throughput.
package simcpu

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrStopped is returned by Execute after Stop.
var ErrStopped = errors.New("simcpu: stopped")

// CPU is a core-limited executor. All durations passed to Execute are
// multiplied by the scale factor, which compresses experiment wall-clock
// time without changing queueing behaviour.
type CPU struct {
	scale float64

	mu        sync.Mutex
	busyUntil []time.Time // per-core reservation ledger

	stopped   atomic.Bool
	busyNanos atomic.Int64 // total scaled-busy time across cores
	executed  atomic.Int64
	maxDelay  atomic.Int64 // high-watermark queueing delay (scaled ns)
}

// New creates a CPU with the given core count and time scale. A scale of
// 1.0 runs modeled costs in real time; 0.05 runs them 20x faster.
func New(cores int, scale float64) *CPU {
	if cores < 1 {
		cores = 1
	}
	if scale <= 0 {
		scale = 1
	}
	return &CPU{
		scale:     scale,
		busyUntil: make([]time.Time, cores),
	}
}

// Cores returns the core count.
func (c *CPU) Cores() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.busyUntil)
}

// SetCores resizes the core pool at runtime (chaos CPU throttling) and
// returns the previous count. Growing adds immediately-idle cores.
// Shrinking keeps the busiest reservations, so work already queued still
// serializes behind them — in-flight Execute sleeps are unaffected (a
// real machine would also finish instructions already issued).
func (c *CPU) SetCores(n int) int {
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := len(c.busyUntil)
	if n == prev {
		return prev
	}
	next := make([]time.Time, n)
	copy(next, c.busyUntil)
	if n < prev {
		sorted := append([]time.Time(nil), c.busyUntil...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].After(sorted[j]) })
		copy(next, sorted[:n])
	}
	c.busyUntil = next
	return prev
}

// Scale returns the time-scale factor.
func (c *CPU) Scale() float64 { return c.scale }

// Execute occupies one core for the scaled duration d, queueing behind
// earlier reservations if all cores are busy. It returns once the
// modeled work completes (or earlier with the context's error; the
// reservation is not released in that case, as a real CPU would also
// have burned the cycles).
func (c *CPU) Execute(ctx context.Context, d time.Duration) error {
	if c.stopped.Load() {
		return ErrStopped
	}
	if d <= 0 {
		return nil
	}
	scaled := time.Duration(float64(d) * c.scale)

	c.mu.Lock()
	now := time.Now()
	best := 0
	for i := 1; i < len(c.busyUntil); i++ {
		if c.busyUntil[i].Before(c.busyUntil[best]) {
			best = i
		}
	}
	start := c.busyUntil[best]
	if start.Before(now) {
		start = now
	}
	end := start.Add(scaled)
	c.busyUntil[best] = end
	c.mu.Unlock()

	c.busyNanos.Add(int64(scaled))
	c.executed.Add(1)
	if wait := start.Sub(now); wait > 0 {
		for {
			prev := c.maxDelay.Load()
			if int64(wait) <= prev || c.maxDelay.CompareAndSwap(prev, int64(wait)) {
				break
			}
		}
	}

	if err := Sleep(ctx, time.Until(end)); err != nil {
		return err
	}
	if c.stopped.Load() {
		return ErrStopped
	}
	return nil
}

// Sleep pauses for d, or until ctx is done, in which case it returns
// ctx.Err(). A non-positive d returns nil at once. It sleeps on a pooled
// timer, so a completed Sleep allocates nothing once the pool is warm.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	timer := GetTimer(d)
	var err error
	select {
	case <-timer.C:
	case <-ctx.Done():
		err = ctx.Err()
	}
	PutTimer(timer)
	return err
}

// timerPool holds stopped timers. Since Go 1.23 no receive after Stop or
// Reset returns a tick from before it, so a pooled timer rearms cleanly
// whether or not it fired.
var timerPool sync.Pool

// GetTimer returns a timer armed to fire after d, reusing a pooled one.
// Every bounded wait on a hot path takes its timer here instead of from
// time.After or a context deadline.
func GetTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// PutTimer stops a timer from GetTimer and returns it to the pool,
// whether it fired, was received from or neither.
func PutTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
}

// Stop makes subsequent Execute calls fail fast.
func (c *CPU) Stop() { c.stopped.Store(true) }

// Stats snapshots utilization counters.
type Stats struct {
	// BusyScaled is total core-busy time in scaled (wall) units.
	BusyScaled time.Duration
	// Executed is the number of completed Execute calls.
	Executed int64
	// MaxQueueDelay is the worst queueing delay observed (wall units).
	MaxQueueDelay time.Duration
}

// Stats returns a snapshot of the CPU's counters.
func (c *CPU) Stats() Stats {
	return Stats{
		BusyScaled:    time.Duration(c.busyNanos.Load()),
		Executed:      c.executed.Load(),
		MaxQueueDelay: time.Duration(c.maxDelay.Load()),
	}
}

// Utilization returns the fraction of capacity used over the elapsed
// wall-clock window: busy / (elapsed * cores). Values near 1.0 mean the
// simulated node is saturated.
func (c *CPU) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.busyNanos.Load()) / (float64(elapsed) * float64(c.Cores()))
}
