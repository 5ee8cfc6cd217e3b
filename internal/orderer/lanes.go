package orderer

import (
	"context"
	"sync"
	"time"

	"fabricsim/internal/orderer/blockcutter"
)

// lanes is the lifecycle every consenter shares: the per-channel loops
// registered with add start once, on Start, and Stop cancels ctx once
// and returns after every loop has. Loops stop when ctx is done and make
// their calls under it, so Stop also ends a call in flight rather than
// waiting it out. A Stop that precedes Start starts nothing and leaves
// Start inert.
type lanes struct {
	ctx       context.Context
	cancel    context.CancelFunc
	loops     []func()
	wg        sync.WaitGroup
	startOnce sync.Once
	stopOnce  sync.Once
}

func newLanes() lanes {
	ctx, cancel := context.WithCancel(context.Background())
	return lanes{ctx: ctx, cancel: cancel}
}

// laneDepth is the buffer of each cut loop's input: a burst of
// broadcasts queues there while the loop cuts, and past it enqueue
// blocks the caller — backpressure — until the consenter stops or the
// caller's context ends.
const laneDepth = 8192

// add registers loops to run from Start until Stop.
func (l *lanes) add(loops ...func()) { l.loops = append(l.loops, loops...) }

// Start implements Consenter.
func (l *lanes) Start() error {
	l.startOnce.Do(func() {
		for _, loop := range l.loops {
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				loop()
			}()
		}
	})
	return nil
}

// Stop implements Consenter. It is safe without Start and from
// concurrent goroutines; every call returns once the loops have exited.
func (l *lanes) Stop() {
	l.stopOnce.Do(func() {
		l.startOnce.Do(func() {})
		l.cancel()
		l.wg.Wait()
	})
}

// enqueue hands env to a cut loop's input. It fails once the consenter
// stops or ctx ends, so a full input never blocks a caller forever.
func (l *lanes) enqueue(ctx context.Context, in chan<- []byte, env []byte) error {
	select {
	case in <- env:
		return nil
	case <-l.ctx.Done():
		return ErrStopped
	case <-ctx.Done():
		return ctx.Err()
	}
}

// cutLoop is one channel's batch-timer loop, run by Solo and by Raft:
// it interleaves envelope arrival with the batch timeout, the two cut
// conditions of Section III, and hands every cut batch to sink — Solo
// emits it as a block, Raft proposes it to the channel's group. Kafka's
// chain loop times its batch the same way, but its timer posts a TTC
// marker to the partition instead of cutting, since every OSN must cut
// at the same record offset.
func (o *Orderer) cutLoop(in <-chan []byte, stop <-chan struct{}, sink func(batch [][]byte)) {
	cutter := blockcutter.New(o.cfg.Cutter)
	timeout := o.scaledTimeout()
	// A stopped timer delivers nothing, not even a tick from before
	// its Stop, so one timer serves every batch.
	timer := time.NewTimer(timeout)
	timer.Stop()
	defer timer.Stop()
	armed := false

	for {
		select {
		case env := <-in:
			batches, pending := cutter.Ordered(env, time.Time{})
			for _, b := range batches {
				sink(b)
			}
			switch {
			case pending && !armed:
				timer.Reset(timeout)
			case !pending:
				timer.Stop()
			}
			armed = pending
		case <-timer.C:
			armed = false
			if batch := cutter.Cut(); batch != nil {
				sink(batch)
			}
		case <-stop:
			return
		}
	}
}
