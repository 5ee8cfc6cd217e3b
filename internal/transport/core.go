package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fabricsim/internal/simcpu"
)

// frame is the unit both wires carry. gob encodes its exported header
// fields on TCP; the unexported ones are routing and the in-memory
// network's delivery state.
type frame struct {
	From    string
	Kind    string
	Corr    uint64 // nonzero on a call frame: a request or its reply
	IsReply bool
	ErrText string
	Payload any

	to   string
	size int
	// latency is this frame's sampled one-way propagation latency
	// (modeled time), resolved from the LinkSet at send time so a link
	// change mid-flight never affects already-departed frames.
	latency time.Duration
	// sentAt is the send instant: the earliest the link can start
	// transmitting the frame, however late its pump gets to it.
	sentAt time.Time
}

// carrier is what a wire gives the call core.
type carrier interface {
	// send puts a frame on the wire towards f.to.
	send(f frame) error
	// refuse fails the caller waiting on a call frame that will get no
	// reply (it was dropped, or reached a closed endpoint). One-way
	// frames are ignored.
	refuse(f frame)
}

// maxIdleWorkers caps the handler workers an endpoint keeps parked
// between requests. It bounds only the cache, never concurrency: a
// request that finds no parked worker starts a new one.
const maxIdleWorkers = 64

// job is one inbound request handed to a handler worker.
type job struct {
	h Handler
	f frame
}

// core is the part of an endpoint that does not depend on its wire:
// handlers, call correlation and the handler workers. MemEndpoint and
// TCPEndpoint embed it.
type core struct {
	id   string
	wire carrier

	// ctx is every handler's context; shutdown cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	handlersMu sync.RWMutex
	handlers   map[string]Handler

	// pendingMu guards pending and the free list of reply channels, and
	// every send into a pending channel happens under it after the
	// lookup. Once a call deletes its entry no sender can reach the
	// channel, so a recycled channel is always empty.
	pendingMu sync.Mutex
	pending   map[uint64]chan frame
	free      []chan frame
	corr      atomic.Uint64

	closed atomic.Bool
	// closeMu orders the closed transition against handler-worker
	// accounting: dispatch's hwg.Add and Close's hwg.Wait must not
	// race once the counter may be zero (sync.WaitGroup's reuse rule).
	// It also guards idle, the LIFO cache of parked workers' job
	// channels; hwg counts worker goroutines, parked ones included.
	closeMu sync.Mutex
	idle    []chan job
	hwg     sync.WaitGroup
}

func newCore(id string, wire carrier) core {
	ctx, cancel := context.WithCancel(context.Background())
	return core{
		id:       id,
		wire:     wire,
		ctx:      ctx,
		cancel:   cancel,
		handlers: make(map[string]Handler),
		pending:  make(map[uint64]chan frame),
	}
}

// ID returns the endpoint's node identifier.
func (c *core) ID() string { return c.id }

// Handle registers a message handler for the given kind.
func (c *core) Handle(kind string, h Handler) {
	c.handlersMu.Lock()
	defer c.handlersMu.Unlock()
	c.handlers[kind] = h
}

// Send delivers a one-way message. size is the modeled wire size; TCP
// ignores it, as real sockets provide real transmission delay.
func (c *core) Send(to, kind string, payload any, size int) error {
	if c.closed.Load() {
		return ErrClosed
	}
	return c.wire.send(frame{From: c.id, to: to, Kind: kind, Payload: payload, size: size})
}

// Call sends a request and waits for the matching reply or ctx expiry.
func (c *core) Call(ctx context.Context, to, kind string, payload any, size int) (any, error) {
	return c.CallWithin(ctx, 0, to, kind, payload, size)
}

// CallWithin sends a request and waits for the matching reply, ctx
// expiry, or the timeout, whichever comes first. The timeout runs on a
// pooled timer, so a bounded call costs no context and no timer
// allocation once the pool is warm.
func (c *core) CallWithin(ctx context.Context, timeout time.Duration, to, kind string, payload any, size int) (any, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	corr := c.corr.Add(1)
	c.pendingMu.Lock()
	var ch chan frame
	if n := len(c.free); n > 0 {
		ch = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		ch = make(chan frame, 1)
	}
	c.pending[corr] = ch
	c.pendingMu.Unlock()
	defer func() {
		c.pendingMu.Lock()
		delete(c.pending, corr)
		select { // a reply that raced a timeout or close
		case <-ch:
		default:
		}
		c.free = append(c.free, ch)
		c.pendingMu.Unlock()
	}()

	err := c.wire.send(frame{From: c.id, to: to, Kind: kind, Corr: corr, Payload: payload, size: size})
	if err != nil {
		return nil, err
	}
	var timer *time.Timer
	var expired <-chan time.Time // nil, and never ready, without a timeout
	if timeout > 0 {
		timer = simcpu.GetTimer(timeout)
		expired = timer.C
	}
	select {
	case reply := <-ch:
		stopTimer(timer)
		if reply.ErrText != "" {
			return nil, errors.New(reply.ErrText)
		}
		return reply.Payload, nil
	case <-expired:
		simcpu.PutTimer(timer) // fired and received: nothing left to deliver
		return nil, context.DeadlineExceeded
	case <-ctx.Done():
		stopTimer(timer)
		return nil, ctx.Err()
	case <-c.ctx.Done():
		stopTimer(timer)
		return nil, ErrClosed
	}
}

// stopTimer stops a call's timer, if it has one, and pools it only when
// Stop proves it will deliver nothing: a timer that fired unreceived is
// dropped, or its tick would end a later call's wait early.
func stopTimer(t *time.Timer) {
	if t != nil && t.Stop() {
		simcpu.PutTimer(t)
	}
}

// shutdown closes the endpoint: calls fail with ErrClosed from here on,
// handlers see their context cancelled, and parked workers exit. It then
// runs halt, the wire's own teardown, if there is one, and waits for
// every handler worker. Only the first call does anything.
func (c *core) shutdown(halt func()) {
	// Flip closed under closeMu so dispatch either observes the close
	// before starting a worker, or its hwg.Add happens strictly before
	// the Wait below. No worker parks once closed is set, so the idle
	// list taken here is the last one.
	c.closeMu.Lock()
	first := c.closed.CompareAndSwap(false, true)
	idle := c.idle
	c.idle = nil
	c.closeMu.Unlock()
	if !first {
		return
	}
	c.cancel()
	for _, jobs := range idle {
		close(jobs)
	}
	if halt != nil {
		halt()
	}
	c.hwg.Wait()
}

// complete hands a reply frame to the pending call it answers, if that
// call still waits. The send happens under pendingMu after the lookup,
// and never blocks: a second frame for the same call is dropped.
func (c *core) complete(reply frame) {
	c.pendingMu.Lock()
	if ch, ok := c.pending[reply.Corr]; ok {
		select {
		case ch <- reply:
		default:
		}
	}
	c.pendingMu.Unlock()
}

// dispatch hands one delivered frame to the endpoint: a reply completes
// its pending call, and a request goes to the most recently parked
// worker, or to a new one if none is idle, so handler concurrency is
// unbounded and handler start order is not the delivery order. A request
// that reaches a closed endpoint is refused, as a crashed process's
// would be.
func (c *core) dispatch(f frame) {
	if f.IsReply {
		c.complete(f)
		return
	}
	c.handlersMu.RLock()
	h, ok := c.handlers[f.Kind]
	c.handlersMu.RUnlock()
	if !ok {
		if f.Corr != 0 {
			c.reply(f, nil, 0, fmt.Errorf("%w: %s", ErrNoHandler, f.Kind))
		}
		return
	}
	c.closeMu.Lock()
	if c.closed.Load() {
		c.closeMu.Unlock()
		c.wire.refuse(f)
		return
	}
	if n := len(c.idle); n > 0 {
		jobs := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.closeMu.Unlock()
		jobs <- job{h: h, f: f} // a parked worker's channel is empty
		return
	}
	c.hwg.Add(1)
	c.closeMu.Unlock()
	jobs := make(chan job, 1)
	jobs <- job{h: h, f: f}
	go c.work(jobs)
}

// work runs one handler worker: it serves its job, then parks on its
// channel for the next one, until the idle cache is full or the endpoint
// closes.
func (c *core) work(jobs chan job) {
	defer c.hwg.Done()
	for j := range jobs {
		resp, respSize, err := j.h(c.ctx, j.f.From, j.f.Payload)
		if j.f.Corr != 0 {
			c.reply(j.f, resp, respSize, err)
		}
		if !c.park(jobs) {
			return
		}
	}
}

// park pushes an idle worker's job channel onto the cache. It reports
// false, and the worker exits, if the cache is full or the endpoint has
// closed.
func (c *core) park(jobs chan job) bool {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	if c.closed.Load() || len(c.idle) >= maxIdleWorkers {
		return false
	}
	c.idle = append(c.idle, jobs)
	return true
}

// reply answers a request. A handler's error travels as text and drops
// its payload.
func (c *core) reply(req frame, payload any, size int, err error) {
	reply := frame{From: c.id, to: req.From, Kind: req.Kind, Corr: req.Corr, IsReply: true, Payload: payload, size: size}
	if err != nil {
		reply.ErrText = err.Error()
		reply.Payload = nil
	}
	if serr := c.wire.send(reply); serr != nil {
		// The reply could not leave this node (severed link, unknown
		// or congested destination): fail the waiting caller instead of
		// stranding it — the error a real RPC client sees when its
		// server's connection resets mid-call.
		c.wire.refuse(reply)
	}
}
