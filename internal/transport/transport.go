// Package transport connects the nodes of the emulated cluster. The
// in-memory implementation models the paper's testbed network (1 Gbps
// Ethernet, sub-millisecond RTT): every directed link has a base latency
// and serializes messages at the configured bandwidth, preserving
// per-link FIFO order; each link's pump hands its frames straight to the
// destination endpoint, which runs a request's handler on a worker. The
// same node code also runs over TCP via the tcp.go implementation for
// real multi-process deployments.
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

// Errors returned by transport operations.
var (
	ErrUnknownNode = errors.New("transport: unknown node")
	ErrClosed      = errors.New("transport: closed")
	ErrLinkDown    = errors.New("transport: link down")
	ErrNoHandler   = errors.New("transport: no handler for message kind")
)

// Handler processes an incoming message and optionally returns a reply
// payload with its modeled wire size.
type Handler func(ctx context.Context, from string, payload any) (resp any, respSize int, err error)

// Endpoint is one node's attachment to a network. Implementations:
// *MemEndpoint (in-memory emulation) and *TCPEndpoint (real sockets).
type Endpoint interface {
	// ID returns the node identifier this endpoint is registered under.
	ID() string
	// Handle registers the handler for a message kind. Handlers must be
	// registered before traffic arrives; registration is not
	// synchronized with dispatch.
	Handle(kind string, h Handler)
	// Send delivers a one-way message. size is the modeled wire size in
	// bytes (used by the bandwidth model).
	Send(to, kind string, payload any, size int) error
	// Call performs a request/response exchange.
	Call(ctx context.Context, to, kind string, payload any, size int) (any, error)
	// CallWithin is Call bounded by timeout as well as by ctx: once the
	// timeout passes it returns context.DeadlineExceeded, the error a
	// context deadline would give. A non-positive timeout adds no bound,
	// so Call is CallWithin with timeout 0.
	CallWithin(ctx context.Context, timeout time.Duration, to, kind string, payload any, size int) (any, error)
	// Close detaches the endpoint; pending calls fail.
	Close() error
}

// message is the in-memory wire unit.
type message struct {
	from, to string
	kind     string
	corr     uint64
	isReply  bool
	payload  any
	size     int
	errText  string
	// latency is this message's sampled one-way propagation latency
	// (modeled time), resolved from the LinkSet at send time so a link
	// change mid-flight never affects already-departed messages.
	latency time.Duration
	// sentAt is the send instant: the earliest the link can start
	// transmitting the frame, however late its pump gets to it.
	sentAt time.Time
}

// Config parameterizes the emulated network.
type Config struct {
	// Latency is the one-way base latency per link (modeled time).
	Latency time.Duration
	// Bandwidth is bytes/second per directed link; 0 disables the
	// serialization model.
	Bandwidth float64
	// TimeScale compresses modeled delays into wall time (see
	// costmodel.Model.TimeScale).
	TimeScale float64
}

// Network is the in-memory emulated cluster network.
type Network struct {
	cfg Config

	mu    sync.RWMutex
	nodes map[string]*MemEndpoint
	links map[linkKey]*link

	// linkset holds the per-directed-link property matrix (latency,
	// jitter, loss, partitions). It seeds from Config.Latency and is
	// mutable at runtime.
	linkset *LinkSet

	closed atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// NewNetwork creates an emulated network.
func NewNetwork(cfg Config) *Network {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	return &Network{
		cfg:     cfg,
		nodes:   make(map[string]*MemEndpoint),
		links:   make(map[linkKey]*link),
		linkset: NewLinkSet(LinkProps{Latency: cfg.Latency}),
		done:    make(chan struct{}),
	}
}

// Links returns the network's runtime link-property matrix. Values are
// modeled time (scaled by Config.TimeScale on delivery).
func (n *Network) Links() *LinkSet { return n.linkset }

// link serializes messages of one directed link in FIFO order with the
// configured latency and bandwidth.
type link struct {
	ch chan message
}

// Register attaches a new endpoint under the given node ID.
func (n *Network) Register(id string) (*MemEndpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return nil, ErrClosed
	}
	if _, ok := n.nodes[id]; ok {
		return nil, fmt.Errorf("transport: duplicate node %q", id)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ep := &MemEndpoint{
		id:       id,
		net:      n,
		handlers: make(map[string]Handler),
		pending:  make(map[uint64]chan message),
		ctx:      ctx,
		cancel:   cancel,
	}
	n.nodes[id] = ep
	return ep, nil
}

// Deregister closes a node's endpoint and releases its ID so a
// restarted node can Register under the same name. In-flight messages
// to the old endpoint are dropped; messages sent after the new
// registration reach the new endpoint (links resolve their destination
// per message, not at creation).
func (n *Network) Deregister(id string) {
	n.mu.Lock()
	ep, ok := n.nodes[id]
	delete(n.nodes, id)
	n.mu.Unlock()
	if ok {
		_ = ep.Close()
	}
}

// Close shuts the network down and waits for its link pumps and every
// endpoint's handler workers to exit.
func (n *Network) Close() {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	close(n.done)
	n.mu.Lock()
	eps := make([]*MemEndpoint, 0, len(n.nodes))
	for _, ep := range n.nodes {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	n.wg.Wait()
}

// deliver routes a message onto the appropriate link, creating the link
// pump lazily.
func (n *Network) deliver(msg message) error {
	if n.closed.Load() {
		return ErrClosed
	}
	n.mu.RLock()
	if _, ok := n.nodes[msg.to]; !ok {
		n.mu.RUnlock()
		return fmt.Errorf("%w: %q", ErrUnknownNode, msg.to)
	}
	lk := linkKey{msg.from, msg.to}
	l, ok := n.links[lk]
	n.mu.RUnlock()

	// Resolve this message's link fate now. Call frames (corr != 0)
	// ride a retransmitting stream: a severed link (a cut, or a down
	// node's isolation) fails them fast, the connection reset a real
	// RPC would see, and a loss roll surfaces as an RTO-sized latency
	// spike rather than a hung call. Only one-way sends are eaten
	// silently by the wire; those paths (gossip pushes, event streams)
	// are built to tolerate loss.
	if n.linkset.Severed(msg.from, msg.to) {
		if msg.corr != 0 {
			return fmt.Errorf("%w: %s -> %s", ErrLinkDown, msg.from, msg.to)
		}
		return nil
	}
	delay, lost := n.linkset.Sample(msg.from, msg.to)
	if lost {
		if msg.corr == 0 {
			return nil
		}
		delay += RetransmitDelay
	}
	msg.latency = delay
	msg.sentAt = time.Now()

	if !ok {
		n.mu.Lock()
		l, ok = n.links[lk]
		if !ok {
			l = &link{ch: make(chan message, 4096)}
			n.links[lk] = l
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.pumpLink(l)
			}()
		}
		n.mu.Unlock()
	}

	select {
	case l.ch <- msg:
		return nil
	default:
		return fmt.Errorf("transport: link %s -> %s congested", msg.from, msg.to)
	}
}

// pumpLink delivers a link's messages in order. Delivery times come
// from a transmission ledger (busyUntil), not from per-message sleeps:
// a frame's transmission starts at its send instant or when the link
// finishes the frame before it, whichever is later, and serializes at
// the configured bandwidth; propagation latency adds on top, and the
// pump sleeps only until the computed delivery instant. Neither a
// frame's propagation nor host-timer overshoot therefore delays the
// frames behind it — messages behind schedule are delivered in a burst
// without sleeping, preserving FIFO order.
//
// The destination endpoint is resolved per message rather than captured
// at link creation, so a Deregister + Register cycle (peer restart)
// transparently redirects the link to the new endpoint.
func (n *Network) pumpLink(l *link) {
	var busyUntil time.Time
	for {
		var msg message
		select {
		case msg = <-l.ch:
		case <-n.done:
			return
		}
		start := busyUntil
		if start.Before(msg.sentAt) {
			start = msg.sentAt
		}
		var transmission time.Duration
		if n.cfg.Bandwidth > 0 && msg.size > 0 {
			transmission = time.Duration(float64(msg.size) / n.cfg.Bandwidth * float64(time.Second) * n.cfg.TimeScale)
		}
		busyUntil = start.Add(transmission)
		deliverAt := busyUntil.Add(time.Duration(float64(msg.latency) * n.cfg.TimeScale))
		if sleep := time.Until(deliverAt); sleep > 0 {
			// Close does not wait out a frame in flight: nothing is
			// delivered after it anyway.
			timer := simcpu.GetTimer(sleep)
			select {
			case <-timer.C:
				simcpu.PutTimer(timer)
			case <-n.done:
				stopTimer(timer)
				return
			}
		}
		if n.closed.Load() {
			return
		}
		n.mu.RLock()
		dst := n.nodes[msg.to]
		n.mu.RUnlock()
		if dst == nil || n.linkset.Severed(msg.from, msg.to) {
			// Dropped on the floor like a real crash or cut wire —
			// but a call frame must not strand its caller forever.
			n.failCall(msg)
			continue
		}
		dst.dispatch(msg)
	}
}

// failCall completes the pending Call attached to a dropped call frame
// with ErrLinkDown, bypassing the (dead) link — the fail-fast a real
// RPC client gets from a connection reset or deadline. One-way frames
// are ignored.
func (n *Network) failCall(msg message) {
	if msg.corr == 0 {
		return
	}
	waiter := msg.from // a dropped request strands its sender ...
	if msg.isReply {
		waiter = msg.to // ... a dropped reply strands its receiver
	}
	n.mu.RLock()
	ep := n.nodes[waiter]
	n.mu.RUnlock()
	if ep != nil {
		ep.complete(message{corr: msg.corr, isReply: true, errText: ErrLinkDown.Error()})
	}
}

// maxIdleWorkers caps the handler workers an endpoint keeps parked
// between requests. It bounds only the cache, never concurrency: a
// request that finds no parked worker starts a new one.
const maxIdleWorkers = 64

// job is one inbound request handed to a handler worker.
type job struct {
	h   Handler
	msg message
}

// MemEndpoint is the in-memory Endpoint implementation.
type MemEndpoint struct {
	id  string
	net *Network

	ctx    context.Context
	cancel context.CancelFunc

	handlersMu sync.RWMutex
	handlers   map[string]Handler

	// pendingMu guards pending and the free list of reply channels, and
	// every send into a pending channel happens under it after the
	// lookup. Once Call deletes its entry no sender can reach the
	// channel, so a recycled channel is always empty.
	pendingMu sync.Mutex
	pending   map[uint64]chan message
	free      []chan message
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

var _ Endpoint = (*MemEndpoint)(nil)

// ID returns the endpoint's node identifier.
func (e *MemEndpoint) ID() string { return e.id }

// Handle registers a message handler for the given kind.
func (e *MemEndpoint) Handle(kind string, h Handler) {
	e.handlersMu.Lock()
	defer e.handlersMu.Unlock()
	e.handlers[kind] = h
}

// Send delivers a one-way message; delivery is asynchronous.
func (e *MemEndpoint) Send(to, kind string, payload any, size int) error {
	if e.closed.Load() {
		return ErrClosed
	}
	return e.net.deliver(message{from: e.id, to: to, kind: kind, payload: payload, size: size})
}

// Call sends a request and waits for the matching reply or ctx expiry.
func (e *MemEndpoint) Call(ctx context.Context, to, kind string, payload any, size int) (any, error) {
	return e.CallWithin(ctx, 0, to, kind, payload, size)
}

// CallWithin sends a request and waits for the matching reply, ctx
// expiry, or the timeout, whichever comes first. The timeout runs on a
// pooled timer, so a bounded call costs no context and no timer
// allocation once the pool is warm.
func (e *MemEndpoint) CallWithin(ctx context.Context, timeout time.Duration, to, kind string, payload any, size int) (any, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	corr := e.corr.Add(1)
	e.pendingMu.Lock()
	var ch chan message
	if n := len(e.free); n > 0 {
		ch = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ch = make(chan message, 1)
	}
	e.pending[corr] = ch
	e.pendingMu.Unlock()
	defer func() {
		e.pendingMu.Lock()
		delete(e.pending, corr)
		select { // a reply that raced a timeout or close
		case <-ch:
		default:
		}
		e.free = append(e.free, ch)
		e.pendingMu.Unlock()
	}()

	err := e.net.deliver(message{from: e.id, to: to, kind: kind, corr: corr, payload: payload, size: size})
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
		if reply.errText != "" {
			return nil, errors.New(reply.errText)
		}
		return reply.payload, nil
	case <-expired:
		simcpu.PutTimer(timer) // fired and received: nothing left to deliver
		return nil, context.DeadlineExceeded
	case <-ctx.Done():
		stopTimer(timer)
		return nil, ctx.Err()
	case <-e.ctx.Done():
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

// Close detaches the endpoint and waits for its handler workers, parked
// and running.
func (e *MemEndpoint) Close() error {
	// Flip closed under closeMu so dispatch either observes the
	// close before starting a worker, or its hwg.Add happens strictly
	// before this Wait. No worker parks once closed is set, so the idle
	// list taken here is the last one.
	e.closeMu.Lock()
	swapped := e.closed.CompareAndSwap(false, true)
	idle := e.idle
	e.idle = nil
	e.closeMu.Unlock()
	if !swapped {
		return nil
	}
	e.cancel()
	for _, jobs := range idle {
		close(jobs)
	}
	e.hwg.Wait()
	return nil
}

// complete hands a reply frame to the pending Call it answers, if that
// call still waits. The send happens under pendingMu after the lookup,
// and never blocks: a second frame for the same call is dropped.
func (e *MemEndpoint) complete(reply message) {
	e.pendingMu.Lock()
	if ch, ok := e.pending[reply.corr]; ok {
		select {
		case ch <- reply:
		default:
		}
	}
	e.pendingMu.Unlock()
}

// dispatch hands one delivered frame to the endpoint: a reply completes
// its pending call, and a request goes to the most recently parked
// worker, or to a new one if none is idle, so handler concurrency is
// unbounded and handler start order is not the delivery order. A request
// that reaches a closed endpoint fails its caller, as a crashed process
// would.
func (e *MemEndpoint) dispatch(msg message) {
	if msg.isReply {
		e.complete(msg)
		return
	}
	e.handlersMu.RLock()
	h, ok := e.handlers[msg.kind]
	e.handlersMu.RUnlock()
	if !ok {
		if msg.corr != 0 {
			e.reply(msg, nil, 0, fmt.Errorf("%w: %s", ErrNoHandler, msg.kind))
		}
		return
	}
	e.closeMu.Lock()
	if e.closed.Load() {
		e.closeMu.Unlock()
		e.net.failCall(msg)
		return
	}
	if n := len(e.idle); n > 0 {
		jobs := e.idle[n-1]
		e.idle = e.idle[:n-1]
		e.closeMu.Unlock()
		jobs <- job{h: h, msg: msg} // a parked worker's channel is empty
		return
	}
	e.hwg.Add(1)
	e.closeMu.Unlock()
	jobs := make(chan job, 1)
	jobs <- job{h: h, msg: msg}
	go e.work(jobs)
}

// work runs one handler worker: it serves its job, then parks on its
// channel for the next one, until the idle cache is full or the endpoint
// closes.
func (e *MemEndpoint) work(jobs chan job) {
	defer e.hwg.Done()
	for j := range jobs {
		resp, respSize, err := j.h(e.ctx, j.msg.from, j.msg.payload)
		if j.msg.corr != 0 {
			e.reply(j.msg, resp, respSize, err)
		}
		if !e.park(jobs) {
			return
		}
	}
}

// park pushes an idle worker's job channel onto the cache. It reports
// false, and the worker exits, if the cache is full or the endpoint has
// closed.
func (e *MemEndpoint) park(jobs chan job) bool {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.closed.Load() || len(e.idle) >= maxIdleWorkers {
		return false
	}
	e.idle = append(e.idle, jobs)
	return true
}

func (e *MemEndpoint) reply(req message, payload any, size int, err error) {
	reply := message{
		from:    e.id,
		to:      req.from,
		kind:    req.kind,
		corr:    req.corr,
		isReply: true,
		payload: payload,
		size:    size,
	}
	if err != nil {
		reply.errText = err.Error()
	}
	if derr := e.net.deliver(reply); derr != nil {
		// The reply could not leave this node (severed link, unknown
		// or congested destination): fail the waiting caller instead of
		// stranding it — the error a real RPC client sees when its
		// server's connection resets mid-call.
		e.net.failCall(reply)
	}
}
