// Package transport connects the nodes of the emulated cluster over one
// of two wires. The in-memory network models the paper's testbed
// network (1 Gbps Ethernet, sub-millisecond RTT): every directed link has
// a base latency and serializes messages at the configured bandwidth,
// preserving per-link FIFO order, and each link's pump hands its frames
// straight to the destination endpoint. The TCP wire (tcp.go) runs the
// same node code over real sockets for multi-process deployments. Both
// wires share one call core (core.go): handlers, call correlation,
// pooled reply channels and timers, and the handler workers a request
// runs on. Closing an endpoint, on either wire, fails its pending calls
// with ErrClosed and cancels the context its running handlers got.
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
	// Close detaches the endpoint: pending calls fail with ErrClosed, and
	// the context its running handlers got is cancelled.
	Close() error
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

// link serializes frames of one directed link in FIFO order with the
// configured latency and bandwidth.
type link struct {
	ch chan frame
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
	ep := &MemEndpoint{core: newCore(id, n)}
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

// send routes a frame onto its directed link, creating the link's pump
// lazily. The link's fate for the frame is resolved now (see
// LinkSet.fate).
func (n *Network) send(f frame) error {
	if n.closed.Load() {
		return ErrClosed
	}
	n.mu.RLock()
	if _, ok := n.nodes[f.to]; !ok {
		n.mu.RUnlock()
		return fmt.Errorf("%w: %q", ErrUnknownNode, f.to)
	}
	lk := linkKey{f.From, f.to}
	l, ok := n.links[lk]
	n.mu.RUnlock()

	delay, drop, err := n.linkset.fate(f.From, f.to, f.Corr != 0)
	if drop || err != nil {
		return err
	}
	f.latency = delay
	f.sentAt = time.Now()

	if !ok {
		n.mu.Lock()
		l, ok = n.links[lk]
		if !ok {
			l = &link{ch: make(chan frame, 4096)}
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
	case l.ch <- f:
		return nil
	default:
		return fmt.Errorf("transport: link %s -> %s congested", f.From, f.to)
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
		var f frame
		select {
		case f = <-l.ch:
		case <-n.done:
			return
		}
		start := busyUntil
		if start.Before(f.sentAt) {
			start = f.sentAt
		}
		var transmission time.Duration
		if n.cfg.Bandwidth > 0 && f.size > 0 {
			transmission = time.Duration(float64(f.size) / n.cfg.Bandwidth * float64(time.Second) * n.cfg.TimeScale)
		}
		busyUntil = start.Add(transmission)
		deliverAt := busyUntil.Add(time.Duration(float64(f.latency) * n.cfg.TimeScale))
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
		dst := n.nodes[f.to]
		n.mu.RUnlock()
		if dst == nil || n.linkset.Severed(f.From, f.to) {
			// Dropped on the floor like a real crash or cut wire —
			// but a call frame must not strand its caller forever.
			n.refuse(f)
			continue
		}
		dst.dispatch(f)
	}
}

// refuse completes the pending call attached to a dropped call frame
// with ErrLinkDown, bypassing the (dead) link — the fail-fast a real RPC
// client gets from a connection reset or deadline. One-way frames are
// ignored.
func (n *Network) refuse(f frame) {
	if f.Corr == 0 {
		return
	}
	waiter := f.From // a dropped request strands its sender ...
	if f.IsReply {
		waiter = f.to // ... a dropped reply strands its receiver
	}
	n.mu.RLock()
	ep := n.nodes[waiter]
	n.mu.RUnlock()
	if ep != nil {
		ep.complete(frame{Corr: f.Corr, IsReply: true, ErrText: ErrLinkDown.Error()})
	}
}

// MemEndpoint is the in-memory Endpoint implementation. It owns no
// goroutine: frames reach it on its links' pumps.
type MemEndpoint struct {
	core
}

var _ Endpoint = (*MemEndpoint)(nil)

// Close detaches the endpoint and waits for its handler workers, parked
// and running.
func (e *MemEndpoint) Close() error {
	e.shutdown(nil)
	return nil
}
