package transport

import (
	"bufio"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// RegisterWireType registers a payload type for TCP (gob) transport.
// Call once per concrete payload type before any traffic flows; the
// in-memory transport needs no registration.
func RegisterWireType(v any) { gob.Register(v) }

// wireMessage is the gob frame exchanged between TCP endpoints.
type wireMessage struct {
	From    string
	Kind    string
	Corr    uint64
	IsReply bool
	ErrText string
	Payload any
}

// TCPNetwork is a registry of TCP endpoints within one process. It
// implements the same Register-based wiring as the in-memory Network so
// fabnet can build on either.
type TCPNetwork struct {
	mu    sync.Mutex
	addrs map[string]string
	nodes []*TCPEndpoint

	// links carries the runtime link-property matrix. Unlike the
	// in-memory network there is no time scale: latency and jitter are
	// wall-clock delays injected before the write, and losses/cuts
	// silently discard the frame before it hits the socket.
	links *LinkSet
}

// NewTCPNetwork creates an empty registry.
func NewTCPNetwork() *TCPNetwork {
	return &TCPNetwork{
		addrs: make(map[string]string),
		links: NewLinkSet(LinkProps{}),
	}
}

// Links returns the registry's runtime link-property matrix. Values are
// wall-clock time.
func (n *TCPNetwork) Links() *LinkSet { return n.links }

// Register creates an endpoint listening on a loopback port and records
// its address in the registry.
func (n *TCPNetwork) Register(id string) (*TCPEndpoint, error) {
	ep, err := ListenTCP(id, "127.0.0.1:0", n)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.addrs[id] = ep.Addr()
	n.nodes = append(n.nodes, ep)
	n.mu.Unlock()
	return ep, nil
}

// Deregister closes the named node's endpoint and drops its address so
// the ID can be registered again (peer crash + restart). Connections
// other nodes cached to the old endpoint die with its sockets; their
// next write fails once, and the retry redials the re-registered
// address.
func (n *TCPNetwork) Deregister(id string) {
	n.mu.Lock()
	var victim *TCPEndpoint
	keep := n.nodes[:0]
	for _, ep := range n.nodes {
		if ep.ID() == id && victim == nil {
			victim = ep
			continue
		}
		keep = append(keep, ep)
	}
	n.nodes = keep
	delete(n.addrs, id)
	n.mu.Unlock()
	if victim != nil {
		_ = victim.Close()
	}
}

// lookup resolves a node ID to an address.
func (n *TCPNetwork) lookup(id string) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr, ok := n.addrs[id]
	return addr, ok
}

// Close shuts down every endpoint registered through this registry.
func (n *TCPNetwork) Close() {
	n.mu.Lock()
	nodes := append([]*TCPEndpoint(nil), n.nodes...)
	n.mu.Unlock()
	for _, ep := range nodes {
		_ = ep.Close()
	}
}

// TCPEndpoint is the Endpoint implementation over real sockets.
type TCPEndpoint struct {
	id  string
	reg *TCPNetwork
	ln  net.Listener

	handlersMu sync.RWMutex
	handlers   map[string]Handler

	connsMu sync.Mutex
	conns   map[string]*tcpConn
	// sockets tracks every live net.Conn (inbound and outbound) so
	// Close can unblock their read loops.
	sockets map[net.Conn]struct{}

	pendingMu sync.Mutex
	pending   map[uint64]chan wireMessage
	corr      atomic.Uint64

	closed atomic.Bool
	// done is closed by Close, failing every pending Call with ErrClosed.
	done chan struct{}
	wg   sync.WaitGroup
}

var _ Endpoint = (*TCPEndpoint)(nil)

// tcpConn is one outgoing connection with a gob encoder.
type tcpConn struct {
	mu  sync.Mutex
	c   net.Conn
	enc *gob.Encoder
	bw  *bufio.Writer
}

// ListenTCP creates an endpoint bound to addr, resolving peers through
// the registry.
func ListenTCP(id, addr string, reg *TCPNetwork) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	e := &TCPEndpoint{
		id:       id,
		reg:      reg,
		ln:       ln,
		handlers: make(map[string]Handler),
		conns:    make(map[string]*tcpConn),
		sockets:  make(map[net.Conn]struct{}),
		pending:  make(map[uint64]chan wireMessage),
		done:     make(chan struct{}),
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.acceptLoop()
	}()
	return e, nil
}

// ID returns the endpoint's node identifier.
func (e *TCPEndpoint) ID() string { return e.id }

// Addr returns the bound listen address.
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// Handle registers a message handler.
func (e *TCPEndpoint) Handle(kind string, h Handler) {
	e.handlersMu.Lock()
	defer e.handlersMu.Unlock()
	e.handlers[kind] = h
}

// Send delivers a one-way message. The size argument is ignored: real
// sockets provide real transmission delay.
func (e *TCPEndpoint) Send(to, kind string, payload any, _ int) error {
	return e.write(to, wireMessage{From: e.id, Kind: kind, Payload: payload})
}

// Call performs a request/response exchange.
func (e *TCPEndpoint) Call(ctx context.Context, to, kind string, payload any, size int) (any, error) {
	return e.CallWithin(ctx, 0, to, kind, payload, size)
}

// CallWithin is Call bounded by timeout as well. TCP calls are off the
// hot path, so the bound is a context deadline.
func (e *TCPEndpoint) CallWithin(ctx context.Context, timeout time.Duration, to, kind string, payload any, _ int) (any, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if e.closed.Load() {
		return nil, ErrClosed
	}
	corr := e.corr.Add(1)
	ch := make(chan wireMessage, 1)
	e.pendingMu.Lock()
	e.pending[corr] = ch
	e.pendingMu.Unlock()
	defer func() {
		e.pendingMu.Lock()
		delete(e.pending, corr)
		e.pendingMu.Unlock()
	}()

	if err := e.write(to, wireMessage{From: e.id, Kind: kind, Corr: corr, Payload: payload}); err != nil {
		return nil, err
	}
	select {
	case reply := <-ch:
		if reply.ErrText != "" {
			return nil, errors.New(reply.ErrText)
		}
		return reply.Payload, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-e.done:
		return nil, ErrClosed
	}
}

// Close shuts the listener and all connections down, and fails pending
// calls with ErrClosed.
func (e *TCPEndpoint) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(e.done)
	_ = e.ln.Close()
	e.connsMu.Lock()
	for s := range e.sockets {
		_ = s.Close()
	}
	e.sockets = make(map[net.Conn]struct{})
	e.conns = make(map[string]*tcpConn)
	e.connsMu.Unlock()
	e.wg.Wait()
	return nil
}

// trackSocket records a live socket; returns false if already closed.
func (e *TCPEndpoint) trackSocket(c net.Conn) bool {
	e.connsMu.Lock()
	defer e.connsMu.Unlock()
	if e.closed.Load() {
		return false
	}
	e.sockets[c] = struct{}{}
	return true
}

func (e *TCPEndpoint) untrackSocket(c net.Conn) {
	e.connsMu.Lock()
	defer e.connsMu.Unlock()
	delete(e.sockets, c)
}

// write sends one frame to a peer. A cached connection to a peer that
// restarted (Deregister + Register) is only discovered dead on first
// use: that write fails, drops the cache entry, and the single retry
// redials the freshly registered address — without it, replies routed
// by node ID (readLoop's e.write(msg.From, ...)) would be silently
// lost across a peer restart and the caller's Call would hang.
func (e *TCPEndpoint) write(to string, msg wireMessage) error {
	// Consult the link matrix first. One-way frames on a cut or lossy
	// link are eaten silently, exactly like a lossy wire. Call frames
	// instead fail fast on a severed link (the connection reset a real
	// RPC sees) and pay an RTO-sized delay on a loss roll, so no
	// caller is ever stranded. Latency/jitter delay the sender inline;
	// wall-clock, TCP has no time scale.
	if e.reg != nil && e.reg.links != nil {
		if e.reg.links.Severed(e.id, to) {
			switch {
			case msg.IsReply:
				// Cut after the request got through: turn the reply
				// into the reset notification the caller would see.
				msg = wireMessage{From: e.id, Kind: msg.Kind, Corr: msg.Corr, IsReply: true, ErrText: ErrLinkDown.Error()}
			case msg.Corr != 0:
				return fmt.Errorf("%w: %s -> %s", ErrLinkDown, e.id, to)
			default:
				return nil
			}
		} else {
			delay, lost := e.reg.links.Sample(e.id, to)
			if lost {
				if msg.Corr == 0 {
					return nil
				}
				delay += RetransmitDelay
			}
			if delay > 0 {
				time.Sleep(delay)
			}
		}
	}
	if err := e.writeOnce(to, msg); err == nil || e.closed.Load() {
		return err
	}
	return e.writeOnce(to, msg)
}

// writeOnce sends one frame on the (cached) connection to a peer.
func (e *TCPEndpoint) writeOnce(to string, msg wireMessage) error {
	if e.closed.Load() {
		return ErrClosed
	}
	conn, err := e.connTo(to)
	if err != nil {
		return err
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if err := conn.enc.Encode(&msg); err != nil {
		e.dropConn(to, conn)
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	if err := conn.bw.Flush(); err != nil {
		e.dropConn(to, conn)
		return fmt.Errorf("transport: flush to %s: %w", to, err)
	}
	return nil
}

func (e *TCPEndpoint) dropConn(to string, conn *tcpConn) {
	_ = conn.c.Close()
	e.connsMu.Lock()
	if e.conns[to] == conn {
		delete(e.conns, to)
	}
	e.connsMu.Unlock()
}

// connTo returns a cached or fresh connection to a peer.
func (e *TCPEndpoint) connTo(to string) (*tcpConn, error) {
	e.connsMu.Lock()
	if c, ok := e.conns[to]; ok {
		e.connsMu.Unlock()
		return c, nil
	}
	e.connsMu.Unlock()

	addr, ok := e.reg.lookup(to)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s (%s): %w", to, addr, err)
	}
	bw := bufio.NewWriter(raw)
	conn := &tcpConn{c: raw, enc: gob.NewEncoder(bw), bw: bw}

	e.connsMu.Lock()
	if existing, ok := e.conns[to]; ok {
		e.connsMu.Unlock()
		_ = raw.Close()
		return existing, nil
	}
	e.conns[to] = conn
	e.connsMu.Unlock()

	// Replies and server-initiated frames from that peer arrive on the
	// same socket; pump them like an accepted connection.
	if !e.trackSocket(raw) {
		_ = raw.Close()
		return nil, ErrClosed
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer e.untrackSocket(raw)
		e.readLoop(raw)
		// The peer hung up (it closed, or restarted under a new
		// address). Evict the cached connection NOW rather than on the
		// next write: a write into a half-closed socket succeeds
		// locally and the frame is silently lost, so lazy eviction
		// would drop exactly one message per peer restart.
		e.dropConn(to, conn)
	}()
	return conn, nil
}

// acceptLoop pumps inbound connections.
func (e *TCPEndpoint) acceptLoop() {
	for {
		raw, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !e.trackSocket(raw) {
			_ = raw.Close()
			return
		}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer e.untrackSocket(raw)
			e.readLoop(raw)
		}()
	}
}

// readLoop decodes frames from one socket and dispatches them.
func (e *TCPEndpoint) readLoop(raw net.Conn) {
	dec := gob.NewDecoder(bufio.NewReader(raw))
	for {
		var msg wireMessage
		if err := dec.Decode(&msg); err != nil {
			return
		}
		if msg.IsReply {
			e.pendingMu.Lock()
			ch, ok := e.pending[msg.Corr]
			e.pendingMu.Unlock()
			if ok {
				select {
				case ch <- msg:
				default:
				}
			}
			continue
		}
		e.handlersMu.RLock()
		h, ok := e.handlers[msg.Kind]
		e.handlersMu.RUnlock()
		if !ok {
			if msg.Corr != 0 {
				_ = e.write(msg.From, wireMessage{
					From: e.id, Kind: msg.Kind, Corr: msg.Corr, IsReply: true,
					ErrText: fmt.Sprintf("%v: %s", ErrNoHandler, msg.Kind),
				})
			}
			continue
		}
		e.wg.Add(1)
		go func(msg wireMessage) {
			defer e.wg.Done()
			resp, _, err := h(context.Background(), msg.From, msg.Payload)
			if msg.Corr == 0 {
				return
			}
			reply := wireMessage{From: e.id, Kind: msg.Kind, Corr: msg.Corr, IsReply: true, Payload: resp}
			if err != nil {
				reply.ErrText = err.Error()
				reply.Payload = nil
			}
			_ = e.write(msg.From, reply)
		}(msg)
	}
}
