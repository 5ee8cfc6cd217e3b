package transport

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"
)

// RegisterWireType registers a payload type for TCP (gob) transport.
// Call once per concrete payload type before any traffic flows; the
// in-memory transport needs no registration.
func RegisterWireType(v any) { gob.Register(v) }

// TCPNetwork is a registry of TCP endpoints within one process. It
// implements the same Register-based wiring as the in-memory Network so
// fabnet can build on either.
type TCPNetwork struct {
	mu    sync.Mutex
	addrs map[string]string
	nodes []*TCPEndpoint

	// links carries the runtime link-property matrix. Unlike the
	// in-memory network there is no time scale: latency and jitter are
	// wall-clock delays the sender sleeps before the write.
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

// TCPEndpoint is the Endpoint implementation over real sockets. Its
// call core is the in-memory endpoint's; this file adds the sockets and
// the gob framing.
type TCPEndpoint struct {
	core
	reg *TCPNetwork
	ln  net.Listener

	connsMu sync.Mutex
	conns   map[string]*tcpConn
	// sockets tracks every live net.Conn (inbound and outbound) so
	// Close can unblock their read loops.
	sockets map[net.Conn]struct{}
	// wg counts the accept loop and the read loops.
	wg sync.WaitGroup
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
		reg:     reg,
		ln:      ln,
		conns:   make(map[string]*tcpConn),
		sockets: make(map[net.Conn]struct{}),
	}
	e.core = newCore(id, e)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.acceptLoop()
	}()
	return e, nil
}

// Addr returns the bound listen address.
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// Close shuts the listener and all connections down, fails pending calls
// with ErrClosed, and cancels and waits for running handlers.
func (e *TCPEndpoint) Close() error {
	e.shutdown(func() {
		_ = e.ln.Close()
		e.connsMu.Lock()
		for s := range e.sockets {
			_ = s.Close()
		}
		e.sockets = make(map[net.Conn]struct{})
		e.conns = make(map[string]*tcpConn)
		e.connsMu.Unlock()
	})
	e.wg.Wait()
	return nil
}

// trackSocket records a live socket and counts its read loop in wg; it
// returns false if the endpoint has closed. Close sets closed before it
// takes connsMu, so the wg.Add here never races its wg.Wait.
func (e *TCPEndpoint) trackSocket(c net.Conn) bool {
	e.connsMu.Lock()
	defer e.connsMu.Unlock()
	if e.closed.Load() {
		return false
	}
	e.sockets[c] = struct{}{}
	e.wg.Add(1)
	return true
}

func (e *TCPEndpoint) untrackSocket(c net.Conn) {
	e.connsMu.Lock()
	defer e.connsMu.Unlock()
	delete(e.sockets, c)
}

// send is the carrier's send: it applies the link's fate to the frame,
// sleeping its wall-clock delay, then writes it. A cached connection to a
// peer that restarted (Deregister + Register) is only discovered dead on
// first use: that write fails, drops the cache entry, and the single
// retry redials the freshly registered address — without it, replies
// routed by node ID would be silently lost across a peer restart and the
// caller's Call would hang.
func (e *TCPEndpoint) send(f frame) error {
	delay, drop, err := e.reg.links.fate(e.id, f.to, f.Corr != 0)
	switch {
	case err != nil && f.IsReply:
		// Cut after the request got through: turn the reply into the
		// reset notification the caller would see.
		f = frame{From: e.id, to: f.to, Kind: f.Kind, Corr: f.Corr, IsReply: true, ErrText: ErrLinkDown.Error()}
	case drop || err != nil:
		return err
	case delay > 0:
		time.Sleep(delay)
	}
	if err = e.writeOnce(f); err == nil || e.closed.Load() {
		return err
	}
	return e.writeOnce(f)
}

// refuse is the carrier's refuse. A TCP endpoint has no path to a caller
// whose frame it will not answer: that caller's deadline or context ends
// its call.
func (e *TCPEndpoint) refuse(frame) {}

// writeOnce sends one frame on the (cached) connection to a peer.
func (e *TCPEndpoint) writeOnce(f frame) error {
	if e.closed.Load() {
		return ErrClosed
	}
	conn, err := e.connTo(f.to)
	if err != nil {
		return err
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if err := conn.enc.Encode(&f); err != nil {
		e.dropConn(f.to, conn)
		return fmt.Errorf("transport: send to %s: %w", f.to, err)
	}
	if err := conn.bw.Flush(); err != nil {
		e.dropConn(f.to, conn)
		return fmt.Errorf("transport: flush to %s: %w", f.to, err)
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
		var f frame
		if err := dec.Decode(&f); err != nil {
			return
		}
		e.dispatch(f)
	}
}
