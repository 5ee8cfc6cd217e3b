// Package zookeeper is a from-scratch substrate reproducing the subset
// of Apache ZooKeeper the Kafka ordering service depends on: sessions
// with expiry and a hierarchical znode store with ephemeral nodes. The
// ensemble size is a
// model parameter: every write pays a quorum-commit latency that grows
// with the ensemble (the paper scales ZooKeeper from 3 to 7 nodes and
// observes no throughput effect, which this model reproduces because
// ZK is never on the transaction critical path).
package zookeeper

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Errors returned by znode operations.
var (
	ErrNodeExists     = errors.New("zookeeper: node exists")
	ErrNoNode         = errors.New("zookeeper: no node")
	ErrSessionExpired = errors.New("zookeeper: session expired")
)

// CreateFlag modifies znode creation.
type CreateFlag uint8

// FlagEphemeral ties the node's lifetime to the creating session.
const FlagEphemeral CreateFlag = 1

type znode struct {
	data  []byte
	owner int64 // session id for ephemerals, 0 otherwise
}

// Ensemble is the emulated ZooKeeper service.
type Ensemble struct {
	mu          sync.Mutex
	nodes       map[string]*znode
	sessions    map[int64]*Session
	nextSession int64

	ensembleSize int
	opLatency    time.Duration // scaled quorum-write latency
	closed       bool
}

// New creates an ensemble of the given size; opLatency is the
// wall-clock (already scaled) latency charged per write quorum round.
func New(ensembleSize int, opLatency time.Duration) *Ensemble {
	if ensembleSize < 1 {
		ensembleSize = 1
	}
	e := &Ensemble{
		nodes:        make(map[string]*znode),
		sessions:     make(map[int64]*Session),
		ensembleSize: ensembleSize,
		opLatency:    opLatency,
	}
	e.nodes["/"] = &znode{}
	return e
}

// writeDelay models one ZAB quorum commit: latency grows mildly with
// ensemble size (more followers to ack), matching the paper's finding
// that scaling ZK from 3 to 7 does not move throughput.
func (e *Ensemble) writeDelay() {
	if e.opLatency <= 0 {
		return
	}
	// log2-ish growth: 3 nodes -> 1.58x, 7 nodes -> 2.8x the base.
	factor := 1.0
	for n := e.ensembleSize; n > 1; n /= 2 {
		factor += 0.4
	}
	time.Sleep(time.Duration(float64(e.opLatency) * factor))
}

// Session is one client's connection to the ensemble.
type Session struct {
	ID       int64
	ens      *Ensemble
	timeout  time.Duration
	lastPing time.Time
	expired  bool
}

// Connect opens a session with the given expiry timeout (wall-clock).
// Sessions must be kept alive with Ping; an expired session releases its
// ephemeral nodes.
func (e *Ensemble) Connect(timeout time.Duration) *Session {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextSession++
	s := &Session{
		ID:       e.nextSession,
		ens:      e,
		timeout:  timeout,
		lastPing: time.Now(),
	}
	e.sessions[s.ID] = s
	return s
}

// Ping refreshes the session's liveness.
func (s *Session) Ping() error {
	s.ens.mu.Lock()
	defer s.ens.mu.Unlock()
	if s.expired {
		return ErrSessionExpired
	}
	s.lastPing = time.Now()
	return nil
}

// Close expires the session immediately, releasing ephemerals.
func (s *Session) Close() {
	s.ens.mu.Lock()
	defer s.ens.mu.Unlock()
	s.ens.expireLocked(s)
}

// ExpireStale expires every session that has not pinged within its
// timeout. The Kafka controller calls this periodically, standing in
// for ZooKeeper's own session tracker.
func (e *Ensemble) ExpireStale() {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := time.Now()
	for _, s := range e.sessions {
		if !s.expired && now.Sub(s.lastPing) > s.timeout {
			e.expireLocked(s)
		}
	}
}

func (e *Ensemble) expireLocked(s *Session) {
	if s.expired {
		return
	}
	s.expired = true
	delete(e.sessions, s.ID)
	for path, n := range e.nodes {
		if n.owner == s.ID {
			delete(e.nodes, path)
		}
	}
}

// Create makes a znode.
func (s *Session) Create(path string, data []byte, flags CreateFlag) error {
	s.ens.mu.Lock()
	defer s.ens.mu.Unlock()
	if s.expired {
		return ErrSessionExpired
	}
	if parent := parentPath(path); s.ens.nodes[parent] == nil {
		return fmt.Errorf("%w: parent %s", ErrNoNode, parent)
	}
	if _, exists := s.ens.nodes[path]; exists {
		return fmt.Errorf("%w: %s", ErrNodeExists, path)
	}
	n := &znode{data: append([]byte(nil), data...)}
	if flags&FlagEphemeral != 0 {
		n.owner = s.ID
	}
	s.ens.nodes[path] = n
	s.ens.writeDelay()
	return nil
}

// Set replaces a znode's data.
func (s *Session) Set(path string, data []byte) error {
	s.ens.mu.Lock()
	defer s.ens.mu.Unlock()
	if s.expired {
		return ErrSessionExpired
	}
	n, ok := s.ens.nodes[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoNode, path)
	}
	n.data = append([]byte(nil), data...)
	s.ens.writeDelay()
	return nil
}

// Exists reports whether a znode is present.
func (s *Session) Exists(path string) (bool, error) {
	s.ens.mu.Lock()
	defer s.ens.mu.Unlock()
	if s.expired {
		return false, ErrSessionExpired
	}
	_, ok := s.ens.nodes[path]
	return ok, nil
}

func parentPath(path string) string {
	idx := strings.LastIndexByte(path, '/')
	if idx <= 0 {
		return "/"
	}
	return path[:idx]
}
