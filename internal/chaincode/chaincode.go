// Package chaincode implements the chaincode runtime: the invocation
// interface (stub) chaincodes program against, the simulator that
// records read-write sets during the execute phase, a container
// emulation standing in for Fabric's Docker isolation, and the sample
// chaincodes the experiments and examples use.
package chaincode

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"fabricsim/internal/statedb"
	"fabricsim/internal/types"
)

// Errors returned by the runtime.
var (
	ErrUnknownChaincode = errors.New("chaincode: not installed")
	ErrUnknownFunction  = errors.New("chaincode: unknown function")
)

// Stub is the API a chaincode uses to read and write ledger state.
// During endorsement the stub is backed by a Simulator that records the
// read-write set instead of mutating state.
type Stub interface {
	// TxID returns the invoking transaction's ID.
	TxID() types.TxID
	// GetState reads a key, observing the transaction's own prior
	// writes (read-your-writes) before committed state.
	GetState(key string) ([]byte, error)
	// PutState buffers a write.
	PutState(key string, value []byte) error
	// DelState buffers a deletion.
	DelState(key string) error
	// GetStateRange reads committed keys in [startKey, endKey).
	GetStateRange(startKey, endKey string) ([]statedb.KV, error)
}

// Chaincode is user application logic installed on peers.
type Chaincode interface {
	// Name returns the chaincode's installed name (its state namespace).
	Name() string
	// Invoke runs one function against the stub and returns an
	// application-level response payload. The payload is read-only: an
	// Invoke may return one slice to every caller.
	Invoke(stub Stub, fn string, args [][]byte) ([]byte, error)
}

// Simulator is the endorsement-time stub: reads come from the peer's
// committed world state (with versions recorded into the read set) and
// writes are buffered into the write set.
type Simulator struct {
	txID  types.TxID
	ns    string
	state statedb.Store

	// rwset.Writes is kept sorted by key, one entry per key, and doubles
	// as the read-your-writes buffer. rwset.Reads holds one entry per
	// key, in first-read order.
	rwset types.RWSet
	// firstWrite backs rwset.Writes while it holds one write, so a
	// one-write simulation allocates no write slice.
	firstWrite [1]types.KVWrite
}

var _ Stub = (*Simulator)(nil)

// MakeSimulator returns a simulator for one invocation of chaincode ns,
// as a value so a caller can embed it in an object of its own. Use it
// through a pointer and do not copy it once used: its write set may
// point into it.
func MakeSimulator(txID types.TxID, ns string, state statedb.Store) Simulator {
	return Simulator{txID: txID, ns: ns, state: state}
}

// TxID returns the simulated transaction's ID.
func (s *Simulator) TxID() types.TxID { return s.txID }

// findWrite returns the index of key in the sorted write set, or where
// it would be inserted, and whether it is present.
func (s *Simulator) findWrite(key string) (int, bool) {
	ws := s.rwset.Writes
	i := sort.Search(len(ws), func(i int) bool { return ws[i].Key >= key })
	return i, i < len(ws) && ws[i].Key == key
}

// GetState implements Stub.
func (s *Simulator) GetState(key string) ([]byte, error) {
	if i, ok := s.findWrite(key); ok {
		w := s.rwset.Writes[i]
		if w.IsDelete {
			return nil, nil
		}
		return append([]byte(nil), w.Value...), nil
	}
	// The zero-copy view keeps the allocation and copy out of the state
	// DB's read lock, which endorsement reads share with block commits.
	vv, exists, err := s.state.GetVersioned(s.ns, key)
	if err != nil {
		return nil, fmt.Errorf("chaincode %s get %q: %w", s.ns, key, err)
	}
	if s.firstRead(key) {
		read := types.KVRead{Key: key, Exists: exists}
		if exists {
			read.Version = vv.Version
		}
		s.rwset.Reads = append(s.rwset.Reads, read)
	}
	if !exists {
		return nil, nil
	}
	// The view aliases committed state; hand the (untrusted) chaincode a
	// private copy so no Invoke can scribble on the world state.
	return append([]byte(nil), vv.Value...), nil
}

// firstRead reports whether key is not yet in the read set, and makes
// the read set, with room for two reads, on the first. It scans the set,
// which is quadratic only for a chaincode that reads many keys; no
// sample chaincode does (SmallBank reads at most three), and
// GetStateRange, the one bulk reader, has no caller outside tests.
func (s *Simulator) firstRead(key string) bool {
	for i := range s.rwset.Reads {
		if s.rwset.Reads[i].Key == key {
			return false
		}
	}
	if s.rwset.Reads == nil {
		s.rwset.Reads = make([]types.KVRead, 0, 2)
	}
	return true
}

// PutState implements Stub.
func (s *Simulator) PutState(key string, value []byte) error {
	s.setWrite(types.KVWrite{Key: key, Value: append([]byte(nil), value...)})
	return nil
}

// DelState implements Stub.
func (s *Simulator) DelState(key string) error {
	s.setWrite(types.KVWrite{Key: key, IsDelete: true})
	return nil
}

// setWrite replaces key's buffered write or inserts it in key order.
func (s *Simulator) setWrite(w types.KVWrite) {
	i, ok := s.findWrite(w.Key)
	if ok {
		s.rwset.Writes[i] = w
		return
	}
	if s.rwset.Writes == nil {
		s.firstWrite[0] = w
		s.rwset.Writes = s.firstWrite[:]
		return
	}
	s.rwset.Writes = slices.Insert(s.rwset.Writes, i, w)
}

// GetStateRange implements Stub. Range reads record each returned key in
// the read set (phantom protection is out of scope, as in Fabric's
// default validation). Each key scans the read set once, so a wide range
// costs time quadratic in its size; no sample chaincode reads a range.
func (s *Simulator) GetStateRange(startKey, endKey string) ([]statedb.KV, error) {
	kvs, err := s.state.GetRange(s.ns, startKey, endKey, 0)
	if err != nil {
		return nil, fmt.Errorf("chaincode %s range [%q,%q): %w", s.ns, startKey, endKey, err)
	}
	for _, kv := range kvs {
		if s.firstRead(kv.Key) {
			s.rwset.Reads = append(s.rwset.Reads, types.KVRead{Key: kv.Key, Version: kv.Version, Exists: true})
		}
	}
	return kvs, nil
}

// RWSet returns the read-write set recorded so far; it is the
// simulator's own and reflects later calls. Writes are in key order
// whatever order the chaincode issued them, so all endorsers of the
// same proposal produce byte-identical sets.
func (s *Simulator) RWSet() *types.RWSet { return &s.rwset }

// Registry holds the chaincodes installed on a peer.
type Registry struct {
	codes map[string]Chaincode
}

// NewRegistry creates a registry with the given chaincodes installed.
func NewRegistry(codes ...Chaincode) *Registry {
	r := &Registry{codes: make(map[string]Chaincode, len(codes))}
	for _, c := range codes {
		r.codes[c.Name()] = c
	}
	return r
}

// Install adds a chaincode to the registry.
func (r *Registry) Install(c Chaincode) { r.codes[c.Name()] = c }

// Get looks up an installed chaincode.
func (r *Registry) Get(name string) (Chaincode, error) {
	c, ok := r.codes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownChaincode, name)
	}
	return c, nil
}
