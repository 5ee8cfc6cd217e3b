package statedb

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"fabricsim/internal/types"
)

// Store is the interface every world-state backend implements. The
// in-memory DB is the reference implementation ("mem"); FileDB adds a
// write-ahead-logged, file-backed backend ("file"). All backends share
// the same semantics:
//
//   - versioned reads: every key carries the Version of its last write,
//     and MVCC validation compares read-set versions against it;
//   - GetVersioned returns a zero-copy read-only view that stays stable
//     across later commits (backends replace entries, never mutate a
//     stored value slice in place);
//   - ApplyUpdates applies one block's batch atomically at a strictly
//     increasing height, so a crashed peer cannot double-apply a block.
type Store interface {
	// Get returns a private copy of the versioned value for (ns, key).
	Get(ns, key string) (VersionedValue, bool, error)
	// GetVersioned returns a zero-copy read-only view of (ns, key);
	// callers MUST NOT modify the returned Value.
	GetVersioned(ns, key string) (VersionedValue, bool, error)
	// Version returns the committed version of (ns, key).
	Version(ns, key string) (types.Version, bool, error)
	// GetRange returns committed pairs with startKey <= key < endKey.
	GetRange(ns, startKey, endKey string, limit int) ([]KV, error)
	// ApplyUpdates commits a batch atomically at the given height.
	ApplyUpdates(batch *UpdateBatch, height types.Version) error
	// Restore atomically replaces the entire contents with the given
	// entries at the given height — the snapshot-install path. Unlike
	// ApplyUpdates it may move the height backwards (a fresh store
	// bootstrapping from a remote snapshot has height zero anyway).
	Restore(entries []NSKV, height types.Version) error
	// Height returns the version of the last applied update batch.
	Height() types.Version
	// KeyCount returns the number of live keys in a namespace.
	KeyCount(ns string) int
	// Namespaces returns the sorted namespaces present.
	Namespaces() []string
	// Close releases the backend; subsequent operations fail.
	Close()
	// DumpString renders the contents for debugging, sorted.
	DumpString() string
}

// Flusher is implemented by backends that stage durability in a
// write-ahead log: Flush folds the log into one sorted snapshot record
// (the ledger checkpointer calls it).
type Flusher interface {
	Flush() error
}

// NSKV is a namespace-qualified versioned pair — the unit snapshots and
// restores move around.
type NSKV struct {
	NS string
	KV
}

// Opener builds a Store rooted at dir (ignored by memory backends).
type Opener func(dir string) (Store, error)

var backends = map[string]Opener{
	"mem":  func(string) (Store, error) { return New(), nil },
	"file": func(dir string) (Store, error) { return OpenFile(dir) },
}

// Backends returns the backend names, sorted.
func Backends() []string {
	out := make([]string, 0, len(backends))
	for name := range backends {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Open builds the named backend ("" means "mem") rooted at dir.
func Open(backend, dir string) (Store, error) {
	if backend == "" {
		backend = "mem"
	}
	open, ok := backends[backend]
	if !ok {
		return nil, fmt.Errorf("statedb: unknown backend %q (have %v)", backend, Backends())
	}
	return open(dir)
}

// Export returns the full contents of a store as sorted entries —
// namespaces ascending, keys ascending within each — the deterministic
// order snapshots and state hashes are computed over.
func Export(s Store) ([]NSKV, error) {
	var out []NSKV
	for _, ns := range s.Namespaces() {
		kvs, err := s.GetRange(ns, "", "", 0)
		if err != nil {
			return nil, err
		}
		for _, kv := range kvs {
			out = append(out, NSKV{NS: ns, KV: kv})
		}
	}
	return out, nil
}

// Hash returns the SHA-256 state hash: a digest over the sorted
// (ns, key, value, version) entries plus the store height. Two stores
// with identical committed contents hash identically regardless of
// backend — the cross-backend convergence check.
func Hash(s Store) ([]byte, error) {
	entries, err := Export(s)
	if err != nil {
		return nil, err
	}
	return HashEntries(entries, s.Height()), nil
}

// HashEntries computes the state hash over already-exported entries
// (which must be in Export order) at the given height. Checkpoints and
// snapshots use it to verify serialized state without a live store.
func HashEntries(entries []NSKV, height types.Version) []byte {
	h := sha256.New()
	enc := types.NewEncoder(64)
	enc.Uvarint(height.BlockNum)
	enc.Uvarint(height.TxNum)
	h.Write(enc.Bytes())
	for _, e := range entries {
		enc := types.NewEncoder(len(e.NS) + len(e.Key) + len(e.Value) + 24)
		enc.String(e.NS)
		enc.String(e.Key)
		enc.Bytes2(e.Value)
		enc.Uvarint(e.Version.BlockNum)
		enc.Uvarint(e.Version.TxNum)
		h.Write(enc.Bytes())
	}
	return h.Sum(nil)
}

// MarshalEntries encodes snapshot entries with a leading count; the
// shared wire form of state contents in checkpoints and snapshots.
func MarshalEntries(entries []NSKV) []byte {
	size := 16
	for _, e := range entries {
		size += len(e.NS) + len(e.Key) + len(e.Value) + 24
	}
	enc := types.NewEncoder(size)
	enc.Uvarint(uint64(len(entries)))
	for _, e := range entries {
		enc.String(e.NS)
		enc.String(e.Key)
		enc.Bytes2(e.Value)
		enc.Uvarint(e.Version.BlockNum)
		enc.Uvarint(e.Version.TxNum)
	}
	return enc.Bytes()
}

// UnmarshalEntries decodes MarshalEntries output from the decoder's
// current position.
func UnmarshalEntries(dec *types.Decoder) ([]NSKV, error) {
	n := dec.Uvarint()
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	// An entry occupies at least five bytes, so a count the input cannot
	// hold sizes no allocation.
	entries := make([]NSKV, 0, min(n, uint64(dec.Remaining()/5)))
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		var e NSKV
		e.NS = dec.String()
		e.Key = dec.String()
		e.Value = dec.Bytes2()
		e.Version.BlockNum = dec.Uvarint()
		e.Version.TxNum = dec.Uvarint()
		entries = append(entries, e)
	}
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	return entries, nil
}
