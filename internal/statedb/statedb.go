// Package statedb implements the versioned world-state database that
// backs each peer's ledger (the role LevelDB/CouchDB play in Fabric).
// Every key carries the Version (block, tx) of the transaction that
// last wrote it; MVCC validation in the validate phase compares a
// transaction's read-set versions against these committed versions.
//
// Two backends implement Store: the in-memory DB, and FileDB, which
// keeps the same resident map and logs every batch first to one
// internal/wal record log whose record 0 is a snapshot.
package statedb

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"fabricsim/internal/types"
)

// ErrClosed is returned by operations on a closed database.
var ErrClosed = errors.New("statedb: closed")

// VersionedValue is a value with the version of its last write.
type VersionedValue struct {
	Value   []byte
	Version types.Version
}

// KV pairs a (namespace-local) key with its versioned value; returned by
// range scans.
type KV struct {
	Key string
	VersionedValue
}

// UpdateBatch accumulates the writes of one block's valid transactions,
// applied atomically at commit.
type UpdateBatch struct {
	updates map[string]map[string]VersionedValue // ns -> key -> written value
	deletes map[string]map[string]types.Version  // ns -> key -> deleting version
}

// NewUpdateBatch returns an empty batch.
func NewUpdateBatch() *UpdateBatch {
	return &UpdateBatch{
		updates: make(map[string]map[string]VersionedValue),
		deletes: make(map[string]map[string]types.Version),
	}
}

// Put records a write of key in namespace ns at version v.
func (b *UpdateBatch) Put(ns, key string, value []byte, v types.Version) {
	m, ok := b.updates[ns]
	if !ok {
		m = make(map[string]VersionedValue)
		b.updates[ns] = m
	}
	m[key] = VersionedValue{Value: value, Version: v}
	if dm, ok := b.deletes[ns]; ok {
		delete(dm, key)
	}
}

// Delete records a deletion of key in namespace ns at version v.
func (b *UpdateBatch) Delete(ns, key string, v types.Version) {
	dm, ok := b.deletes[ns]
	if !ok {
		dm = make(map[string]types.Version)
		b.deletes[ns] = dm
	}
	dm[key] = v
	if m, ok := b.updates[ns]; ok {
		delete(m, key)
	}
}

// DB is an in-memory versioned key-value store, safe for concurrent use.
// Endorsement simulation reads run concurrently with block commits; a
// read-write mutex gives readers a consistent view of committed state.
type DB struct {
	mu     sync.RWMutex
	data   map[string]map[string]*VersionedValue // ns -> key -> value
	height types.Version
	closed bool
}

// New returns an empty database.
func New() *DB {
	return &DB{data: make(map[string]map[string]*VersionedValue)}
}

var _ Store = (*DB)(nil)

// Get returns the versioned value for (ns, key), or ok=false when the
// key is absent.
func (db *DB) Get(ns, key string) (VersionedValue, bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return VersionedValue{}, false, ErrClosed
	}
	m, ok := db.data[ns]
	if !ok {
		return VersionedValue{}, false, nil
	}
	vv, ok := m[key]
	if !ok {
		return VersionedValue{}, false, nil
	}
	out := VersionedValue{Value: append([]byte(nil), vv.Value...), Version: vv.Version}
	return out, true, nil
}

// GetVersioned returns the versioned value for (ns, key) as a zero-copy
// read-only view: the returned Value aliases the database's committed
// bytes instead of copying them under the read lock the way Get does.
// The view is stable across later commits — ApplyUpdates copies each
// incoming value into a slice of its own and never writes into a stored
// one; a rewrite points its key's entry at a fresh copy — but callers
// MUST NOT modify it. A kept view pins only its value's bytes: the new
// keys of a block share one key string and one entry slab, but no value
// goes into that arena. It exists for the peer's internal hot paths
// (the chaincode simulator's reads during endorsement, MVCC checks);
// external callers keep the copying Get.
func (db *DB) GetVersioned(ns, key string) (VersionedValue, bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return VersionedValue{}, false, ErrClosed
	}
	m, ok := db.data[ns]
	if !ok {
		return VersionedValue{}, false, nil
	}
	vv, ok := m[key]
	if !ok {
		return VersionedValue{}, false, nil
	}
	return VersionedValue{Value: vv.Value, Version: vv.Version}, true, nil
}

// Version returns the committed version of (ns, key); exists=false when
// the key has never been written or was deleted.
func (db *DB) Version(ns, key string) (types.Version, bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return types.Version{}, false, ErrClosed
	}
	m, ok := db.data[ns]
	if !ok {
		return types.Version{}, false, nil
	}
	vv, ok := m[key]
	if !ok {
		return types.Version{}, false, nil
	}
	return vv.Version, true, nil
}

// GetRange returns committed pairs with startKey <= key < endKey in ns,
// in key order. An empty endKey means "to the end". limit <= 0 means no
// limit.
func (db *DB) GetRange(ns, startKey, endKey string, limit int) ([]KV, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	m, ok := db.data[ns]
	if !ok {
		return nil, nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		if k >= startKey && (endKey == "" || k < endKey) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	out := make([]KV, 0, len(keys))
	for _, k := range keys {
		vv := m[k]
		out = append(out, KV{
			Key: k,
			VersionedValue: VersionedValue{
				Value:   append([]byte(nil), vv.Value...),
				Version: vv.Version,
			},
		})
	}
	return out, nil
}

// ApplyUpdates commits a batch at the given ledger height. Heights must
// be monotonically increasing; replays are rejected so a crashed peer
// cannot double-apply a block.
//
// The batch's keys and namespaces are usually views of a decoded block
// (see types.Block.Transactions), so the database copies what it keeps.
// Every value is copied into a slice of its own. A key the database
// holds keeps its entry, updated in place: assigning it would overwrite
// the key the map owns with the batch's. Readers only ever copy an
// entry out under the lock, so the in-place update is as invisible to
// them as a replacement, and a rewritten key costs its value copy only.
// The block's new keys share one arena: their bytes are substrings of
// one string, and their entries are elements of one slab. So a key, or
// its entry, keeps the bytes and entries of every new key of its block
// alive; a deleted key's stay until the other new keys of its block are
// gone.
func (db *DB) ApplyUpdates(batch *UpdateBatch, height types.Version) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if height.Compare(db.height) <= 0 && (db.height != types.Version{}) {
		return fmt.Errorf("statedb: non-monotonic commit height %v after %v", height, db.height)
	}
	// A key the database holds is rewritten in place here; a new key is
	// only counted, so one arena can be sized for them all below.
	fresh, keyBytes := 0, 0
	for ns, m := range batch.updates {
		target, ok := db.data[ns]
		if !ok {
			target = make(map[string]*VersionedValue, len(m))
			db.data[strings.Clone(ns)] = target
		}
		for k, vv := range m {
			if cur, ok := target[k]; ok {
				cur.Value, cur.Version = append([]byte(nil), vv.Value...), vv.Version
			} else {
				fresh++
				keyBytes += len(k)
			}
		}
	}
	if fresh > 0 {
		// Grow sized the builder for every new key, and it never rewrites
		// the bytes it holds, so each key is the tail of what it has
		// built so far.
		var arena strings.Builder
		arena.Grow(keyBytes)
		slab := make([]VersionedValue, 0, fresh)
		for ns, m := range batch.updates {
			target := db.data[ns]
			for k, vv := range m {
				if _, ok := target[k]; ok {
					continue
				}
				arena.WriteString(k)
				built := arena.String()
				slab = append(slab, VersionedValue{Value: append([]byte(nil), vv.Value...), Version: vv.Version})
				target[built[len(built)-len(k):]] = &slab[len(slab)-1]
			}
		}
	}
	for ns, dm := range batch.deletes {
		target, ok := db.data[ns]
		if !ok {
			continue
		}
		for k := range dm {
			delete(target, k)
		}
	}
	db.height = height
	return nil
}

// Restore atomically replaces the database contents with the given
// entries at the given height — the snapshot-install path. Values are
// copied in, so the caller's slices stay private.
func (db *DB) Restore(entries []NSKV, height types.Version) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	data := make(map[string]map[string]*VersionedValue)
	for _, e := range entries {
		m, ok := data[e.NS]
		if !ok {
			m = make(map[string]*VersionedValue)
			data[e.NS] = m
		}
		m[e.Key] = &VersionedValue{Value: append([]byte(nil), e.Value...), Version: e.Version}
	}
	db.data = data
	db.height = height
	return nil
}

// Height returns the version of the last applied update batch.
func (db *DB) Height() types.Version {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.height
}

// KeyCount returns the number of live keys in a namespace.
func (db *DB) KeyCount(ns string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.data[ns])
}

// Namespaces returns the sorted namespaces present in the database.
func (db *DB) Namespaces() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.data))
	for ns := range db.data {
		out = append(out, ns)
	}
	sort.Strings(out)
	return out
}

// Close marks the database closed; subsequent operations fail.
func (db *DB) Close() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.closed = true
}

// DumpString renders the database contents for debugging, one line per
// key, sorted.
func (db *DB) DumpString() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var sb strings.Builder
	for _, ns := range db.namespacesLocked() {
		m := db.data[ns]
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s/%s @%s = %q\n", ns, k, m[k].Version, m[k].Value)
		}
	}
	return sb.String()
}

func (db *DB) namespacesLocked() []string {
	out := make([]string, 0, len(db.data))
	for ns := range db.data {
		out = append(out, ns)
	}
	sort.Strings(out)
	return out
}
