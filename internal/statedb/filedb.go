package statedb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"fabricsim/internal/types"
	"fabricsim/internal/wal"
)

// The "file" state backend keeps one record log (internal/wal),
// state.log under its directory. Record 0 is a snapshot: the height and
// the sorted entries (MarshalEntries) at that height. Every later record
// is one ApplyUpdates batch, appended before the resident map is
// touched, so a crash never loses an acknowledged commit; reopening
// restores the snapshot and replays the batches after it. A torn
// trailing record (crash mid-append) is truncated away on open. Flush
// atomically rewrites the log as one fresh snapshot record (called by
// the ledger checkpointer and after flushEvery batches).
const (
	logName = "state.log"
	// flushEvery bounds log growth between ledger checkpoints.
	flushEvery = 512
)

// FileDB is the write-ahead-logged, file-backed state backend. Reads are
// served from a resident in-memory DB (preserving the mem backend's MVCC
// and zero-copy GetVersioned semantics exactly); writes are logged to
// disk first.
type FileDB struct {
	mu      sync.Mutex // serializes writers: log append + apply + flush
	mem     *DB
	log     *wal.Log
	batches int // batch records after the snapshot
}

var _ Store = (*FileDB)(nil)
var _ Flusher = (*FileDB)(nil)

// OpenFile opens (or creates) a file-backed state store rooted at dir.
func OpenFile(dir string) (*FileDB, error) {
	if dir == "" {
		return nil, errors.New("statedb: file backend requires a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("statedb: create dir: %w", err)
	}
	f := &FileDB{mem: New()}
	snapshot := false
	log, err := wal.Open(filepath.Join(dir, logName), func(off int64, rec []byte) error {
		if off == 0 {
			err := f.restoreRecord(rec)
			snapshot = err == nil
			return err
		}
		batch, height, err := unmarshalWALRecord(rec)
		if err != nil {
			return wal.ErrCorrupt
		}
		f.batches++
		if err := f.mem.ApplyUpdates(batch, height); err != nil {
			return fmt.Errorf("statedb: replay log: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("statedb: open log: %w", err)
	}
	f.log = log
	if !snapshot {
		if err := f.flushLocked(); err != nil {
			log.Close()
			return nil, err
		}
	}
	return f, nil
}

// restoreRecord installs a snapshot record: height, then entries.
func (f *FileDB) restoreRecord(rec []byte) error {
	dec := types.NewDecoder(rec)
	var height types.Version
	height.BlockNum = dec.Uvarint()
	height.TxNum = dec.Uvarint()
	entries, err := UnmarshalEntries(dec)
	if err != nil || dec.Finish() != nil {
		return wal.ErrCorrupt
	}
	return f.mem.Restore(entries, height)
}

// Get returns a private copy of the versioned value for (ns, key).
func (f *FileDB) Get(ns, key string) (VersionedValue, bool, error) {
	return f.mem.Get(ns, key)
}

// GetVersioned returns a zero-copy read-only view of (ns, key).
func (f *FileDB) GetVersioned(ns, key string) (VersionedValue, bool, error) {
	return f.mem.GetVersioned(ns, key)
}

// Version returns the committed version of (ns, key).
func (f *FileDB) Version(ns, key string) (types.Version, bool, error) {
	return f.mem.Version(ns, key)
}

// GetRange returns committed pairs with startKey <= key < endKey.
func (f *FileDB) GetRange(ns, startKey, endKey string, limit int) ([]KV, error) {
	return f.mem.GetRange(ns, startKey, endKey, limit)
}

// ApplyUpdates logs the batch, then applies it to the resident map.
// The write is acknowledged only after it is on disk.
func (f *FileDB) ApplyUpdates(batch *UpdateBatch, height types.Version) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cur := f.mem.Height(); height.Compare(cur) <= 0 && cur != (types.Version{}) {
		return fmt.Errorf("statedb: non-monotonic commit height %v after %v", height, cur)
	}
	if f.log == nil {
		return ErrClosed
	}
	if _, err := f.log.Append(marshalWALRecord(batch, height)); err != nil {
		return fmt.Errorf("statedb: log append: %w", err)
	}
	if err := f.mem.ApplyUpdates(batch, height); err != nil {
		return err
	}
	f.batches++
	if f.batches >= flushEvery {
		return f.flushLocked()
	}
	return nil
}

// Restore atomically replaces the contents with a snapshot's entries and
// immediately persists them as the new on-disk snapshot.
func (f *FileDB) Restore(entries []NSKV, height types.Version) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.log == nil {
		return ErrClosed
	}
	if err := f.mem.Restore(entries, height); err != nil {
		return err
	}
	return f.flushLocked()
}

// Flush rewrites the log as one snapshot record of the current state.
func (f *FileDB) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.log == nil {
		return ErrClosed
	}
	return f.flushLocked()
}

func (f *FileDB) flushLocked() error {
	entries, err := Export(f.mem)
	if err != nil {
		return err
	}
	height := f.mem.Height()
	enc := types.NewEncoder(20)
	enc.Uvarint(height.BlockNum)
	enc.Uvarint(height.TxNum)
	if err := f.log.Rewrite(append(enc.Bytes(), MarshalEntries(entries)...)); err != nil {
		return fmt.Errorf("statedb: flush: %w", err)
	}
	f.batches = 0
	return nil
}

// Height returns the version of the last applied update batch.
func (f *FileDB) Height() types.Version { return f.mem.Height() }

// KeyCount returns the number of live keys in a namespace.
func (f *FileDB) KeyCount(ns string) int { return f.mem.KeyCount(ns) }

// Namespaces returns the sorted namespaces present.
func (f *FileDB) Namespaces() []string { return f.mem.Namespaces() }

// Close releases file handles; subsequent operations fail. The log
// already holds every acknowledged write, so nothing needs flushing.
func (f *FileDB) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mem.Close()
	if f.log != nil {
		f.log.Close()
		f.log = nil
	}
}

// DumpString renders the contents for debugging, sorted.
func (f *FileDB) DumpString() string { return f.mem.DumpString() }

// marshalWALRecord encodes (batch, height) deterministically: height,
// then sorted puts, then sorted deletes.
func marshalWALRecord(batch *UpdateBatch, height types.Version) []byte {
	enc := types.NewEncoder(256)
	enc.Uvarint(height.BlockNum)
	enc.Uvarint(height.TxNum)
	nss := make([]string, 0, len(batch.updates))
	for ns := range batch.updates {
		nss = append(nss, ns)
	}
	sort.Strings(nss)
	var nPuts uint64
	for _, ns := range nss {
		nPuts += uint64(len(batch.updates[ns]))
	}
	enc.Uvarint(nPuts)
	for _, ns := range nss {
		m := batch.updates[ns]
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			vv := m[k]
			enc.String(ns)
			enc.String(k)
			enc.Bytes2(vv.Value)
			enc.Uvarint(vv.Version.BlockNum)
			enc.Uvarint(vv.Version.TxNum)
		}
	}
	dss := make([]string, 0, len(batch.deletes))
	for ns := range batch.deletes {
		dss = append(dss, ns)
	}
	sort.Strings(dss)
	var nDels uint64
	for _, ns := range dss {
		nDels += uint64(len(batch.deletes[ns]))
	}
	enc.Uvarint(nDels)
	for _, ns := range dss {
		dm := batch.deletes[ns]
		keys := make([]string, 0, len(dm))
		for k := range dm {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v := dm[k]
			enc.String(ns)
			enc.String(k)
			enc.Uvarint(v.BlockNum)
			enc.Uvarint(v.TxNum)
		}
	}
	return enc.Bytes()
}

func unmarshalWALRecord(payload []byte) (*UpdateBatch, types.Version, error) {
	dec := types.NewDecoder(payload)
	var height types.Version
	height.BlockNum = dec.Uvarint()
	height.TxNum = dec.Uvarint()
	batch := NewUpdateBatch()
	nPuts := dec.Uvarint()
	for i := uint64(0); i < nPuts && dec.Err() == nil; i++ {
		ns := dec.String()
		key := dec.String()
		val := dec.Bytes2()
		var v types.Version
		v.BlockNum = dec.Uvarint()
		v.TxNum = dec.Uvarint()
		batch.Put(ns, key, val, v)
	}
	nDels := dec.Uvarint()
	for i := uint64(0); i < nDels && dec.Err() == nil; i++ {
		ns := dec.String()
		key := dec.String()
		var v types.Version
		v.BlockNum = dec.Uvarint()
		v.TxNum = dec.Uvarint()
		batch.Delete(ns, key, v)
	}
	if err := dec.Finish(); err != nil {
		return nil, types.Version{}, err
	}
	return batch, height, nil
}
