package ledger

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"fabricsim/internal/types"
)

// BlockStore is the append-only block storage behind a ledger. The
// numbering contract: Height is the next block number to append (tip+1),
// Base is the first retained number — 0 for a chain grown from genesis,
// greater after a snapshot bootstrap pruned the prefix. Blocks in
// [Base, Height) are retrievable. Implementations need not be
// internally synchronized; the Ledger serializes access.
type BlockStore interface {
	// Append stores a block; its number must equal Height().
	Append(b *types.Block) error
	// Get returns the block at the given number.
	Get(num uint64) (*types.Block, error)
	// Height returns the next block number to append.
	Height() uint64
	// Base returns the first retained block number.
	Base() uint64
	// Reset drops all blocks and restarts the store at base — the
	// snapshot-install path (the pruned prefix lives only on peers that
	// kept it).
	Reset(base uint64) error
	// Close releases the store.
	Close() error
}

// TxIndex is the transaction index plus per-key write history behind a
// ledger: duplicate detection, status queries, and History scans. Both
// backends keep it memory-resident; persistent ledgers rebuild it from
// the latest checkpoint plus the block-store tail on reopen.
type TxIndex interface {
	// Add indexes a transaction; re-adding an ID replaces its record.
	// The index keeps its own copy of id, which is usually a view of a
	// decoded block (see types.Block.Transactions).
	Add(id types.TxID, info TxInfo)
	// Get returns the indexed record for id.
	Get(id types.TxID) (TxInfo, bool)
	// Has reports whether id is indexed.
	Has(id types.TxID) bool
	// AddHistory records a committed write version for ns/key.
	AddHistory(ns, key string, v types.Version)
	// History returns the retained write versions of ns/key, oldest
	// first. The result is a private copy.
	History(ns, key string) []types.Version
	// Counts returns (total, valid, invalid) indexed transactions.
	Counts() (total, valid, invalid int)
	// Snapshot exports the full index for checkpoints and snapshots.
	Snapshot() *IndexSnapshot
	// Restore replaces the index contents from a snapshot.
	Restore(snap *IndexSnapshot)
	// Close releases the index.
	Close()
}

// DefaultHistoryCap bounds the per-key write history retained by the
// index: the newest N versions. History is a debugging/query aid, not
// consensus state, so compacting old entries is safe; 0 in Options
// selects this default and a negative cap retains everything.
const DefaultHistoryCap = 256

// --- in-memory block store ---

type memStore struct {
	base   uint64
	blocks []*types.Block
}

func newMemStore() *memStore { return &memStore{} }

func (s *memStore) Append(b *types.Block) error {
	if want := s.Height(); b.Header.Number != want {
		return fmt.Errorf("%w: got %d want %d", ErrBadNumber, b.Header.Number, want)
	}
	s.blocks = append(s.blocks, b)
	return nil
}

func (s *memStore) Get(num uint64) (*types.Block, error) {
	if num < s.base || num >= s.Height() {
		return nil, fmt.Errorf("%w: block %d (have [%d,%d))", ErrNotFound, num, s.base, s.Height())
	}
	return s.blocks[num-s.base], nil
}

func (s *memStore) Height() uint64 { return s.base + uint64(len(s.blocks)) }
func (s *memStore) Base() uint64   { return s.base }

func (s *memStore) Reset(base uint64) error {
	s.base = base
	s.blocks = nil
	return nil
}

func (s *memStore) Close() error { return nil }

// --- in-memory tx index + history ---

type memIndex struct {
	mu         sync.RWMutex
	txs        map[types.TxID]TxInfo
	history    map[string][]types.Version
	valid      int
	invalid    int
	historyCap int
}

func newMemIndex(historyCap int) *memIndex {
	if historyCap == 0 {
		historyCap = DefaultHistoryCap
	}
	return &memIndex{
		txs:        make(map[types.TxID]TxInfo),
		history:    make(map[string][]types.Version),
		historyCap: historyCap,
	}
}

func (x *memIndex) Add(id types.TxID, info TxInfo) {
	// Copied even when id is indexed already: assigning a map entry also
	// overwrites its string key.
	id = types.TxID(strings.Clone(string(id)))
	x.mu.Lock()
	defer x.mu.Unlock()
	if old, ok := x.txs[id]; ok {
		if old.Code.Valid() {
			x.valid--
		} else {
			x.invalid--
		}
	}
	x.txs[id] = info
	if info.Code.Valid() {
		x.valid++
	} else {
		x.invalid++
	}
}

func (x *memIndex) Get(id types.TxID) (TxInfo, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	info, ok := x.txs[id]
	return info, ok
}

func (x *memIndex) Has(id types.TxID) bool {
	x.mu.RLock()
	defer x.mu.RUnlock()
	_, ok := x.txs[id]
	return ok
}

func (x *memIndex) AddHistory(ns, key string, v types.Version) {
	x.mu.Lock()
	defer x.mu.Unlock()
	hk := ns + "/" + key
	if cur := x.history[hk]; len(cur) > 0 && v.Compare(cur[len(cur)-1]) <= 0 {
		return // recovery replay of a version the index already holds
	}
	h := append(x.history[hk], v)
	if x.historyCap > 0 && len(h) > x.historyCap {
		// Compact: retain the newest historyCap versions, in a fresh
		// backing array so the dropped prefix can be collected.
		compacted := make([]types.Version, x.historyCap)
		copy(compacted, h[len(h)-x.historyCap:])
		h = compacted
	}
	x.history[hk] = h
}

func (x *memIndex) History(ns, key string) []types.Version {
	x.mu.RLock()
	defer x.mu.RUnlock()
	h := x.history[ns+"/"+key]
	out := make([]types.Version, len(h))
	copy(out, h)
	return out
}

func (x *memIndex) Counts() (total, valid, invalid int) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.txs), x.valid, x.invalid
}

func (x *memIndex) Snapshot() *IndexSnapshot {
	x.mu.RLock()
	defer x.mu.RUnlock()
	snap := &IndexSnapshot{
		Txs:     make([]TxRecord, 0, len(x.txs)),
		History: make([]HistoryRecord, 0, len(x.history)),
	}
	for id, info := range x.txs {
		snap.Txs = append(snap.Txs, TxRecord{ID: id, Info: info})
	}
	sort.Slice(snap.Txs, func(i, j int) bool { return snap.Txs[i].ID < snap.Txs[j].ID })
	for hk, versions := range x.history {
		vs := make([]types.Version, len(versions))
		copy(vs, versions)
		snap.History = append(snap.History, HistoryRecord{Key: hk, Versions: vs})
	}
	sort.Slice(snap.History, func(i, j int) bool { return snap.History[i].Key < snap.History[j].Key })
	return snap
}

func (x *memIndex) Restore(snap *IndexSnapshot) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.txs = make(map[types.TxID]TxInfo, len(snap.Txs))
	x.valid, x.invalid = 0, 0
	for _, r := range snap.Txs {
		x.txs[r.ID] = r.Info
		if r.Info.Code.Valid() {
			x.valid++
		} else {
			x.invalid++
		}
	}
	x.history = make(map[string][]types.Version, len(snap.History))
	for _, r := range snap.History {
		vs := make([]types.Version, len(r.Versions))
		copy(vs, r.Versions)
		x.history[r.Key] = vs
	}
}

func (x *memIndex) Close() {}

// --- index snapshot codec ---

// TxRecord pairs a transaction ID with its indexed info.
type TxRecord struct {
	ID   types.TxID
	Info TxInfo
}

// HistoryRecord holds the retained write versions of one "ns/key".
type HistoryRecord struct {
	Key      string
	Versions []types.Version
}

// IndexSnapshot is the serializable form of a TxIndex, embedded in
// checkpoints and peer-to-peer snapshots. Both slices are sorted so the
// encoding is deterministic.
type IndexSnapshot struct {
	Txs     []TxRecord
	History []HistoryRecord
}

// Marshal encodes the snapshot deterministically.
func (s *IndexSnapshot) Marshal() []byte {
	enc := types.NewEncoder(64 * (len(s.Txs) + len(s.History)))
	enc.Uvarint(uint64(len(s.Txs)))
	for _, r := range s.Txs {
		enc.String(string(r.ID))
		enc.Uvarint(r.Info.BlockNum)
		enc.Uvarint(r.Info.TxNum)
		enc.Byte(byte(r.Info.Code))
	}
	enc.Uvarint(uint64(len(s.History)))
	for _, r := range s.History {
		enc.String(r.Key)
		enc.Uvarint(uint64(len(r.Versions)))
		for _, v := range r.Versions {
			enc.Uvarint(v.BlockNum)
			enc.Uvarint(v.TxNum)
		}
	}
	return enc.Bytes()
}

// UnmarshalIndexSnapshot decodes an IndexSnapshot from the decoder's
// current position.
func UnmarshalIndexSnapshot(dec *types.Decoder) (*IndexSnapshot, error) {
	snap := &IndexSnapshot{}
	n := dec.Uvarint()
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		var r TxRecord
		r.ID = types.TxID(dec.String())
		r.Info.BlockNum = dec.Uvarint()
		r.Info.TxNum = dec.Uvarint()
		r.Info.Code = types.ValidationCode(dec.Byte())
		snap.Txs = append(snap.Txs, r)
	}
	nh := dec.Uvarint()
	for i := uint64(0); i < nh && dec.Err() == nil; i++ {
		var r HistoryRecord
		r.Key = dec.String()
		nv := dec.Uvarint()
		for j := uint64(0); j < nv && dec.Err() == nil; j++ {
			var v types.Version
			v.BlockNum = dec.Uvarint()
			v.TxNum = dec.Uvarint()
			r.Versions = append(r.Versions, v)
		}
		snap.History = append(snap.History, r)
	}
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	return snap, nil
}
