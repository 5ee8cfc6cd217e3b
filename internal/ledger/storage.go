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

// --- transaction index ---

// txIndex is the transaction index behind a ledger: duplicate detection
// and status queries. Both backends keep it memory-resident; persistent
// ledgers rebuild it from the latest checkpoint plus the block-store
// tail on reopen.
type txIndex struct {
	mu    sync.RWMutex
	txs   map[types.TxID]TxInfo
	valid int // entries whose code is valid; the others are invalid
}

func newTxIndex() *txIndex {
	return &txIndex{txs: make(map[types.TxID]TxInfo)}
}

// addBlock indexes one block's transactions with their validation
// flags under one lock hold; re-adding an ID replaces its record. The
// IDs are usually views of the decoded block (see
// types.Block.Transactions), so the index copies them, all into one
// string that every key of the block is a substring of. Each key is
// rewritten even when its ID is indexed already, since assigning a map
// entry also overwrites its string key.
func (x *txIndex) addBlock(num uint64, txs []*types.Transaction, flags []types.ValidationCode) {
	n := 0
	for _, tx := range txs {
		n += len(tx.ID())
	}
	var ids strings.Builder
	ids.Grow(n)
	for _, tx := range txs {
		ids.WriteString(string(tx.ID()))
	}
	rest := ids.String()
	x.mu.Lock()
	defer x.mu.Unlock()
	for i, tx := range txs {
		id := types.TxID(rest[:len(tx.ID())])
		rest = rest[len(id):]
		if old, ok := x.txs[id]; ok && old.Code.Valid() {
			x.valid--
		}
		x.txs[id] = TxInfo{BlockNum: num, TxNum: uint64(i), Code: flags[i]}
		if flags[i].Valid() {
			x.valid++
		}
	}
}

func (x *txIndex) Get(id types.TxID) (TxInfo, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	info, ok := x.txs[id]
	return info, ok
}

func (x *txIndex) Has(id types.TxID) bool {
	x.mu.RLock()
	defer x.mu.RUnlock()
	_, ok := x.txs[id]
	return ok
}

// Counts returns (total, valid, invalid) indexed transactions.
func (x *txIndex) Counts() (total, valid, invalid int) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.txs), x.valid, len(x.txs) - x.valid
}

// Snapshot exports the full index for checkpoints and snapshots.
func (x *txIndex) Snapshot() *IndexSnapshot {
	x.mu.RLock()
	defer x.mu.RUnlock()
	snap := &IndexSnapshot{Txs: make([]TxRecord, 0, len(x.txs))}
	for id, info := range x.txs {
		snap.Txs = append(snap.Txs, TxRecord{ID: id, Info: info})
	}
	sort.Slice(snap.Txs, func(i, j int) bool { return snap.Txs[i].ID < snap.Txs[j].ID })
	return snap
}

// Restore replaces the index contents from a snapshot.
func (x *txIndex) Restore(snap *IndexSnapshot) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.txs = make(map[types.TxID]TxInfo, len(snap.Txs))
	x.valid = 0
	for _, r := range snap.Txs {
		x.txs[r.ID] = r.Info
	}
	for _, info := range x.txs {
		if info.Code.Valid() {
			x.valid++
		}
	}
}

// --- index snapshot codec ---

// TxRecord pairs a transaction ID with its indexed info.
type TxRecord struct {
	ID   types.TxID
	Info TxInfo
}

// IndexSnapshot is the serializable form of the transaction index,
// embedded in checkpoints and peer-to-peer snapshots. Txs is sorted so
// the encoding is deterministic.
type IndexSnapshot struct {
	Txs []TxRecord
}

// Marshal encodes the snapshot deterministically.
func (s *IndexSnapshot) Marshal() []byte {
	enc := types.NewEncoder(64 * len(s.Txs))
	enc.Uvarint(uint64(len(s.Txs)))
	for _, r := range s.Txs {
		enc.String(string(r.ID))
		enc.Uvarint(r.Info.BlockNum)
		enc.Uvarint(r.Info.TxNum)
		enc.Byte(byte(r.Info.Code))
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
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	return snap, nil
}
