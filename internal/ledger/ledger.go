// Package ledger implements a peer's ledger: the append-only block
// store with its hash chain, the transaction index used for duplicate
// detection and status queries, and the bridge that applies a validated
// block's writes to the world state.
//
// Storage is pluggable: the block store and world state sit behind the
// BlockStore and statedb.Store interfaces, and both backends share one
// memory-resident transaction index. The "mem" backend keeps everything
// resident (the original behavior); the "file" backend persists blocks
// and state in one internal/wal record log each (blocks/blocks.log,
// state/state.log), writes a checkpoint every CheckpointInterval blocks
// (checkpoints/), and reopens from the latest checkpoint plus the
// block-log tail instead of replaying from genesis.
package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"fabricsim/internal/statedb"
	"fabricsim/internal/types"
)

// Errors returned by ledger operations.
var (
	ErrNotFound     = errors.New("ledger: not found")
	ErrBadPrevHash  = errors.New("ledger: previous-hash mismatch")
	ErrBadNumber    = errors.New("ledger: unexpected block number")
	ErrNotValidated = errors.New("ledger: block has no validation flags")
	ErrNotStaged    = errors.New("ledger: block was not staged by ApplyState")
	// ErrStale marks a block below the ledger's applied height — already
	// committed, or obsoleted by a snapshot install. Pipelines skip such
	// blocks instead of treating them as corruption.
	ErrStale = errors.New("ledger: block below applied height")
)

// DefaultCheckpointInterval is the checkpoint cadence (in blocks) used
// when Options.CheckpointInterval is zero.
const DefaultCheckpointInterval = 64

// TxInfo is the indexed location and outcome of a committed transaction.
type TxInfo struct {
	BlockNum uint64
	TxNum    uint64
	Code     types.ValidationCode
}

// Options selects and configures a ledger's storage backends.
type Options struct {
	// Backend names the storage engine: "mem" (default) or "file".
	Backend string
	// Dir roots the on-disk layout (file backend only): Dir/blocks,
	// Dir/state, Dir/checkpoints.
	Dir string
	// CheckpointInterval is how many blocks between checkpoints (file
	// backend); 0 selects DefaultCheckpointInterval.
	CheckpointInterval uint64
}

// Backends returns the block-storage backend names a ledger accepts.
func Backends() []string { return []string{"file", "mem"} }

// Ledger is one peer's ledger for one channel.
//
// Committing a block is two separable stages so the peer's commit
// pipeline can overlap them across consecutive blocks: ApplyState
// verifies the hash chain, indexes the transactions, and applies valid
// writes to the world state; Append later moves the staged block into
// the block store (the real counterpart of the modeled fsync).
type Ledger struct {
	mu     sync.RWMutex
	store  BlockStore
	index  *txIndex
	state  statedb.Store
	staged []*types.Block    // state-applied blocks awaiting Append
	tip    types.BlockHeader // newest state-applied header (staged tip)

	persist   bool // file-backed: checkpoint on append, reopenable
	dir       string
	ckptEvery uint64
	lastCkpt  uint64 // store height at the last checkpoint
	closed    bool
}

// Open creates or reopens a ledger with the selected storage backend.
// A fresh ledger is seeded with the genesis block; a file-backed ledger
// whose directory holds an earlier life's files recovers from the
// latest checkpoint plus the block-store tail.
func Open(opts Options) (*Ledger, error) {
	backend := opts.Backend
	if backend == "" {
		backend = "mem"
	}
	ckptEvery := opts.CheckpointInterval
	if ckptEvery == 0 {
		ckptEvery = DefaultCheckpointInterval
	}
	l := &Ledger{
		index:     newTxIndex(),
		dir:       opts.Dir,
		ckptEvery: ckptEvery,
	}
	switch backend {
	case "mem":
		l.store = newMemStore()
		l.state = statedb.New()
	case "file":
		if opts.Dir == "" {
			return nil, errors.New("ledger: file backend requires Options.Dir")
		}
		state, err := statedb.Open("file", filepath.Join(opts.Dir, "state"))
		if err != nil {
			return nil, err
		}
		store, err := openFileStore(filepath.Join(opts.Dir, "blocks"))
		if err != nil {
			state.Close()
			return nil, err
		}
		l.state = state
		l.store = store
		l.persist = true
	default:
		return nil, fmt.Errorf("ledger: unknown backend %q (have %v)", backend, Backends())
	}
	if err := l.recover(); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// recover brings the in-memory view (tip, index, state) up to the block
// store's height: from the latest checkpoint when one covers the store,
// else from genesis. Only the tail past the recovery point is re-read —
// no network, no re-validation, no modeled crypto.
func (l *Ledger) recover() error {
	replayFrom := uint64(0)
	haveTip := false
	if l.persist {
		ckpt, err := loadLatestCheckpoint(l.dir)
		if err != nil {
			return err
		}
		if ckpt != nil && ckpt.Height <= l.store.Height() && ckpt.Height >= l.store.Base() {
			l.index.Restore(ckpt.Index)
			l.tip = ckpt.Tip
			l.lastCkpt = ckpt.Height
			replayFrom = ckpt.Height
			haveTip = true
			if l.state.Height().Compare(ckpt.StateHeight) < 0 {
				// State files lost or behind the checkpoint: reinstall the
				// checkpointed state, then let the tail replay catch up.
				if err := l.state.Restore(ckpt.Entries, ckpt.StateHeight); err != nil {
					return err
				}
			}
		}
	}
	if !haveTip {
		if base := l.store.Base(); base > 0 {
			return fmt.Errorf("ledger: store pruned to %d but no usable checkpoint in %s", base, l.dir)
		}
		if l.store.Height() == 0 {
			genesis := types.NewBlock(0, nil, nil)
			if err := l.store.Append(genesis); err != nil {
				return err
			}
		}
		first, err := l.store.Get(0)
		if err != nil {
			return err
		}
		l.tip = first.Header
		replayFrom = 1
	}
	for n := replayFrom; n < l.store.Height(); n++ {
		b, err := l.store.Get(n)
		if err != nil {
			return err
		}
		if err := l.replayBlock(b); err != nil {
			return fmt.Errorf("ledger: replay block %d: %w", n, err)
		}
	}
	return nil
}

// replayBlock re-applies one already-committed block from the store
// during recovery: chain check, index, and — only when the state WAL
// had not yet seen it — state writes.
func (l *Ledger) replayBlock(block *types.Block) error {
	if !bytes.Equal(block.Header.PrevHash, l.tip.Hash()) {
		return fmt.Errorf("%w at block %d", ErrBadPrevHash, block.Header.Number)
	}
	txs, err := block.Transactions()
	if err != nil {
		return err
	}
	if len(block.Metadata.ValidationFlags) != len(txs) {
		return ErrNotValidated
	}
	l.indexAndApply(block, txs)
	l.tip = block.Header
	return nil
}

// State returns the ledger's world-state store.
func (l *Ledger) State() statedb.Store { return l.state }

// Persistent reports whether the ledger survives a close and reopen
// (the file backend).
func (l *Ledger) Persistent() bool { return l.persist }

// Height returns the number of blocks in the block store (genesis
// included). Blocks that are state-applied but not yet appended do not
// count.
func (l *Ledger) Height() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.store.Height()
}

// Base returns the first block number the store retains: 0 for a chain
// grown from genesis, the snapshot height after a snapshot bootstrap.
func (l *Ledger) Base() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.store.Base()
}

// LastHash returns the hash of the chain tip's header — the newest
// staged block when the commit pipeline holds any, else the newest
// appended block — i.e. the PrevHash the next block must carry.
func (l *Ledger) LastHash() []byte {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.tip.Hash()
}

// GetBlock returns the block at the given number. Blocks below Base()
// were pruned by a snapshot bootstrap and report ErrNotFound.
func (l *Ledger) GetBlock(number uint64) (*types.Block, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.store.Get(number)
}

// GetTx returns the indexed info for a committed transaction ID.
func (l *Ledger) GetTx(id types.TxID) (TxInfo, error) {
	info, ok := l.index.Get(id)
	if !ok {
		return TxInfo{}, fmt.Errorf("%w: tx %s", ErrNotFound, id)
	}
	return info, nil
}

// HasTx reports whether the transaction ID already appears on the chain.
// Endorsers use this to reject replayed proposals.
func (l *Ledger) HasTx(id types.TxID) bool { return l.index.Has(id) }

// ApplyState runs the first commit stage: it verifies the hash chain
// (in chain order, against the newest staged or appended header),
// indexes every transaction with its validation flag, applies the
// writes of valid transactions to the world state, and stages the block
// for a later Append. The block must carry validation flags for each
// transaction (set by the committer's VSCC/MVCC pipeline before
// ApplyState is called). The state height advances here even for blocks
// with no valid transactions, matching Fabric where an all-invalid
// block still moves the ledger height.
//
// A block below the applied height returns ErrStale (wrapped): it was
// already committed in a previous life of this ledger, or a snapshot
// install moved the chain past it. State writes are idempotent across
// recovery — a block whose writes the state WAL already holds is
// indexed and staged without touching the state again.
func (l *Ledger) ApplyState(block *types.Block, txs []*types.Transaction) error {
	if len(block.Metadata.ValidationFlags) != len(block.Data) {
		return ErrNotValidated
	}
	if err := block.VerifyDataHash(); err != nil {
		return err
	}

	l.mu.Lock()
	defer l.mu.Unlock()

	next := l.store.Height() + uint64(len(l.staged))
	if block.Header.Number < next {
		return fmt.Errorf("%w: block %d below %d", ErrStale, block.Header.Number, next)
	}
	if block.Header.Number > next {
		return fmt.Errorf("%w: got %d want %d", ErrBadNumber, block.Header.Number, next)
	}
	if !bytes.Equal(block.Header.PrevHash, l.tip.Hash()) {
		return fmt.Errorf("%w at block %d", ErrBadPrevHash, block.Header.Number)
	}
	if err := l.indexAndApply(block, txs); err != nil {
		return err
	}
	l.staged = append(l.staged, block)
	l.tip = block.Header
	return nil
}

// indexAndApply indexes a block's transactions and applies valid
// writes to the state, skipping the state when its WAL already
// reflects this block (crash recovery). Callers hold l.mu.
func (l *Ledger) indexAndApply(block *types.Block, txs []*types.Transaction) error {
	endVersion := types.Version{BlockNum: block.Header.Number, TxNum: uint64(len(txs))}
	applyToState := l.state.Height().Compare(endVersion) < 0
	l.index.addBlock(block.Header.Number, txs, block.Metadata.ValidationFlags)
	batch := statedb.NewUpdateBatch()
	for i, tx := range txs {
		if !block.Metadata.ValidationFlags[i].Valid() {
			continue
		}
		v := types.Version{BlockNum: block.Header.Number, TxNum: uint64(i)}
		ns := tx.Proposal.ChaincodeID
		for _, w := range tx.Results.Writes {
			if w.IsDelete {
				batch.Delete(ns, w.Key, v)
			} else {
				batch.Put(ns, w.Key, w.Value, v)
			}
		}
	}
	if applyToState {
		if err := l.state.ApplyUpdates(batch, endVersion); err != nil {
			return fmt.Errorf("ledger: apply state updates: %w", err)
		}
	}
	return nil
}

// Append runs the second commit stage: it moves the oldest staged block
// into the block store. Blocks append strictly in ApplyState order;
// passing any block but the oldest staged one is an error, so a
// misordered pipeline fails loudly instead of silently breaking the
// hash chain. On a file-backed ledger every CheckpointInterval-th
// append also writes a checkpoint (state flush + snapshot file).
func (l *Ledger) Append(block *types.Block) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.staged) == 0 || l.staged[0] != block {
		return fmt.Errorf("%w: block %d", ErrNotStaged, block.Header.Number)
	}
	if err := l.store.Append(block); err != nil {
		return err
	}
	l.staged = l.staged[1:]
	if l.persist && l.store.Height() >= l.lastCkpt+l.ckptEvery {
		if err := l.checkpointLocked(block.Header); err != nil {
			return fmt.Errorf("ledger: checkpoint at %d: %w", l.store.Height(), err)
		}
	}
	return nil
}

// checkpointLocked flushes the state WAL and writes a checkpoint file
// capturing the store height, the just-appended tip, the serialized
// state, and the transaction index. Callers hold l.mu.
func (l *Ledger) checkpointLocked(appendedTip types.BlockHeader) error {
	if f, ok := l.state.(statedb.Flusher); ok {
		if err := f.Flush(); err != nil {
			return err
		}
	}
	entries, err := statedb.Export(l.state)
	if err != nil {
		return err
	}
	stateHeight := l.state.Height()
	snap := &Snapshot{
		Height:      l.store.Height(),
		Tip:         appendedTip,
		StateHeight: stateHeight,
		StateHash:   statedb.HashEntries(entries, stateHeight),
		Entries:     entries,
		Index:       l.index.Snapshot(),
	}
	if err := writeCheckpoint(l.dir, snap); err != nil {
		return err
	}
	l.lastCkpt = snap.Height
	return nil
}

// Snapshot captures the ledger for transfer to a lagging peer: the
// staged tip (so the capture is consistent with the state, which
// advances at ApplyState), the serialized state with its hash, and the
// transaction index.
func (l *Ledger) Snapshot() (*Snapshot, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	entries, err := statedb.Export(l.state)
	if err != nil {
		return nil, err
	}
	stateHeight := l.state.Height()
	return &Snapshot{
		Height:      l.store.Height() + uint64(len(l.staged)),
		Tip:         l.tip,
		StateHeight: stateHeight,
		StateHash:   statedb.HashEntries(entries, stateHeight),
		Entries:     entries,
		Index:       l.index.Snapshot(),
	}, nil
}

// RestoreSnapshot installs a remote snapshot, replacing the chain: the
// block store restarts ("prunes") at the snapshot height, the index and
// state are replaced wholesale, and the tip becomes the snapshot tip —
// the peer then needs only the tail past the snapshot. The snapshot
// must be ahead of the current chain and the commit pipeline drained.
func (l *Ledger) RestoreSnapshot(snap *Snapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.staged) > 0 {
		return fmt.Errorf("ledger: cannot restore snapshot with %d staged blocks", len(l.staged))
	}
	if snap.Height <= l.store.Height() {
		return fmt.Errorf("%w: snapshot height %d at or below %d", ErrStale, snap.Height, l.store.Height())
	}
	if err := l.store.Reset(snap.Height); err != nil {
		return err
	}
	l.index.Restore(snap.Index)
	if err := l.state.Restore(snap.Entries, snap.StateHeight); err != nil {
		return err
	}
	l.tip = snap.Tip
	if l.persist {
		if err := writeCheckpoint(l.dir, snap); err != nil {
			return err
		}
		l.lastCkpt = snap.Height
	}
	return nil
}

// VerifyChain walks the retained chain and checks every hash link and
// data hash; used by tests and the integrity checker. After a snapshot
// bootstrap only the tail from Base() is verifiable locally.
func (l *Ledger) VerifyChain() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var prev *types.Block
	for n := l.store.Base(); n < l.store.Height(); n++ {
		cur, err := l.store.Get(n)
		if err != nil {
			return err
		}
		if prev != nil && !bytes.Equal(cur.Header.PrevHash, prev.Header.Hash()) {
			return fmt.Errorf("%w between blocks %d and %d", ErrBadPrevHash, n-1, n)
		}
		if err := cur.VerifyDataHash(); err != nil {
			return err
		}
		prev = cur
	}
	return nil
}

// StateHash returns the ledger's current state hash — identical across
// backends and peers holding the same committed state.
func (l *Ledger) StateHash() ([]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return statedb.Hash(l.state)
}

// Agree returns nil when the ledgers hold one chain and one world state:
// the same height, tip hash and state hash, and a chain that verifies on
// each. It checks the cheapest first, and verifies the chains only once
// everything else agrees, so a poll of ledgers still converging hashes
// no state until their tips meet. The error names the first ledger, by
// position, that differs and what differs: height, tip, state or chain.
func Agree(ledgers ...*Ledger) error {
	for _, c := range []struct {
		what string
		read func(*Ledger) (string, error)
	}{
		{"height", func(l *Ledger) (string, error) { return fmt.Sprint(l.Height()), nil }},
		{"tip", func(l *Ledger) (string, error) { return fmt.Sprintf("%x", l.LastHash()), nil }},
		{"state", func(l *Ledger) (string, error) { h, err := l.StateHash(); return fmt.Sprintf("%x", h), err }},
	} {
		var want string
		for i, l := range ledgers {
			got, err := c.read(l)
			if err != nil {
				return fmt.Errorf("ledger %d %s: %w", i, c.what, err)
			}
			if i == 0 {
				want = got
			} else if got != want {
				return fmt.Errorf("ledger %d %s %s differs from ledger 0's %s", i, c.what, got, want)
			}
		}
	}
	for i, l := range ledgers {
		if err := l.VerifyChain(); err != nil {
			return fmt.Errorf("ledger %d chain: %w", i, err)
		}
	}
	return nil
}

// Close releases the storage backends. A file-backed ledger can be
// reopened from its directory afterwards; every acknowledged commit is
// already on disk (block log + state log), so nothing is flushed
// here — matching a crash, which Open must handle anyway.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.store.Close()
	l.state.Close()
	return err
}

// Stats summarizes ledger contents for reporting.
type Stats struct {
	Blocks     uint64
	TotalTxs   int
	ValidTxs   int
	InvalidTxs int
}

// Stats returns summary counts across the whole chain.
func (l *Ledger) Stats() Stats {
	total, valid, invalid := l.index.Counts()
	return Stats{
		Blocks:     l.Height(),
		TotalTxs:   total,
		ValidTxs:   valid,
		InvalidTxs: invalid,
	}
}
