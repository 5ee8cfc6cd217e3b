package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"fabricsim/internal/statedb"
	"fabricsim/internal/types"
	"fabricsim/internal/wal"
)

// Snapshot is a self-contained capture of a ledger at some height: the
// applied tip header, the serialized world state with its hash, and the
// transaction index. It serves two roles with one encoding:
//
//   - checkpoint files (dir/checkpoints/ckpt-%012d): written every
//     CheckpointInterval blocks so a persistent peer reopens from the
//     latest checkpoint plus the block-store tail instead of replaying
//     from genesis;
//   - peer-to-peer snapshot transfer (KindGetSnapshot): a lagging peer
//     installs a remote snapshot and then pulls only the tail.
type Snapshot struct {
	// Height is the block-store height captured: blocks [0, Height) are
	// reflected in the state; Tip is block Height-1's header.
	Height      uint64
	Tip         types.BlockHeader
	StateHeight types.Version
	StateHash   []byte
	Entries     []statedb.NSKV
	Index       *IndexSnapshot
}

var snapshotMagic = []byte("LGRSNAP1")

// ErrBadSnapshot is returned when a snapshot fails decoding or its
// state hash does not match its contents.
var ErrBadSnapshot = errors.New("ledger: bad snapshot")

// Marshal encodes the snapshot deterministically.
func (s *Snapshot) Marshal() []byte {
	idx := s.Index.Marshal()
	entries := statedb.MarshalEntries(s.Entries)
	enc := types.NewEncoder(len(snapshotMagic) + 128 + len(idx) + len(entries))
	enc.Bytes2(snapshotMagic)
	enc.Uvarint(s.Height)
	enc.Uvarint(s.Tip.Number)
	enc.Bytes2(s.Tip.PrevHash)
	enc.Bytes2(s.Tip.DataHash)
	enc.Uvarint(s.StateHeight.BlockNum)
	enc.Uvarint(s.StateHeight.TxNum)
	enc.Bytes2(s.StateHash)
	enc.Bytes2(entries)
	enc.Bytes2(idx)
	return enc.Bytes()
}

// UnmarshalSnapshot decodes a snapshot and verifies its state hash
// against its serialized entries.
func UnmarshalSnapshot(buf []byte) (*Snapshot, error) {
	dec := types.NewDecoder(buf)
	if magic := dec.Bytes2(); !bytes.Equal(magic, snapshotMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	s := &Snapshot{}
	s.Height = dec.Uvarint()
	s.Tip.Number = dec.Uvarint()
	s.Tip.PrevHash = dec.Bytes2()
	s.Tip.DataHash = dec.Bytes2()
	s.StateHeight.BlockNum = dec.Uvarint()
	s.StateHeight.TxNum = dec.Uvarint()
	s.StateHash = dec.Bytes2()
	entriesBuf := dec.Bytes2()
	idxBuf := dec.Bytes2()
	if err := dec.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	entDec := types.NewDecoder(entriesBuf)
	entries, err := statedb.UnmarshalEntries(entDec)
	if err != nil {
		return nil, fmt.Errorf("%w: entries: %v", ErrBadSnapshot, err)
	}
	if err := entDec.Finish(); err != nil {
		return nil, fmt.Errorf("%w: entries: %v", ErrBadSnapshot, err)
	}
	s.Entries = entries
	idxDec := types.NewDecoder(idxBuf)
	idx, err := UnmarshalIndexSnapshot(idxDec)
	if err != nil {
		return nil, fmt.Errorf("%w: index: %v", ErrBadSnapshot, err)
	}
	if err := idxDec.Finish(); err != nil {
		return nil, fmt.Errorf("%w: index: %v", ErrBadSnapshot, err)
	}
	s.Index = idx
	if s.Height == 0 || s.Height-1 != s.Tip.Number {
		return nil, fmt.Errorf("%w: tip %d does not match height %d", ErrBadSnapshot, s.Tip.Number, s.Height)
	}
	if got := statedb.HashEntries(s.Entries, s.StateHeight); !bytes.Equal(got, s.StateHash) {
		return nil, fmt.Errorf("%w: state hash mismatch", ErrBadSnapshot)
	}
	return s, nil
}

// --- checkpoint files ---

const (
	checkpointDirName = "checkpoints"
	checkpointKeep    = 2 // retained checkpoint files (newest first)
	ckptPrefix        = "ckpt-"
)

func checkpointPath(dir string, height uint64) string {
	return filepath.Join(dir, checkpointDirName, fmt.Sprintf("%s%012d", ckptPrefix, height))
}

// writeCheckpoint persists a snapshot as the checkpoint at its height
// (atomic tmp+rename) and prunes all but the newest checkpointKeep.
func writeCheckpoint(dir string, snap *Snapshot) error {
	ckptDir := filepath.Join(dir, checkpointDirName)
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		return fmt.Errorf("ledger: create checkpoint dir: %w", err)
	}
	if err := wal.WriteFile(checkpointPath(dir, snap.Height), snap.Marshal()); err != nil {
		return fmt.Errorf("ledger: write checkpoint: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(ckptDir, ckptPrefix+"*"))
	if err != nil {
		return nil
	}
	sort.Strings(names)
	for i := 0; i < len(names)-checkpointKeep; i++ {
		os.Remove(names[i])
	}
	return nil
}

// loadLatestCheckpoint returns the newest readable checkpoint under
// dir, or nil when none exists. A corrupt newest checkpoint (crash
// while pruning, disk damage) falls back to the next older one.
func loadLatestCheckpoint(dir string) (*Snapshot, error) {
	names, err := filepath.Glob(filepath.Join(dir, checkpointDirName, ckptPrefix+"*"))
	if err != nil || len(names) == 0 {
		return nil, nil
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, path := range names {
		if filepath.Ext(path) == ".tmp" {
			continue
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		snap, err := UnmarshalSnapshot(buf)
		if err != nil {
			continue
		}
		return snap, nil
	}
	return nil, nil
}
