package ledger

import (
	"fmt"
	"os"
	"path/filepath"

	"fabricsim/internal/types"
	"fabricsim/internal/wal"
)

// The "file" block store keeps one record log (internal/wal),
// blocks.log under its directory. Record 0 is the uvarint number of
// the first retained block (the base); every later record is one block
// encoding, in number order. Open rebuilds the offset of every block by
// replaying the log, truncating a torn trailing record (crash
// mid-append). Reset atomically rewrites the log as a new head record
// alone.
const blockLogName = "blocks.log"

type fileStore struct {
	log     *wal.Log
	base    uint64
	offsets []int64 // offset of block base+i's record
}

var _ BlockStore = (*fileStore)(nil)

// headRecord encodes the log's record 0.
func headRecord(base uint64) []byte {
	enc := types.NewEncoder(10)
	enc.Uvarint(base)
	return enc.Bytes()
}

// openFileStore opens (or creates) the block log under dir and
// rebuilds the offset index.
func openFileStore(dir string) (*fileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: create block dir: %w", err)
	}
	s := &fileStore{}
	head := false
	log, err := wal.Open(filepath.Join(dir, blockLogName), func(off int64, rec []byte) error {
		if off > 0 {
			s.offsets = append(s.offsets, off)
			return nil
		}
		dec := types.NewDecoder(rec)
		s.base = dec.Uvarint()
		if dec.Finish() != nil {
			return wal.ErrCorrupt
		}
		head = true
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ledger: open block log: %w", err)
	}
	s.log = log
	if !head {
		if err := s.Reset(0); err != nil {
			log.Close()
			return nil, err
		}
	}
	return s, nil
}

func (s *fileStore) Append(b *types.Block) error {
	if want := s.Height(); b.Header.Number != want {
		return fmt.Errorf("%w: got %d want %d", ErrBadNumber, b.Header.Number, want)
	}
	off, err := s.log.Append(b.Marshal())
	if err != nil {
		return fmt.Errorf("ledger: append block: %w", err)
	}
	s.offsets = append(s.offsets, off)
	return nil
}

func (s *fileStore) Get(num uint64) (*types.Block, error) {
	if num < s.base || num >= s.Height() {
		return nil, fmt.Errorf("%w: block %d (have [%d,%d))", ErrNotFound, num, s.base, s.Height())
	}
	rec, err := s.log.ReadAt(s.offsets[num-s.base])
	if err != nil {
		return nil, fmt.Errorf("ledger: read block %d: %w", num, err)
	}
	b, err := types.UnmarshalBlock(rec)
	if err != nil {
		return nil, fmt.Errorf("ledger: decode block %d: %w", num, err)
	}
	return b, nil
}

func (s *fileStore) Height() uint64 { return s.base + uint64(len(s.offsets)) }
func (s *fileStore) Base() uint64   { return s.base }

// Reset atomically rewrites the log as a head record at base alone: a
// crash mid-reset leaves either the old store or the reset one.
func (s *fileStore) Reset(base uint64) error {
	if err := s.log.Rewrite(headRecord(base)); err != nil {
		return fmt.Errorf("ledger: reset block log: %w", err)
	}
	s.base = base
	s.offsets = nil
	return nil
}

func (s *fileStore) Close() error { return s.log.Close() }
