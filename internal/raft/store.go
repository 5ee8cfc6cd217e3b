package raft

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fabricsim/internal/types"
	"fabricsim/internal/wal"
)

// HardState is the Raft state that must survive a crash (Figure 2 of
// the Raft paper): the latest term this node has seen and the candidate
// it voted for in that term. Losing either breaks election safety — a
// restarted node could vote twice in one term or accept a stale leader.
type HardState struct {
	Term     uint64
	VotedFor string
}

// Store persists a node's hard state and log. All methods are called
// with the node's mutex held, so implementations see writes in log
// order and only need to be safe against concurrent Load/Close from
// the harness.
type Store interface {
	// Load returns the persisted hard state, the compaction base (a
	// sentinel entry: the index/term of the last compacted-away entry,
	// {0,0} for a fresh log), and all entries after the base in index
	// order.
	Load() (HardState, Entry, []Entry, error)
	// SaveHardState durably records term and vote.
	SaveHardState(hs HardState) error
	// AppendEntries appends entries starting at entries[0].Index,
	// logically truncating any previously stored suffix from that index
	// (leader overwrite after a term change).
	AppendEntries(entries []Entry) error
	// Compact discards entries at or below index, recording index/term
	// as the new base.
	Compact(index, term uint64) error
	// Close releases resources; the store must not be used afterwards.
	Close() error
}

// MemStore is an in-memory Store. Held outside the node, it survives
// node restarts and so models durable state without touching disk.
type MemStore struct {
	mu      sync.Mutex
	hs      HardState
	base    Entry
	entries []Entry
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Load implements Store.
func (s *MemStore) Load() (HardState, Entry, []Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := make([]Entry, len(s.entries))
	copy(entries, s.entries)
	return s.hs, s.base, entries, nil
}

// SaveHardState implements Store.
func (s *MemStore) SaveHardState(hs HardState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hs = hs
	return nil
}

// AppendEntries implements Store.
func (s *MemStore) AppendEntries(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	first := entries[0].Index
	if first <= s.base.Index {
		return fmt.Errorf("raft: append at %d below compaction base %d", first, s.base.Index)
	}
	if last := s.lastIndexLocked(); first > last+1 {
		return fmt.Errorf("raft: append at %d leaves gap after %d", first, last)
	}
	s.entries = append(s.entries[:first-s.base.Index-1], entries...)
	return nil
}

// Compact implements Store.
func (s *MemStore) Compact(index, term uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if index <= s.base.Index {
		return nil
	}
	if last := s.lastIndexLocked(); index > last {
		return fmt.Errorf("raft: compact to %d beyond last index %d", index, last)
	}
	s.entries = append([]Entry(nil), s.entries[index-s.base.Index:]...)
	s.base = Entry{Term: term, Index: index}
	return nil
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

func (s *MemStore) lastIndexLocked() uint64 {
	if len(s.entries) == 0 {
		return s.base.Index
	}
	return s.entries[len(s.entries)-1].Index
}

// FileStore persists hard state and log entries in one record log
// (internal/wal), raft.wal under its directory: a torn tail is
// truncated on open, and compaction rewrites the log atomically.
//
// Record payloads are one type byte followed by codec fields:
//
//	base:  uvarint index, uvarint term   (always the first record)
//	hard:  uvarint term, string votedFor (latest wins)
//	entry: uvarint term, uvarint index, bytes2 data
//
// An entry record whose index is at or below the last replayed index
// truncates the in-memory suffix from that index — the on-disk tail is
// superseded in place of rewriting the file on every conflict.
type FileStore struct {
	mu     sync.Mutex
	log    *wal.Log
	closed bool

	mem MemStore
}

const walName = "raft.wal"

// WAL record types.
const (
	recBase  = 1
	recHard  = 2
	recEntry = 3
)

func baseRecord(base Entry) []byte {
	enc := types.NewEncoder(24)
	enc.Byte(recBase)
	enc.Uvarint(base.Index)
	enc.Uvarint(base.Term)
	return enc.Bytes()
}

func hardRecord(hs HardState) []byte {
	enc := types.NewEncoder(len(hs.VotedFor) + 16)
	enc.Byte(recHard)
	enc.Uvarint(hs.Term)
	enc.String(hs.VotedFor)
	return enc.Bytes()
}

func entryRecord(e *Entry) []byte {
	enc := types.NewEncoder(len(e.Data) + 24)
	enc.Byte(recEntry)
	enc.Uvarint(e.Term)
	enc.Uvarint(e.Index)
	enc.Bytes2(e.Data)
	return enc.Bytes()
}

// NewFileStore opens (or creates) the WAL under dir, replaying it into
// memory and truncating any torn tail left by a crash mid-append.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("raft: create store dir: %w", err)
	}
	s := &FileStore{}
	log, err := wal.Open(filepath.Join(dir, walName), s.applyRecord)
	if err != nil {
		return nil, fmt.Errorf("raft: open wal: %w", err)
	}
	s.log = log
	return s, nil
}

// applyRecord replays one record payload into the mirror; a corrupt
// record returns wal.ErrCorrupt, so replay treats it as a torn tail.
func (s *FileStore) applyRecord(_ int64, payload []byte) error {
	if len(payload) == 0 {
		return wal.ErrCorrupt
	}
	dec := types.NewDecoder(payload[1:])
	switch payload[0] {
	case recBase:
		index := dec.Uvarint()
		term := dec.Uvarint()
		if dec.Finish() != nil {
			return wal.ErrCorrupt
		}
		s.mem.base = Entry{Term: term, Index: index}
		s.mem.entries = s.mem.entries[:0]
	case recHard:
		term := dec.Uvarint()
		voted := dec.String()
		if dec.Finish() != nil {
			return wal.ErrCorrupt
		}
		s.mem.hs = HardState{Term: term, VotedFor: voted}
	case recEntry:
		term := dec.Uvarint()
		index := dec.Uvarint()
		data := dec.Bytes2()
		if dec.Finish() != nil {
			return wal.ErrCorrupt
		}
		if index <= s.mem.base.Index {
			return wal.ErrCorrupt
		}
		if last := s.mem.lastIndexLocked(); index <= last {
			s.mem.entries = s.mem.entries[:index-s.mem.base.Index-1]
		} else if index != last+1 {
			return wal.ErrCorrupt
		}
		s.mem.entries = append(s.mem.entries, Entry{Term: term, Index: index, Data: data})
	default:
		return wal.ErrCorrupt
	}
	return nil
}

// Load implements Store.
func (s *FileStore) Load() (HardState, Entry, []Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return HardState{}, Entry{}, nil, errors.New("raft: store closed")
	}
	return s.mem.Load()
}

// SaveHardState implements Store.
func (s *FileStore) SaveHardState(hs HardState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("raft: store closed")
	}
	if _, err := s.log.Append(hardRecord(hs)); err != nil {
		return fmt.Errorf("raft: append wal: %w", err)
	}
	return s.mem.SaveHardState(hs)
}

// AppendEntries implements Store.
func (s *FileStore) AppendEntries(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("raft: store closed")
	}
	if err := s.mem.AppendEntries(entries); err != nil {
		return err
	}
	recs := make([][]byte, len(entries))
	for i := range entries {
		recs[i] = entryRecord(&entries[i])
	}
	if _, err := s.log.Append(recs...); err != nil {
		return fmt.Errorf("raft: append wal: %w", err)
	}
	return nil
}

// Compact implements Store. The WAL is rewritten atomically as the base
// record, the current hard state and the retained entries.
func (s *FileStore) Compact(index, term uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("raft: store closed")
	}
	if err := s.mem.Compact(index, term); err != nil {
		return err
	}
	recs := make([][]byte, 0, 2+len(s.mem.entries))
	recs = append(recs, baseRecord(s.mem.base), hardRecord(s.mem.hs))
	for i := range s.mem.entries {
		recs = append(recs, entryRecord(&s.mem.entries[i]))
	}
	if err := s.log.Rewrite(recs...); err != nil {
		return fmt.Errorf("raft: compact wal: %w", err)
	}
	return nil
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.log.Close()
}

// TimedStore decorates a Store with cumulative wall-clock accounting of
// its durable writes (SaveHardState, AppendEntries, Compact). Tracing
// reads the counter before a propose and after the matching apply, so
// the delta is the persist time a consensus round actually paid on this
// node. Reads are lock-free.
type TimedStore struct {
	inner Store
	ns    atomic.Int64
}

// NewTimedStore wraps a store with persist-time accounting.
func NewTimedStore(s Store) *TimedStore { return &TimedStore{inner: s} }

// PersistTime returns the cumulative wall time spent in durable writes.
func (t *TimedStore) PersistTime() time.Duration {
	return time.Duration(t.ns.Load())
}

// Load implements Store.
func (t *TimedStore) Load() (HardState, Entry, []Entry, error) { return t.inner.Load() }

// SaveHardState implements Store.
func (t *TimedStore) SaveHardState(hs HardState) error {
	start := time.Now()
	err := t.inner.SaveHardState(hs)
	t.ns.Add(int64(time.Since(start)))
	return err
}

// AppendEntries implements Store.
func (t *TimedStore) AppendEntries(entries []Entry) error {
	start := time.Now()
	err := t.inner.AppendEntries(entries)
	t.ns.Add(int64(time.Since(start)))
	return err
}

// Compact implements Store.
func (t *TimedStore) Compact(index, term uint64) error {
	start := time.Now()
	err := t.inner.Compact(index, term)
	t.ns.Add(int64(time.Since(start)))
	return err
}

// Close implements Store.
func (t *TimedStore) Close() error { return t.inner.Close() }
