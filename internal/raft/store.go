package raft

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fabricsim/internal/types"
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

// FileStore persists hard state and log entries in a single WAL file,
// following the internal/ledger on-disk idiom: uvarint length-prefixed
// records, a torn tail truncated on open, and compaction by rewriting
// to a temp file and renaming over the WAL.
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
	dir    string
	f      *os.File
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

// NewFileStore opens (or creates) the WAL under dir, replaying it into
// memory and truncating any torn tail left by a crash mid-append.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("raft: create store dir: %w", err)
	}
	s := &FileStore{dir: dir}
	path := filepath.Join(dir, walName)
	if err := s.replay(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("raft: open wal: %w", err)
	}
	s.f = f
	return s, nil
}

// replay scans the WAL, applying records to the in-memory mirror and
// truncating the file at the first torn or undecodable record.
func (s *FileStore) replay(path string) error {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("raft: read wal: %w", err)
	}
	off := 0
	for off < len(raw) {
		length, k := binary.Uvarint(raw[off:])
		if k <= 0 || off+k+int(length) > len(raw) {
			break // torn tail
		}
		if !s.applyRecord(raw[off+k : off+k+int(length)]) {
			break
		}
		off += k + int(length)
	}
	if off < len(raw) {
		if err := os.Truncate(path, int64(off)); err != nil {
			return fmt.Errorf("raft: truncate torn wal tail: %w", err)
		}
	}
	return nil
}

// applyRecord replays one decoded record payload; false means the
// record is corrupt and the scan should stop (treating it as torn).
func (s *FileStore) applyRecord(payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	dec := types.NewDecoder(payload[1:])
	switch payload[0] {
	case recBase:
		index := dec.Uvarint()
		term := dec.Uvarint()
		if dec.Finish() != nil {
			return false
		}
		s.mem.base = Entry{Term: term, Index: index}
		s.mem.entries = s.mem.entries[:0]
	case recHard:
		term := dec.Uvarint()
		voted := dec.String()
		if dec.Finish() != nil {
			return false
		}
		s.mem.hs = HardState{Term: term, VotedFor: voted}
	case recEntry:
		term := dec.Uvarint()
		index := dec.Uvarint()
		data := dec.Bytes2()
		if dec.Finish() != nil {
			return false
		}
		if index <= s.mem.base.Index {
			return false
		}
		if last := s.mem.lastIndexLocked(); index <= last {
			s.mem.entries = s.mem.entries[:index-s.mem.base.Index-1]
		} else if index != last+1 {
			return false
		}
		s.mem.entries = append(s.mem.entries, Entry{Term: term, Index: index, Data: data})
	default:
		return false
	}
	return true
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
	enc := types.NewEncoder(len(hs.VotedFor) + 16)
	enc.Byte(recHard)
	enc.Uvarint(hs.Term)
	enc.String(hs.VotedFor)
	if err := s.writeRecordLocked(enc.Bytes()); err != nil {
		return err
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
	size := 0
	for i := range entries {
		size += len(entries[i].Data) + 24
	}
	buf := make([]byte, 0, size)
	for i := range entries {
		e := &entries[i]
		enc := types.NewEncoder(len(e.Data) + 24)
		enc.Byte(recEntry)
		enc.Uvarint(e.Term)
		enc.Uvarint(e.Index)
		enc.Bytes2(e.Data)
		frame := types.NewEncoder(len(enc.Bytes()) + 10)
		frame.Bytes2(enc.Bytes())
		buf = append(buf, frame.Bytes()...)
	}
	if _, err := s.f.Write(buf); err != nil {
		return fmt.Errorf("raft: append wal: %w", err)
	}
	return nil
}

// Compact implements Store. The WAL is rewritten to a temp file
// (base record, current hard state, retained entries) and renamed over
// the old one, so a crash mid-compaction leaves either file intact.
func (s *FileStore) Compact(index, term uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("raft: store closed")
	}
	if err := s.mem.Compact(index, term); err != nil {
		return err
	}

	tmp := filepath.Join(s.dir, walName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("raft: open compaction tmp: %w", err)
	}
	if err := s.writeSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("raft: close compaction tmp: %w", err)
	}
	path := filepath.Join(s.dir, walName)
	s.f.Close()
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("raft: swap compacted wal: %w", err)
	}
	nf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("raft: reopen compacted wal: %w", err)
	}
	s.f = nf
	return nil
}

// writeSnapshot streams the mirror state as a fresh WAL.
func (s *FileStore) writeSnapshot(w io.Writer) error {
	enc := types.NewEncoder(64)
	enc.Byte(recBase)
	enc.Uvarint(s.mem.base.Index)
	enc.Uvarint(s.mem.base.Term)
	frame := types.NewEncoder(len(enc.Bytes()) + 10)
	frame.Bytes2(enc.Bytes())
	buf := frame.Bytes()

	enc = types.NewEncoder(len(s.mem.hs.VotedFor) + 16)
	enc.Byte(recHard)
	enc.Uvarint(s.mem.hs.Term)
	enc.String(s.mem.hs.VotedFor)
	frame = types.NewEncoder(len(enc.Bytes()) + 10)
	frame.Bytes2(enc.Bytes())
	buf = append(buf, frame.Bytes()...)

	for i := range s.mem.entries {
		e := &s.mem.entries[i]
		enc = types.NewEncoder(len(e.Data) + 24)
		enc.Byte(recEntry)
		enc.Uvarint(e.Term)
		enc.Uvarint(e.Index)
		enc.Bytes2(e.Data)
		frame = types.NewEncoder(len(enc.Bytes()) + 10)
		frame.Bytes2(enc.Bytes())
		buf = append(buf, frame.Bytes()...)
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("raft: write compacted wal: %w", err)
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
	if s.f != nil {
		return s.f.Close()
	}
	return nil
}

// writeRecordLocked frames one payload and appends it to the WAL.
func (s *FileStore) writeRecordLocked(payload []byte) error {
	frame := types.NewEncoder(len(payload) + 10)
	frame.Bytes2(payload)
	if _, err := s.f.Write(frame.Bytes()); err != nil {
		return fmt.Errorf("raft: append wal: %w", err)
	}
	return nil
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
