// Package wal is the one on-disk record format under every durable
// store: the Raft WAL, the state log and the block log. A log is a file
// of records, each a uvarint length followed by that many bytes (the
// framing types.Encoder.Bytes2 writes). Open replays the complete
// records and truncates a torn tail a crash mid-append left behind;
// Append adds records with one write; Rewrite replaces the whole file
// atomically by writing a temp file beside it and renaming it over the
// log, so a crash mid-rewrite leaves either the old or the new file.
//
// No fsync is issued: a write is durable once the OS has it, which is
// what the stores model.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
)

// ErrCorrupt, returned by a replay callback, marks a record as the
// start of a torn tail: Open truncates the log there.
var ErrCorrupt = errors.New("wal: corrupt record")

// Log is an open record log. Append, Rewrite and Close must not run
// concurrently with each other or with ReadAt; ReadAt calls may run
// concurrently with one another.
type Log struct {
	path string
	f    *os.File
	size int64
	buf  []byte // Append's framing buffer, reused
}

// Open opens the log at path, creating it if missing, and passes every
// complete record to replay in file order with its offset. A record
// aliases a buffer the log never reuses. The log is truncated at the
// first torn frame, or at a record replay rejects with ErrCorrupt; any
// other error from replay fails Open.
func Open(path string, replay func(off int64, rec []byte) error) (*Log, error) {
	raw, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("wal: read %s: %w", path, err)
	}
	off := 0
	for off < len(raw) {
		n, k := binary.Uvarint(raw[off:])
		if k <= 0 || n > uint64(len(raw)-off-k) {
			break // torn frame
		}
		if err := replay(int64(off), raw[off+k:off+k+int(n)]); errors.Is(err, ErrCorrupt) {
			break
		} else if err != nil {
			return nil, err
		}
		off += k + int(n)
	}
	l := &Log{path: path}
	if err := l.open(); err != nil {
		return nil, err
	}
	if off < len(raw) {
		if err := l.f.Truncate(int64(off)); err != nil {
			l.f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
	}
	l.size = int64(off)
	return l, nil
}

func (l *Log) open() error {
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open %s: %w", l.path, err)
	}
	l.f = f
	return nil
}

// frame appends the framed records to buf.
func frame(buf []byte, recs [][]byte) []byte {
	for _, rec := range recs {
		buf = binary.AppendUvarint(buf, uint64(len(rec)))
		buf = append(buf, rec...)
	}
	return buf
}

// Append frames recs into one buffer and writes it with one write. It
// returns the offset of the first record.
func (l *Log) Append(recs ...[]byte) (int64, error) {
	if l.f == nil {
		return 0, os.ErrClosed
	}
	l.buf = frame(l.buf[:0], recs)
	off := l.size
	if _, err := l.f.Write(l.buf); err != nil {
		return 0, fmt.Errorf("wal: append to %s: %w", l.path, err)
	}
	l.size += int64(len(l.buf))
	return off, nil
}

// ReadAt returns a copy of the record at off, an offset Open or Append
// reported.
func (l *Log) ReadAt(off int64) ([]byte, error) {
	if l.f == nil {
		return nil, os.ErrClosed
	}
	if off < 0 || off >= l.size {
		return nil, fmt.Errorf("wal: offset %d outside %s (%d bytes)", off, l.path, l.size)
	}
	var head [binary.MaxVarintLen64]byte
	k, err := l.f.ReadAt(head[:], off)
	if k == 0 && err != nil {
		return nil, fmt.Errorf("wal: read %s at %d: %w", l.path, off, err)
	}
	n, k := binary.Uvarint(head[:k])
	if k <= 0 || n > uint64(l.size-off-int64(k)) {
		return nil, fmt.Errorf("wal: no record in %s at %d", l.path, off)
	}
	rec := make([]byte, n)
	if _, err := l.f.ReadAt(rec, off+int64(k)); err != nil {
		return nil, fmt.Errorf("wal: read %s at %d: %w", l.path, off, err)
	}
	return rec, nil
}

// Rewrite atomically replaces the whole log with recs and reopens it
// for append. A crash mid-rewrite leaves the old log intact beside a
// stale temp file, which the next Rewrite overwrites.
func (l *Log) Rewrite(recs ...[]byte) error {
	if l.f == nil {
		return os.ErrClosed
	}
	buf := frame(nil, recs)
	if err := WriteFile(l.path, buf); err != nil {
		return err
	}
	old := l.f
	if err := l.open(); err != nil {
		l.f = nil
		old.Close()
		return err
	}
	old.Close()
	l.size = int64(len(buf))
	return nil
}

// Close releases the log; later calls fail with os.ErrClosed.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// WriteFile atomically replaces the file at path with data: it writes
// path+".tmp" and renames it over path, removing the temp file on error.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: write %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: install %s: %w", path, err)
	}
	return nil
}
