package types

import (
	"crypto/sha256"
	"fmt"
)

// Version identifies the ledger height at which a key was last written:
// the committing block number and the transaction's position inside it.
// Fabric's MVCC validation compares the version recorded in a
// transaction's read set against the version currently committed.
type Version struct {
	BlockNum uint64
	TxNum    uint64
}

// Compare orders versions lexicographically by (BlockNum, TxNum) and
// returns -1, 0, or +1.
func (v Version) Compare(o Version) int {
	switch {
	case v.BlockNum < o.BlockNum:
		return -1
	case v.BlockNum > o.BlockNum:
		return 1
	case v.TxNum < o.TxNum:
		return -1
	case v.TxNum > o.TxNum:
		return 1
	default:
		return 0
	}
}

// String renders the version as "blockNum:txNum".
func (v Version) String() string {
	return fmt.Sprintf("%d:%d", v.BlockNum, v.TxNum)
}

// KVRead records that a transaction read key at the given committed
// version. Exists is false when the key was absent at simulation time.
type KVRead struct {
	Key     string
	Version Version
	Exists  bool
}

// KVWrite records a write (or delete) performed by a transaction.
type KVWrite struct {
	Key      string
	Value    []byte
	IsDelete bool
}

// RWSet is the read-write set produced by simulating a chaincode
// invocation during the execute phase and validated during the validate
// phase (MVCC). Reads and Writes are kept in the order the chaincode
// issued them; the codec preserves that order so the set hashes
// deterministically.
type RWSet struct {
	Reads  []KVRead
	Writes []KVWrite
}

// encode appends the set to enc.
func (rw *RWSet) encode(enc *Encoder) {
	enc.Uvarint(uint64(len(rw.Reads)))
	for _, r := range rw.Reads {
		enc.String(r.Key)
		enc.Uvarint(r.Version.BlockNum)
		enc.Uvarint(r.Version.TxNum)
		enc.Bool(r.Exists)
	}
	enc.Uvarint(uint64(len(rw.Writes)))
	for _, w := range rw.Writes {
		enc.String(w.Key)
		enc.Bytes2(w.Value)
		enc.Bool(w.IsDelete)
	}
}

// Marshal returns the deterministic binary encoding of the set.
func (rw *RWSet) Marshal() []byte {
	enc := NewEncoder(64 + 32*len(rw.Reads) + 64*len(rw.Writes))
	rw.encode(enc)
	return enc.Bytes()
}

// Size returns the length of the set's encoding without encoding it.
func (rw *RWSet) Size() int {
	n := uvarintSize(uint64(len(rw.Reads))) + uvarintSize(uint64(len(rw.Writes)))
	for i := range rw.Reads {
		r := &rw.Reads[i]
		n += fieldSize(len(r.Key)) + uvarintSize(r.Version.BlockNum) + uvarintSize(r.Version.TxNum) + 1
	}
	for i := range rw.Writes {
		w := &rw.Writes[i]
		n += fieldSize(len(w.Key)) + fieldSize(len(w.Value)) + 1
	}
	return n
}

// Hash returns the SHA-256 digest of the set's encoding, the same bytes
// as fabcrypto.Digest(rw.Marshal()), encoding the set in a pooled
// buffer. Like Proposal.Hash it inlines, so a digest that does not
// escape stays on the caller's stack.
func (rw *RWSet) Hash() []byte {
	sum := rw.hash()
	return sum[:]
}

func (rw *RWSet) hash() [sha256.Size]byte {
	enc := hashEncoder()
	rw.encode(enc)
	return sumAndRelease(enc)
}

// UnmarshalRWSet decodes a set previously produced by Marshal. Its keys
// and values are read-only views of b, as a decoded Transaction's are.
func UnmarshalRWSet(b []byte) (*RWSet, error) {
	var d txDecoder
	d.startOne(b)
	var rw RWSet
	d.rwset(&rw)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("unmarshal rwset: %w", err)
	}
	return &rw, nil
}
