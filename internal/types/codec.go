// Package types defines the wire- and ledger-level data model of the
// Fabric reproduction: proposals, endorsements, transactions, read-write
// sets, and blocks, together with a deterministic binary codec.
//
// Hyperledger Fabric serializes these structures with protobuf; this
// reproduction uses a hand-rolled deterministic encoding (stdlib only)
// so that hashes over encoded bytes are stable across processes.
package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Codec errors.
var (
	// ErrShortBuffer is returned when a decode runs past the end of input.
	ErrShortBuffer = errors.New("types: short buffer")
	// ErrOversize is returned when a length prefix exceeds sane limits.
	ErrOversize = errors.New("types: oversized field")
)

// maxFieldLen bounds any single length-prefixed field to guard against
// corrupt or adversarial inputs blowing up allocations.
const maxFieldLen = 1 << 28 // 256 MiB

// Encoder accumulates a deterministic binary encoding. The zero value is
// ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity preallocated.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded bytes accumulated so far. The returned slice
// aliases the encoder's internal buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Uint64 appends a fixed-width big-endian uint64.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Int64 appends a fixed-width big-endian int64.
func (e *Encoder) Int64(v int64) {
	e.Uint64(uint64(v))
}

// Bool appends a single 0/1 byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
		return
	}
	e.buf = append(e.buf, 0)
}

// Byte appends a raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bytes2 appends a length-prefixed byte slice.
func (e *Encoder) Bytes2(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// uvarintSize is the length of v's Uvarint encoding.
func uvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// fieldSize is the encoded length of an n-byte Bytes2 or String field.
func fieldSize(n int) int { return uvarintSize(uint64(n)) + n }

// Decoder consumes a deterministic binary encoding produced by Encoder.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps buf for decoding. The decoder does not copy buf.
func NewDecoder(buf []byte) *Decoder {
	return &Decoder{buf: buf}
}

// Err returns the first error encountered while decoding, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish returns an error if decoding failed or trailing bytes remain.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("types: %d trailing bytes after decode", len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(ErrShortBuffer)
		return 0
	}
	d.off += n
	return v
}

// Uint64 reads a fixed-width big-endian uint64.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail(ErrShortBuffer)
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Int64 reads a fixed-width big-endian int64.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Bool reads a single 0/1 byte.
func (d *Decoder) Bool() bool {
	return d.Byte() != 0
}

// Byte reads a raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 1 {
		d.fail(ErrShortBuffer)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// length reads a length prefix or an element count and checks it against
// the bytes left: a field needs that many, and every counted element
// occupies at least one. A corrupt or hostile prefix fails here, before
// anything is sized by it; length then returns 0.
func (d *Decoder) length() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > maxFieldLen {
		d.fail(ErrOversize)
		return 0
	}
	if uint64(d.Remaining()) < n {
		d.fail(ErrShortBuffer)
		return 0
	}
	return int(n)
}

// field consumes a length-prefixed field and returns its bytes, which
// alias the input.
func (d *Decoder) field() []byte {
	n := d.length()
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Bytes2 reads a length-prefixed byte slice. The result is a copy.
func (d *Decoder) Bytes2() []byte {
	b := d.field()
	if len(b) == 0 {
		return nil // nil is the canonical empty slice
	}
	return append([]byte(nil), b...)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	return string(d.field())
}
