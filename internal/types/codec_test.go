package types

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"testing/quick"
)

func TestEncoderDecoderRoundTrip(t *testing.T) {
	enc := NewEncoder(64)
	enc.Uvarint(42)
	enc.Uint64(1 << 60)
	enc.Int64(-17)
	enc.Bool(true)
	enc.Bool(false)
	enc.Byte(0xAB)
	enc.Bytes2([]byte("hello"))
	enc.String("world")

	dec := NewDecoder(enc.Bytes())
	if got := dec.Uvarint(); got != 42 {
		t.Errorf("Uvarint = %d, want 42", got)
	}
	if got := dec.Uint64(); got != 1<<60 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := dec.Int64(); got != -17 {
		t.Errorf("Int64 = %d, want -17", got)
	}
	if !dec.Bool() || dec.Bool() {
		t.Error("Bool values wrong")
	}
	if got := dec.Byte(); got != 0xAB {
		t.Errorf("Byte = %x", got)
	}
	if got := dec.Bytes2(); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("Bytes2 = %q", got)
	}
	if got := dec.String(); got != "world" {
		t.Errorf("String = %q", got)
	}
	if err := dec.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}
}

func TestDecoderShortBuffer(t *testing.T) {
	enc := NewEncoder(16)
	enc.Bytes2([]byte("abcdef"))
	full := enc.Bytes()
	for cut := 0; cut < len(full); cut++ {
		dec := NewDecoder(full[:cut])
		dec.Bytes2()
		if dec.Err() == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	enc := NewEncoder(8)
	enc.Uvarint(7)
	buf := append(enc.Bytes(), 0x01)
	dec := NewDecoder(buf)
	dec.Uvarint()
	if err := dec.Finish(); err == nil {
		t.Error("trailing byte not detected")
	}
}

func TestDecoderOversizeGuard(t *testing.T) {
	enc := NewEncoder(16)
	enc.Uvarint(uint64(maxFieldLen) + 1)
	dec := NewDecoder(enc.Bytes())
	if dec.Bytes2() != nil || dec.Err() == nil {
		t.Error("oversized length not rejected")
	}
}

func TestUvarintRoundTripProperty(t *testing.T) {
	f := func(v uint64) bool {
		enc := NewEncoder(10)
		enc.Uvarint(v)
		dec := NewDecoder(enc.Bytes())
		return dec.Uvarint() == v && dec.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesStringRoundTripProperty(t *testing.T) {
	f := func(b []byte, s string) bool {
		enc := NewEncoder(len(b) + len(s) + 16)
		enc.Bytes2(b)
		enc.String(s)
		dec := NewDecoder(enc.Bytes())
		gb := dec.Bytes2()
		gs := dec.String()
		return bytes.Equal(gb, b) && gs == s && dec.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDecodeHostileCounts feeds every decoder that sizes a slice from the
// wire a few bytes claiming 2^28-1 elements. The orderer runs these on
// untrusted bytes at broadcast ingress: each must fail, and must fail
// before allocating what the count asks for (the first case used to
// allocate 6 GiB on its way to "short buffer"). A block read from disk
// may also claim more early-aborted transactions than it carries. Every
// decoder wraps its error, so callers can tell which decode failed.
func TestDecodeHostileCounts(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0x7f} // uvarint 2^28-1, just under maxFieldLen
	with := func(encode func(*Encoder)) []byte {
		enc := NewEncoder(64)
		encode(enc)
		return append(enc.Bytes(), huge...)
	}
	emptyProposal := func(enc *Encoder) { (&Proposal{}).encode(enc) }
	// TxID, ChannelID, ChaincodeID and Fn empty, then the Args count.
	args := append([]byte{0, 0, 0, 0}, huge...)
	header := func(enc *Encoder) {
		enc.Uvarint(1)
		enc.Bytes2(nil)
		enc.Bytes2(nil)
	}
	peek := func(b []byte) error { _, err := PeekEnvelopeInfo(b); return err }
	transaction := func(b []byte) error { _, err := UnmarshalTransaction(b); return err }
	block := func(b []byte) error { _, err := UnmarshalBlock(b); return err }
	// A block of one empty envelope and one flag whose metadata ends in
	// an early-abort count.
	earlyAborted := func(n uint64) []byte {
		b := (&Block{Data: [][]byte{nil}, Metadata: BlockMetadata{ValidationFlags: []ValidationCode{0}}}).Marshal()
		return binary.AppendUvarint(b[:len(b)-1], n)
	}
	cases := []struct {
		name   string
		input  []byte
		decode func([]byte) error
		want   error
	}{
		{"peek args", args, peek, ErrShortBuffer},
		{"peek reads", with(emptyProposal), peek, ErrShortBuffer},
		{"peek writes", with(func(enc *Encoder) { emptyProposal(enc); enc.Uvarint(0) }), peek, ErrShortBuffer},
		{"proposal args", args, func(b []byte) error { _, err := UnmarshalProposal(b); return err }, ErrShortBuffer},
		{"rwset reads", huge, func(b []byte) error { _, err := UnmarshalRWSet(b); return err }, ErrShortBuffer},
		{"transaction args", args, transaction, ErrShortBuffer},
		{"transaction endorsements", with(func(enc *Encoder) { emptyProposal(enc); (&RWSet{}).encode(enc) }), transaction, ErrShortBuffer},
		{"block data", with(header), block, ErrShortBuffer},
		{"block flags", with(func(enc *Encoder) { header(enc); enc.Uvarint(0) }), block, ErrShortBuffer},
		{"block early aborts past the field limit", earlyAborted(maxFieldLen + 1), block, ErrOversize},
		{"block early aborts past its transactions", earlyAborted(2), block, ErrOversize},
	}
	if err := block(earlyAborted(1)); err != nil {
		t.Fatalf("block whose one transaction was early-aborted: %v", err)
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode(c.input)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, c.want) || err == c.want {
			t.Errorf("%s: err = %v, want it to wrap %v", c.name, err, c.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: allocated %d bytes decoding %d", c.name, got, len(c.input))
		}
	}
}
