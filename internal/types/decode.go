package types

import (
	"fmt"
	"strings"
)

// txDecoder is the one decode of Transaction envelopes, shared by
// Block.Transactions, UnmarshalTransaction, PeekEnvelopeInfo and
// PeekEnvelopeInfos (and, for their parts, by UnmarshalProposal,
// UnmarshalProposalResponse and UnmarshalRWSet). It copies no field out
// of the envelope: every []byte field is a capacity-capped view of the
// input, every string a substring of one string copy of the whole block
// or batch, and the slices a block's or batch's envelopes hold are
// carved from shared slabs.
// Empty fields decode to nil and "", so no empty view pins an envelope.
type txDecoder struct {
	Decoder
	s    string // the current envelope's part of the copy, which strings share
	rest string // the envelopes after it, in the same copy

	// Where the current envelope sits in its block, for sizing slabs.
	done  int // envelopes decoded before it
	left  int // envelopes after it
	later int // bytes in the envelopes after it

	args   slab[[]byte]
	ends   slab[Endorsement]
	reads  slab[KVRead]
	writes slab[KVWrite]
}

// Minimum encoded sizes, which bound how many elements the bytes left
// can hold: one length prefix per field, one byte per varint or bool.
const (
	minArgSize         = 1 // length
	minEndorsementSize = 3 // EndorserID, EndorserOrg, Signature
	minReadSize        = 4 // Key, BlockNum, TxNum, Exists
	minWriteSize       = 3 // Key, Value, IsDelete
)

// begin copies envs, a block's or a batch's envelopes, into one string,
// and returns their total size. Each start then takes the next
// envelope's part of it.
func (d *txDecoder) begin(envs [][]byte) int {
	n := 0
	for _, env := range envs {
		n += len(env)
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, env := range envs {
		sb.Write(env)
	}
	d.rest = sb.String()
	return n
}

// start points the decoder at env, the next envelope of those begin
// copied.
func (d *txDecoder) start(env []byte, done, left, later int) {
	d.Decoder = Decoder{buf: env}
	d.s, d.rest = d.rest[:len(env)], d.rest[len(env):]
	d.done, d.left, d.later = done, left, later
}

// startOne copies the single envelope env and points the decoder at it.
func (d *txDecoder) startOne(env []byte) {
	d.begin([][]byte{env})
	d.start(env, 0, 0, 0)
}

// transaction decodes the current envelope into t.
func (d *txDecoder) transaction(t *Transaction) error {
	d.proposal(&t.Proposal)
	d.rwset(&t.Results)
	t.Endorsements = d.ends.take(d, d.length(), minEndorsementSize)
	for i := 0; i < len(t.Endorsements) && d.err == nil; i++ {
		d.endorsement(&t.Endorsements[i])
	}
	t.ClientSig = d.bytes()
	t.SubmitTime = d.Int64()
	t.Padding = d.bytes()
	if err := d.Finish(); err != nil {
		return fmt.Errorf("unmarshal transaction: %w", err)
	}
	return nil
}

func (d *txDecoder) proposal(p *Proposal) {
	p.TxID = TxID(d.str())
	p.ChannelID = d.str()
	p.ChaincodeID = d.str()
	p.Fn = d.str()
	p.Args = d.args.take(d, d.length(), minArgSize)
	for i := 0; i < len(p.Args) && d.err == nil; i++ {
		p.Args[i] = d.bytes()
	}
	p.Creator = d.bytes()
	p.Nonce = d.bytes()
	p.Timestamp = d.Int64()
	p.TraceID = d.str()
}

// envelopeInfo is the ordering path's peek: the proposal fields conflict
// analysis and tracing read, stepping over the others with the same
// bounds checks, then the read-write set.
func (d *txDecoder) envelopeInfo(info *EnvelopeInfo) {
	info.TxID = TxID(d.str())
	d.field() // ChannelID
	info.ChaincodeID = d.str()
	d.field() // Fn
	for n := d.length(); n > 0 && d.err == nil; n-- {
		d.field() // Args
	}
	d.field() // Creator
	d.field() // Nonce
	d.Int64() // Timestamp
	info.TraceID = d.str()
	d.rwset(&info.Results)
}

func (d *txDecoder) rwset(rw *RWSet) {
	rw.Reads = d.reads.take(d, d.length(), minReadSize)
	for i := 0; i < len(rw.Reads) && d.err == nil; i++ {
		r := &rw.Reads[i]
		r.Key = d.str()
		r.Version.BlockNum = d.Uvarint()
		r.Version.TxNum = d.Uvarint()
		r.Exists = d.Bool()
	}
	rw.Writes = d.writes.take(d, d.length(), minWriteSize)
	for i := 0; i < len(rw.Writes) && d.err == nil; i++ {
		w := &rw.Writes[i]
		w.Key = d.str()
		w.Value = d.bytes()
		w.IsDelete = d.Bool()
	}
}

func (d *txDecoder) endorsement(en *Endorsement) {
	en.EndorserID = d.str()
	en.EndorserOrg = d.str()
	en.Signature = d.bytes()
}

// str reads a length-prefixed string as a substring of the envelope's
// part of the string copy.
func (d *txDecoder) str() string {
	n := d.length()
	if n == 0 {
		return ""
	}
	s := d.s[d.off : d.off+n]
	d.off += n
	return s
}

// bytes reads a length-prefixed field as a view of the envelope whose
// capacity ends with the field, so an append copies instead of
// overwriting what follows.
func (d *txDecoder) bytes() []byte {
	n := d.length()
	if n == 0 {
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// slab hands out runs of one backing array, so the many short slices of
// a block's transactions cost a few allocations instead of one each.
type slab[T any] struct {
	free []T
	used int // elements handed out so far
}

// take returns n zeroed elements, capacity-capped so an append cannot
// reach the next run. When the backing array runs short, the next one is
// sized for the rest of the block at the mean per envelope so far, but
// for no more elements than the bytes left could encode, so a hostile
// count cannot make it outgrow the input. A zero n still returns a
// non-nil slice, as the copying decode's make did.
func (s *slab[T]) take(d *txDecoder, n, minSize int) []T {
	s.used += n
	if len(s.free) < n || s.free == nil {
		mean := (s.used + d.done) / (d.done + 1) // rounded up
		want := min(mean*(d.left+1), (d.Remaining()+d.later)/minSize)
		s.free = make([]T, max(want, n))
	}
	run := s.free[:n:n]
	s.free = s.free[n:]
	return run
}
