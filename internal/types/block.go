package types

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// BlockHeader chains a block to its predecessor. DataHash commits to the
// ordered transaction payloads; PrevHash is the SHA-256 of the previous
// header's encoding, making the ledger tamper-evident.
type BlockHeader struct {
	Number   uint64
	PrevHash []byte
	DataHash []byte
}

// Marshal returns the deterministic encoding of the header.
func (h *BlockHeader) Marshal() []byte {
	enc := NewEncoder(80)
	enc.Uvarint(h.Number)
	enc.Bytes2(h.PrevHash)
	enc.Bytes2(h.DataHash)
	return enc.Bytes()
}

// Hash returns the SHA-256 digest of the encoded header — the value the
// next block records as PrevHash.
func (h *BlockHeader) Hash() []byte {
	sum := sha256.Sum256(h.Marshal())
	return sum[:]
}

// BlockMetadata carries per-transaction validation flags, written by the
// committing peer after the validate phase, plus ordering timestamps
// used to compute the paper's "block time" metric (Definition 4.3).
type BlockMetadata struct {
	ValidationFlags []ValidationCode
	// OrderedTime is the unix-nano timestamp at which the ordering
	// service cut this block.
	OrderedTime int64
	// OrdererID names the ordering-service node that cut the block.
	OrdererID string
	// ChannelID names the channel whose chain this block extends. Each
	// channel numbers its blocks independently, so peers route delivered
	// blocks to the matching per-channel commit pipeline by this field.
	// Empty means the node's default (first configured) channel.
	ChannelID string
	// Reordered marks a block whose transactions went through the
	// conflict-aware cutter: survivors are in dependency order (every
	// intra-block read precedes the writes it conflicts with) and any
	// early-aborted transactions sit at the tail. Committers may then
	// fan MVCC validation out across true dependency chains instead of
	// coarse key-overlap groups.
	Reordered bool
	// EarlyAborted is the count of trailing transactions the cutter
	// aborted (unresolvable read-write cycles). Committers flag them
	// EARLY_ABORT_CONFLICT without spending validate CPU on them.
	EarlyAborted int
}

// Block is the unit the ordering service emits and peers validate and
// commit. Data holds encoded Transaction envelopes in consensus order.
type Block struct {
	Header   BlockHeader
	Data     [][]byte
	Metadata BlockMetadata
}

// ComputeDataHash hashes the concatenation of length-prefixed payloads.
func ComputeDataHash(data [][]byte) []byte {
	h := sha256.New()
	var lenBuf [binary.MaxVarintLen64]byte
	for _, d := range data {
		n := binary.PutUvarint(lenBuf[:], uint64(len(d)))
		h.Write(lenBuf[:n])
		h.Write(d)
	}
	return h.Sum(nil)
}

// NewBlock assembles a block over the given encoded transactions,
// chaining it to prevHash.
func NewBlock(number uint64, prevHash []byte, data [][]byte) *Block {
	return &Block{
		Header: BlockHeader{
			Number:   number,
			PrevHash: prevHash,
			DataHash: ComputeDataHash(data),
		},
		Data: data,
		Metadata: BlockMetadata{
			ValidationFlags: make([]ValidationCode, len(data)),
		},
	}
}

// VerifyDataHash checks that Data matches the header's DataHash.
func (b *Block) VerifyDataHash() error {
	if got := ComputeDataHash(b.Data); !bytes.Equal(got, b.Header.DataHash) {
		return fmt.Errorf("block %d: data hash mismatch", b.Header.Number)
	}
	return nil
}

// Transactions decodes every envelope in the block. A decoding failure
// on any transaction aborts with an error; the committer treats that as
// a BAD_PAYLOAD block.
//
// The transactions are read-only views of the block, decoded without
// copying a field: their []byte fields alias Data, their strings share
// one string copy of the whole block, and their slices share a few
// arrays per block. Nothing may write to them, and what outlives the
// block's commit must be copied, or it keeps the block's whole copy
// alive: the ledger's tx index copies each TxID it keeps and the state
// DB each new key and namespace, so a committed block's bytes can still
// be collected.
func (b *Block) Transactions() ([]*Transaction, error) {
	var d txDecoder
	later := d.begin(b.Data)
	slab := make([]Transaction, len(b.Data))
	txs := make([]*Transaction, len(b.Data))
	for i, env := range b.Data {
		later -= len(env)
		d.start(env, i, len(b.Data)-1-i, later)
		if err := d.transaction(&slab[i]); err != nil {
			return nil, fmt.Errorf("block %d tx %d: %w", b.Header.Number, i, err)
		}
		txs[i] = &slab[i]
	}
	return txs, nil
}

// Marshal returns the deterministic encoding of the whole block.
func (b *Block) Marshal() []byte {
	size := 128
	for _, d := range b.Data {
		size += len(d) + 8
	}
	enc := NewEncoder(size)
	enc.Uvarint(b.Header.Number)
	enc.Bytes2(b.Header.PrevHash)
	enc.Bytes2(b.Header.DataHash)
	enc.Uvarint(uint64(len(b.Data)))
	for _, d := range b.Data {
		enc.Bytes2(d)
	}
	enc.Uvarint(uint64(len(b.Metadata.ValidationFlags)))
	for _, f := range b.Metadata.ValidationFlags {
		enc.Byte(byte(f))
	}
	enc.Int64(b.Metadata.OrderedTime)
	enc.String(b.Metadata.OrdererID)
	enc.String(b.Metadata.ChannelID)
	enc.Bool(b.Metadata.Reordered)
	enc.Uvarint(uint64(b.Metadata.EarlyAborted))
	return enc.Bytes()
}

// UnmarshalBlock decodes a block produced by Marshal.
func UnmarshalBlock(buf []byte) (*Block, error) {
	dec := NewDecoder(buf)
	var b Block
	b.Header.Number = dec.Uvarint()
	b.Header.PrevHash = dec.Bytes2()
	b.Header.DataHash = dec.Bytes2()
	n := dec.length()
	b.Data = make([][]byte, 0, n)
	for i := 0; i < n && dec.Err() == nil; i++ {
		b.Data = append(b.Data, dec.Bytes2())
	}
	nf := dec.length()
	b.Metadata.ValidationFlags = make([]ValidationCode, 0, nf)
	for i := 0; i < nf && dec.Err() == nil; i++ {
		b.Metadata.ValidationFlags = append(b.Metadata.ValidationFlags, ValidationCode(dec.Byte()))
	}
	b.Metadata.OrderedTime = dec.Int64()
	b.Metadata.OrdererID = dec.String()
	b.Metadata.ChannelID = dec.String()
	b.Metadata.Reordered = dec.Bool()
	// Early-aborted transactions are the block's tail, so there cannot be
	// more of them than transactions.
	if ea := dec.Uvarint(); ea > uint64(len(b.Data)) {
		dec.fail(fmt.Errorf("%w: %d early aborts in a block of %d transactions", ErrOversize, ea, len(b.Data)))
	} else {
		b.Metadata.EarlyAborted = int(ea)
	}
	if err := dec.Finish(); err != nil {
		return nil, fmt.Errorf("unmarshal block: %w", err)
	}
	return &b, nil
}

// Size returns the encoded size of the block in bytes, used by the
// transport bandwidth model.
func (b *Block) Size() int {
	size := 64 + len(b.Header.PrevHash) + len(b.Header.DataHash) + len(b.Metadata.ValidationFlags)
	for _, d := range b.Data {
		size += len(d) + 4
	}
	return size
}
