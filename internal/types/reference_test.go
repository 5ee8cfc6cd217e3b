package types

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
)

// This file keeps the copying envelope decode that Block.Transactions,
// UnmarshalTransaction and PeekEnvelopeInfo used before they read fields
// in place. It is the oracle the differential and fuzz tests hold the
// production decode to: the same values (nil and empty slices included)
// on every input it accepts, and the same error on every input it
// rejects.

func refDecodeProposal(p *Proposal, dec *Decoder) {
	p.TxID = TxID(dec.String())
	p.ChannelID = dec.String()
	p.ChaincodeID = dec.String()
	p.Fn = dec.String()
	n := dec.length()
	p.Args = make([][]byte, 0, n)
	for i := 0; i < n && dec.Err() == nil; i++ {
		p.Args = append(p.Args, dec.Bytes2())
	}
	p.Creator = dec.Bytes2()
	p.Nonce = dec.Bytes2()
	p.Timestamp = dec.Int64()
	p.TraceID = dec.String()
}

func refDecodeRWSet(rw *RWSet, dec *Decoder) {
	nr := dec.length()
	rw.Reads = make([]KVRead, 0, nr)
	for i := 0; i < nr && dec.Err() == nil; i++ {
		var r KVRead
		r.Key = dec.String()
		r.Version.BlockNum = dec.Uvarint()
		r.Version.TxNum = dec.Uvarint()
		r.Exists = dec.Bool()
		rw.Reads = append(rw.Reads, r)
	}
	nw := dec.length()
	rw.Writes = make([]KVWrite, 0, nw)
	for i := 0; i < nw && dec.Err() == nil; i++ {
		var w KVWrite
		w.Key = dec.String()
		w.Value = dec.Bytes2()
		w.IsDelete = dec.Bool()
		rw.Writes = append(rw.Writes, w)
	}
}

func refDecodeEndorsement(en *Endorsement, dec *Decoder) {
	en.EndorserID = dec.String()
	en.EndorserOrg = dec.String()
	en.Signature = dec.Bytes2()
}

func refDecodeTransaction(t *Transaction, dec *Decoder) {
	refDecodeProposal(&t.Proposal, dec)
	refDecodeRWSet(&t.Results, dec)
	n := dec.length()
	t.Endorsements = make([]Endorsement, n)
	for i := 0; i < n && dec.Err() == nil; i++ {
		refDecodeEndorsement(&t.Endorsements[i], dec)
	}
	t.ClientSig = dec.Bytes2()
	t.SubmitTime = dec.Int64()
	t.Padding = dec.Bytes2()
}

func refUnmarshalTransaction(b []byte) (*Transaction, error) {
	dec := NewDecoder(b)
	var t Transaction
	refDecodeTransaction(&t, dec)
	if err := dec.Finish(); err != nil {
		return nil, fmt.Errorf("unmarshal transaction: %w", err)
	}
	return &t, nil
}

// refPeekProposal and refPeekEnvelopeInfo are the copying peek the
// ordering path used before it ran on the in-place decode: TxID,
// ChaincodeID and TraceID are copied, every other proposal field is
// stepped over, and the read-write set is copied key by key.
func refPeekProposal(p *Proposal, dec *Decoder) {
	p.TxID = TxID(dec.String())
	dec.field() // ChannelID
	p.ChaincodeID = dec.String()
	dec.field() // Fn
	for n := dec.length(); n > 0 && dec.Err() == nil; n-- {
		dec.field() // Args
	}
	dec.field() // Creator
	dec.field() // Nonce
	dec.Int64() // Timestamp
	p.TraceID = dec.String()
}

func refPeekEnvelopeInfo(b []byte) (*EnvelopeInfo, error) {
	dec := NewDecoder(b)
	var p Proposal
	refPeekProposal(&p, dec)
	var rw RWSet
	refDecodeRWSet(&rw, dec)
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("peek envelope: %w", err)
	}
	return &EnvelopeInfo{TxID: p.TxID, ChaincodeID: p.ChaincodeID, TraceID: p.TraceID, Results: rw}, nil
}

// refComputeTxID is ComputeTxID as it was before it hashed in a stack
// buffer: the ID strings must stay byte-identical.
func refComputeTxID(nonce, creator []byte) TxID {
	h := sha256.New()
	h.Write(nonce)
	h.Write(creator)
	return TxID(hex.EncodeToString(h.Sum(nil)))
}

// refBlockTransactions is Block.Transactions over the reference decode.
func refBlockTransactions(b *Block) ([]*Transaction, error) {
	txs := make([]*Transaction, 0, len(b.Data))
	for i, d := range b.Data {
		tx, err := refUnmarshalTransaction(d)
		if err != nil {
			return nil, fmt.Errorf("block %d tx %d: %w", b.Header.Number, i, err)
		}
		txs = append(txs, tx)
	}
	return txs, nil
}

// genBytes returns nil, an empty slice, or up to max random bytes.
func genBytes(r *rand.Rand, max int) []byte {
	switch r.Intn(6) {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	b := make([]byte, 1+r.Intn(max))
	r.Read(b)
	return b
}

// genString returns "" or up to max random printable bytes.
func genString(r *rand.Rand, max int) string {
	if r.Intn(5) == 0 {
		return ""
	}
	b := make([]byte, 1+r.Intn(max))
	for i := range b {
		b[i] = byte('!' + r.Intn(94))
	}
	return string(b)
}

// genTransaction builds a random envelope covering what the decoder must
// handle: 0-8 endorsements, nil and empty fields, reads, writes and
// deletes, a TraceID or none, and padding from none to past a one-byte
// length prefix.
func genTransaction(r *rand.Rand) *Transaction {
	tx := &Transaction{
		Proposal: Proposal{
			TxID:        TxID(genString(r, 64)),
			ChannelID:   genString(r, 8),
			ChaincodeID: genString(r, 8),
			Fn:          genString(r, 8),
			Creator:     genBytes(r, 96),
			Nonce:       genBytes(r, 24),
			Timestamp:   r.Int63() - r.Int63(),
			TraceID:     genString(r, 32),
		},
		SubmitTime: r.Int63(),
		ClientSig:  genBytes(r, 72),
	}
	for n := r.Intn(5); n > 0; n-- {
		tx.Proposal.Args = append(tx.Proposal.Args, genBytes(r, 16))
	}
	for n := r.Intn(6); n > 0; n-- {
		tx.Results.Reads = append(tx.Results.Reads, KVRead{
			Key:     genString(r, 12),
			Version: Version{BlockNum: uint64(r.Intn(1 << 20)), TxNum: uint64(r.Intn(300))},
			Exists:  r.Intn(2) == 0,
		})
	}
	for n := r.Intn(6); n > 0; n-- {
		w := KVWrite{Key: genString(r, 12)}
		if r.Intn(4) == 0 {
			w.IsDelete = true
		} else {
			w.Value = genBytes(r, 40)
		}
		tx.Results.Writes = append(tx.Results.Writes, w)
	}
	for n := r.Intn(9); n > 0; n-- {
		tx.Endorsements = append(tx.Endorsements, Endorsement{
			EndorserID:  genString(r, 12),
			EndorserOrg: genString(r, 6),
			Signature:   genBytes(r, 72),
		})
	}
	switch r.Intn(4) {
	case 0:
		tx.Padding = genBytes(r, 64)
	case 1:
		tx.Padding = make([]byte, 128+r.Intn(300))
	}
	return tx
}
