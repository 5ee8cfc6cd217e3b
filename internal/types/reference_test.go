package types

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fabricsim/internal/fabcrypto"
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
// handle: 0-8 endorsements, nil and empty fields, a genRWSet set, a
// TraceID or none, and padding from none to past a one-byte length
// prefix.
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
	tx.Results = genRWSet(r)
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

// refMarshalTransaction is Transaction.Marshal as it was before the
// encoder was sized exactly: a 512-byte encoder plus the padding, grown
// as needed, and every field written in order. Envelopes, and so blocks
// and the signatures over them, must stay byte-identical to it.
func refMarshalTransaction(t *Transaction) []byte {
	enc := NewEncoder(512 + len(t.Padding))
	p := &t.Proposal
	enc.String(string(p.TxID))
	enc.String(p.ChannelID)
	enc.String(p.ChaincodeID)
	enc.String(p.Fn)
	enc.Uvarint(uint64(len(p.Args)))
	for _, a := range p.Args {
		enc.Bytes2(a)
	}
	enc.Bytes2(p.Creator)
	enc.Bytes2(p.Nonce)
	enc.Int64(p.Timestamp)
	enc.String(p.TraceID)
	enc.Uvarint(uint64(len(t.Results.Reads)))
	for _, r := range t.Results.Reads {
		enc.String(r.Key)
		enc.Uvarint(r.Version.BlockNum)
		enc.Uvarint(r.Version.TxNum)
		enc.Bool(r.Exists)
	}
	enc.Uvarint(uint64(len(t.Results.Writes)))
	for _, w := range t.Results.Writes {
		enc.String(w.Key)
		enc.Bytes2(w.Value)
		enc.Bool(w.IsDelete)
	}
	enc.Uvarint(uint64(len(t.Endorsements)))
	for _, en := range t.Endorsements {
		enc.String(en.EndorserID)
		enc.String(en.EndorserOrg)
		enc.Bytes2(en.Signature)
	}
	enc.Bytes2(t.ClientSig)
	enc.Int64(t.SubmitTime)
	enc.Bytes2(t.Padding)
	return enc.Bytes()
}

// versionEdges are the version numbers at which a Uvarint gains a byte.
var versionEdges = []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<21 - 1, 1 << 21, math.MaxUint64}

func genVersionNum(r *rand.Rand) uint64 {
	if r.Intn(2) == 0 {
		return versionEdges[r.Intn(len(versionEdges))]
	}
	return r.Uint64() >> r.Intn(64)
}

// genRWSet draws a set with 0-5 reads and 0-5 writes: versions at the
// varint boundaries, nil, empty and filled values, and deletes.
func genRWSet(r *rand.Rand) RWSet {
	var rw RWSet
	for n := r.Intn(6); n > 0; n-- {
		rw.Reads = append(rw.Reads, KVRead{
			Key:     genString(r, 12),
			Version: Version{BlockNum: genVersionNum(r), TxNum: genVersionNum(r)},
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
		rw.Writes = append(rw.Writes, w)
	}
	return rw
}

// TestEnvelopeEncodingMatchesReference holds the pooled hashes and the
// exact sizes to the encodings they stand for, on 10 000 seeded draws
// with 1-5 endorsements: RWSet.Hash and Size against Marshal,
// ClientDigest against the digest the client signed before it, and
// Transaction.Marshal against refMarshalTransaction, byte for byte and
// with no spare capacity. Every 1 000th draw carries a write value and a
// padding over 64 KiB, so hashing it takes the pool's drop path.
func TestEnvelopeEncodingMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		tx := genTransaction(r)
		tx.Endorsements = tx.Endorsements[:0]
		for n := 1 + r.Intn(5); n > 0; n-- {
			tx.Endorsements = append(tx.Endorsements, Endorsement{
				EndorserID:  genString(r, 12),
				EndorserOrg: genString(r, 6),
				Signature:   genBytes(r, 72),
			})
		}
		if i%1000 == 999 {
			huge := make([]byte, maxPooledEncoder+1+r.Intn(1024))
			tx.Results.Writes = append(tx.Results.Writes, KVWrite{Key: "huge", Value: huge})
			tx.Padding = huge
		}

		rw := &tx.Results
		set := rw.Marshal()
		if got, want := rw.Hash(), fabcrypto.Digest(set); !bytes.Equal(got, want) {
			t.Fatalf("draw %d: RWSet.Hash = %x, want %x", i, got, want)
		}
		if got, want := rw.Size(), len(set); got != want {
			t.Fatalf("draw %d: RWSet.Size = %d, want len(Marshal()) = %d", i, got, want)
		}
		if got, want := tx.ClientDigest(), fabcrypto.Digest(tx.Proposal.Hash(), set); !bytes.Equal(got[:], want) {
			t.Fatalf("draw %d: ClientDigest = %x, want %x", i, got, want)
		}
		env := tx.Marshal()
		if len(env) != cap(env) {
			t.Fatalf("draw %d: Marshal len %d, cap %d", i, len(env), cap(env))
		}
		if want := refMarshalTransaction(tx); !bytes.Equal(env, want) {
			t.Fatalf("draw %d: Marshal differs from the reference encoding", i)
		}
	}
}
