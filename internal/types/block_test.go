package types

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBlockHashChain(t *testing.T) {
	genesis := NewBlock(0, nil, nil)
	b1 := NewBlock(1, genesis.Header.Hash(), [][]byte{[]byte("tx1"), []byte("tx2")})
	b2 := NewBlock(2, b1.Header.Hash(), [][]byte{[]byte("tx3")})

	if !bytes.Equal(b1.Header.PrevHash, genesis.Header.Hash()) {
		t.Error("b1 not chained to genesis")
	}
	if !bytes.Equal(b2.Header.PrevHash, b1.Header.Hash()) {
		t.Error("b2 not chained to b1")
	}
	if err := b1.VerifyDataHash(); err != nil {
		t.Errorf("VerifyDataHash: %v", err)
	}
}

func TestBlockTamperDetection(t *testing.T) {
	b := NewBlock(1, []byte("prev"), [][]byte{[]byte("tx1"), []byte("tx2")})
	b.Data[0] = []byte("tampered")
	if err := b.VerifyDataHash(); err == nil {
		t.Error("tampered data not detected")
	}
}

func TestBlockHeaderHashSensitivity(t *testing.T) {
	h1 := BlockHeader{Number: 1, PrevHash: []byte("p"), DataHash: []byte("d")}
	h2 := h1
	h2.Number = 2
	if bytes.Equal(h1.Hash(), h2.Hash()) {
		t.Error("different headers hash equal")
	}
}

func TestComputeDataHashUnambiguous(t *testing.T) {
	// ["ab","c"] must hash differently from ["a","bc"]: length prefixes
	// prevent concatenation ambiguity.
	a := ComputeDataHash([][]byte{[]byte("ab"), []byte("c")})
	b := ComputeDataHash([][]byte{[]byte("a"), []byte("bc")})
	if bytes.Equal(a, b) {
		t.Error("data hash ambiguous under re-chunking")
	}
}

// TestComputeDataHashGolden pins the hash bytes: every ledger's chain and
// every OSN's blocks depend on them, so how the length prefix is produced
// may change but what is hashed may not. The payloads cover a one-byte
// prefix, a two-byte one, and an empty envelope.
func TestComputeDataHashGolden(t *testing.T) {
	got := ComputeDataHash([][]byte{[]byte("tx1"), bytes.Repeat([]byte{0xab}, 300), nil})
	const want = "3c69d20db32bc5bd45dcfbaaf05f43d5cf2abbe0afcde40d49cbcfd9ec50e996"
	if hex.EncodeToString(got) != want {
		t.Errorf("data hash = %x, want %s", got, want)
	}
}

func TestBlockRoundTrip(t *testing.T) {
	b := NewBlock(7, []byte("prevhash"), [][]byte{[]byte("tx1"), []byte("tx2")})
	b.Metadata.ValidationFlags = []ValidationCode{ValidationValid, ValidationMVCCConflict}
	b.Metadata.OrderedTime = 999
	b.Metadata.OrdererID = "osn1"
	got, err := UnmarshalBlock(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, b)
	}
}

func TestBlockRoundTripProperty(t *testing.T) {
	f := func(num uint64, prev []byte, payloads [][]byte) bool {
		b := NewBlock(num, prev, payloads)
		got, err := UnmarshalBlock(b.Marshal())
		if err != nil {
			return false
		}
		return bytes.Equal(got.Marshal(), b.Marshal()) && got.VerifyDataHash() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBlockTransactionsDecode(t *testing.T) {
	tx := &Transaction{Proposal: *sampleProposal(), Results: sampleRWSet()}
	b := NewBlock(1, nil, [][]byte{tx.Marshal(), tx.Marshal()})
	txs, err := b.Transactions()
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 2 || txs[0].ID() != tx.ID() {
		t.Errorf("decoded %d txs", len(txs))
	}

	bad := NewBlock(2, nil, [][]byte{[]byte("garbage")})
	if _, err := bad.Transactions(); err == nil {
		t.Error("garbage payload decoded")
	}
}

func TestBlockSizePositive(t *testing.T) {
	b := NewBlock(1, []byte("p"), [][]byte{make([]byte, 1000)})
	if b.Size() < 1000 {
		t.Errorf("Size() = %d, want >= payload size", b.Size())
	}
}
