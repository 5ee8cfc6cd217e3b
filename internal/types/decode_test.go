package types

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// checkBlockDecode requires Block.Transactions and UnmarshalTransaction
// to agree with the reference decode on b: equal transactions (nil and
// empty slices told apart) where it accepts, the same error where it
// rejects. Where the block decodes, each of its transactions must also
// equal its envelope decoded alone, from a string of its own.
func checkBlockDecode(t *testing.T, b *Block) {
	t.Helper()
	want, werr := refBlockTransactions(b)
	txs, gerr := b.Transactions()
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("Transactions error = %v, reference %v", gerr, werr)
	}
	if !reflect.DeepEqual(txs, want) {
		t.Fatalf("Transactions differs from the reference:\n got %+v\nwant %+v", txs, want)
	}
	for i, d := range b.Data {
		want, werr := refUnmarshalTransaction(d)
		got, gerr := UnmarshalTransaction(d)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("UnmarshalTransaction(envelope %d) = %+v, %v; reference %+v, %v", i, got, gerr, want, werr)
		}
		if txs != nil && !reflect.DeepEqual(txs[i], got) {
			t.Fatalf("Transactions()[%d] = %+v, UnmarshalTransaction %+v", i, txs[i], got)
		}
	}
}

// TestBlockTransactionsMatchesReference holds the in-place decode to the
// copying reference on 10 000 seeded envelopes, in blocks of 1-64 so
// the per-block slabs are shared across transactions of every shape.
func TestBlockTransactionsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for n, num := 0, uint64(1); n < 10000; num++ {
		data := make([][]byte, 1+r.Intn(64))
		for i := range data {
			data[i] = genTransaction(r).Marshal()
		}
		n += len(data)
		checkBlockDecode(t, NewBlock(num, nil, data))
	}
}

// TestBlockTransactionsPrefixErrors cuts envelopes at every strict
// prefix, behind a whole envelope so the cut one decodes into slabs the
// first already drew from, and requires the reference's error for each.
func TestBlockTransactionsPrefixErrors(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for k := 0; k < 150; k++ {
		whole, env := genTransaction(r).Marshal(), genTransaction(r).Marshal()
		for n := 0; n < len(env); n++ {
			b := &Block{Header: BlockHeader{Number: uint64(n)}, Data: [][]byte{whole, env[:n]}}
			if _, err := b.Transactions(); err == nil {
				t.Fatalf("prefix %d of %d decoded", n, len(env))
			}
			checkBlockDecode(t, b)
		}
	}
}

// TestBlockTransactionsAliasing pins the read-only-view contract from
// the other side: decoding never writes to Data, and appending to any
// decoded slice — a []byte field, or a run carved from a block slab —
// cannot reach the block's bytes or a neighbouring field, because every
// view's capacity ends where its field does.
func TestBlockTransactionsAliasing(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	data := make([][]byte, 64)
	pristine := make([][]byte, len(data))
	for i := range data {
		data[i] = genTransaction(r).Marshal()
		pristine[i] = bytes.Clone(data[i])
	}
	b := NewBlock(1, nil, data)
	want, err := refBlockTransactions(b)
	if err != nil {
		t.Fatal(err)
	}
	txs, err := b.Transactions()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Data, pristine) {
		t.Fatal("decoding wrote to the block's Data")
	}
	for _, tx := range txs {
		grow := func(f []byte) { _ = append(f, 0xEE, 0xEE, 0xEE) }
		for _, a := range tx.Proposal.Args {
			grow(a)
		}
		grow(tx.Proposal.Creator)
		grow(tx.Proposal.Nonce)
		for _, w := range tx.Results.Writes {
			grow(w.Value)
		}
		for _, en := range tx.Endorsements {
			grow(en.Signature)
		}
		grow(tx.ClientSig)
		grow(tx.Padding)
		_ = append(tx.Proposal.Args, []byte("x"))
		_ = append(tx.Results.Reads, KVRead{Key: "x"})
		_ = append(tx.Results.Writes, KVWrite{Key: "x"})
		_ = append(tx.Endorsements, Endorsement{EndorserID: "x"})
	}
	if !reflect.DeepEqual(b.Data, pristine) {
		t.Error("appending to a decoded field wrote to the block's Data")
	}
	if !reflect.DeepEqual(txs, want) {
		t.Error("appending to a decoded field changed a neighbouring field")
	}
}

// and5Block is a 100-transaction block shaped like the and5_raft
// workload's: five endorsements, one read and one write per envelope.
func and5Block() *Block {
	r := rand.New(rand.NewSource(1))
	random := func(n int) []byte {
		b := make([]byte, n)
		r.Read(b)
		return b
	}
	data := make([][]byte, 100)
	for i := range data {
		nonce, creator := random(24), random(180)
		key := fmt.Sprintf("key%06d", r.Intn(10000))
		tx := &Transaction{
			Proposal: Proposal{
				TxID: ComputeTxID(nonce, creator), ChannelID: "perf", ChaincodeID: "bench", Fn: "write",
				Args: [][]byte{[]byte(key), random(64)}, Creator: creator, Nonce: nonce, Timestamp: int64(i),
			},
			Results: RWSet{
				Reads:  []KVRead{{Key: key, Version: Version{BlockNum: 3, TxNum: uint64(i)}, Exists: true}},
				Writes: []KVWrite{{Key: key, Value: random(64)}},
			},
			ClientSig:  random(32),
			SubmitTime: int64(i),
		}
		for o := 1; o <= 5; o++ {
			tx.Endorsements = append(tx.Endorsements, Endorsement{
				EndorserID: fmt.Sprintf("Org%d.peer0", o), EndorserOrg: fmt.Sprintf("Org%d", o), Signature: random(32),
			})
		}
		data[i] = tx.Marshal()
	}
	return NewBlock(1, nil, data)
}

// TestBlockTransactionsAllocs is the decode's allocation budget: a
// per-block constant, whatever the block's transaction count — the
// block's one string copy, the transactions and their pointers, and the
// slabs. It read 7 on go1.24, where one string copy per envelope read
// 106.
func TestBlockTransactionsAllocs(t *testing.T) {
	b := and5Block()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := b.Transactions(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("Transactions on a %d-tx block: %.0f allocations, want <= 10", len(b.Data), allocs)
	}
}

func BenchmarkBlockTransactions(b *testing.B) {
	blk := and5Block()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := blk.Transactions(); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzBlockTransactions holds the decode to the reference on a block of
// two arbitrary envelopes. The seeds are generator-built envelopes.
func FuzzBlockTransactions(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		f.Add(genTransaction(r).Marshal(), genTransaction(r).Marshal())
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkBlockDecode(t, &Block{Header: BlockHeader{Number: 2}, Data: [][]byte{a, b}})
	})
}

// checkPeek requires PeekEnvelopeInfo to agree with the copying
// reference peek on b: equal results (nil and empty slices told apart)
// where it accepts, the same error where it rejects.
func checkPeek(t *testing.T, b []byte) {
	t.Helper()
	want, werr := refPeekEnvelopeInfo(b)
	got, gerr := PeekEnvelopeInfo(b)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("PeekEnvelopeInfo = %+v, %v; reference %+v, %v", got, gerr, want, werr)
	}
}

// TestPeekEnvelopeInfoMatchesReference holds the in-place peek to the
// copying reference on 10 000 seeded envelopes and on every strict
// prefix of 150 of them. A prefix that keeps the proposal and read-write
// set whole still peeks; one that cuts into them fails.
func TestPeekEnvelopeInfoMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for i := 0; i < 10000; i++ {
		env := genTransaction(r).Marshal()
		checkPeek(t, env)
		for n := 0; i < 150 && n < len(env); n++ {
			checkPeek(t, env[:n])
		}
	}
}

// TestPeekEnvelopeInfoAllocs is the peek's allocation budget: the
// envelope's one string copy, the EnvelopeInfo, and one array each for
// its reads and its writes.
func TestPeekEnvelopeInfoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under -race")
	}
	env := and5Block().Data[0]
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := PeekEnvelopeInfo(env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("PeekEnvelopeInfo: %.0f allocations, want <= 4", allocs)
	}
}

var peekSink *EnvelopeInfo

func BenchmarkPeekEnvelopeInfo(b *testing.B) {
	envs := and5Block().Data
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info, err := PeekEnvelopeInfo(envs[i%len(envs)])
		if err != nil {
			b.Fatal(err)
		}
		peekSink = info
	}
}

// checkPeekBatch requires PeekEnvelopeInfos to agree with
// PeekEnvelopeInfo envelope by envelope: the same ok, equal infos (nil
// and empty slices told apart) where the envelope peeks, and a zero
// info where it does not.
func checkPeekBatch(t *testing.T, batch [][]byte) {
	t.Helper()
	ok := make([]bool, len(batch))
	infos := PeekEnvelopeInfos(batch, ok)
	if len(infos) != len(batch) {
		t.Fatalf("PeekEnvelopeInfos returned %d infos for %d envelopes", len(infos), len(batch))
	}
	for i, env := range batch {
		want, err := PeekEnvelopeInfo(env)
		switch {
		case ok[i] != (err == nil):
			t.Fatalf("envelope %d: batch peek ok = %v, PeekEnvelopeInfo error %v", i, ok[i], err)
		case err != nil && !reflect.DeepEqual(infos[i], EnvelopeInfo{}):
			t.Fatalf("envelope %d did not peek, but its info is %+v", i, infos[i])
		case err == nil && !reflect.DeepEqual(&infos[i], want):
			t.Fatalf("envelope %d: batch peek %+v, PeekEnvelopeInfo %+v", i, infos[i], *want)
		}
	}
}

// TestPeekEnvelopeInfosMatchesPeek holds the batch peek to the
// per-envelope peek on 10 000 seeded envelopes, in batches of 1-64 so
// the slabs are shared across envelopes of every shape. One envelope in
// eight is cut short and one in sixteen replaced by random bytes, so
// envelopes that fail to peek sit between ones that draw from the same
// slabs.
func TestPeekEnvelopeInfosMatchesPeek(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for n := 0; n < 10000; {
		batch := make([][]byte, 1+r.Intn(64))
		for i := range batch {
			env := genTransaction(r).Marshal()
			switch r.Intn(16) {
			case 0, 1:
				env = env[:r.Intn(len(env))]
			case 2:
				env = make([]byte, r.Intn(32))
				r.Read(env)
			}
			batch[i] = env
		}
		n += len(batch)
		checkPeekBatch(t, batch)
	}
}

// TestPeekEnvelopeInfosAllocs is the batch peek's allocation budget: a
// per-batch constant, whatever the batch's size — the batch's one
// string copy, the infos, and the slabs. It read 4 on go1.24, where one
// string copy per envelope read 103.
func TestPeekEnvelopeInfosAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under -race")
	}
	batch := and5Block().Data
	ok := make([]bool, len(batch))
	allocs := testing.AllocsPerRun(20, func() { PeekEnvelopeInfos(batch, ok) })
	if allocs > 10 {
		t.Errorf("PeekEnvelopeInfos on %d envelopes: %.0f allocations, want <= 10", len(batch), allocs)
	}
}

var peekInfosSink []EnvelopeInfo

func BenchmarkPeekEnvelopeInfos(b *testing.B) {
	batch := and5Block().Data
	ok := make([]bool, len(batch))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peekInfosSink = PeekEnvelopeInfos(batch, ok)
	}
}

// splitBatch is b followed by b cut into 1-4 pieces, so a batch holds
// the fuzzed envelope whole and in parts.
func splitBatch(b []byte) [][]byte {
	n := 1 + len(b)%4
	batch := [][]byte{b}
	for k := 0; k < n; k++ {
		batch = append(batch, b[len(b)*k/n:len(b)*(k+1)/n])
	}
	return batch
}

// FuzzPeekEnvelopeInfo holds the peek to the copying reference on any
// input, and to the full decode wherever that accepts: an envelope
// UnmarshalTransaction takes must peek, to its TxID, ChaincodeID,
// TraceID and Results. It also peeks the input split into a batch,
// which must agree with the per-envelope peek, never panic, and
// allocate under 1 MiB. The seeds are generator-built envelopes.
func FuzzPeekEnvelopeInfo(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		f.Add(genTransaction(r).Marshal())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkPeek(t, b)
		batch := splitBatch(b)
		ok := make([]bool, len(batch))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		PeekEnvelopeInfos(batch, ok)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Fatalf("peeking a batch of %d bytes allocated %d bytes", len(b), n)
		}
		checkPeekBatch(t, batch)
		tx, err := UnmarshalTransaction(b)
		if err != nil {
			return
		}
		want := &EnvelopeInfo{
			TxID:        tx.Proposal.TxID,
			ChaincodeID: tx.Proposal.ChaincodeID,
			TraceID:     tx.Proposal.TraceID,
			Results:     tx.Results,
		}
		if got, err := PeekEnvelopeInfo(b); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("full decode accepts, peek = %+v, %v; want %+v", got, err, want)
		}
	})
}
