package types

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"fabricsim/internal/fabcrypto"
)

func sampleProposal() *Proposal {
	return &Proposal{
		TxID:        "tx-1",
		ChannelID:   "perf",
		ChaincodeID: "bench",
		Fn:          "write",
		Args:        [][]byte{[]byte("k"), []byte("v")},
		Creator:     []byte("cert-bytes"),
		Nonce:       []byte("nonce-1"),
		Timestamp:   123456789,
		TraceID:     "trace-1",
	}
}

func sampleRWSet() RWSet {
	return RWSet{
		Reads: []KVRead{
			{Key: "a", Version: Version{BlockNum: 3, TxNum: 1}, Exists: true},
			{Key: "b", Exists: false},
		},
		Writes: []KVWrite{
			{Key: "a", Value: []byte("v1")},
			{Key: "c", IsDelete: true},
		},
	}
}

func TestProposalRoundTrip(t *testing.T) {
	p := sampleProposal()
	got, err := UnmarshalProposal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestProposalHashDeterministic(t *testing.T) {
	p1 := sampleProposal()
	p2 := sampleProposal()
	if !bytes.Equal(p1.Hash(), p2.Hash()) {
		t.Error("equal proposals hash differently")
	}
	p2.Fn = "read"
	if bytes.Equal(p1.Hash(), p2.Hash()) {
		t.Error("different proposals hash equal")
	}
}

func TestComputeTxIDUnique(t *testing.T) {
	a := ComputeTxID([]byte("n1"), []byte("c"))
	b := ComputeTxID([]byte("n2"), []byte("c"))
	c := ComputeTxID([]byte("n1"), []byte("d"))
	if a == b || a == c {
		t.Error("tx ids collide for distinct inputs")
	}
	if a != ComputeTxID([]byte("n1"), []byte("c")) {
		t.Error("tx id not deterministic")
	}
}

func TestRWSetRoundTrip(t *testing.T) {
	rw := sampleRWSet()
	got, err := UnmarshalRWSet(rw.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&rw, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, &rw)
	}
}

func TestRWSetRoundTripProperty(t *testing.T) {
	f := func(keys []string, vals [][]byte, blockNums []uint64) bool {
		var rw RWSet
		for i, k := range keys {
			v := Version{}
			if i < len(blockNums) {
				v.BlockNum = blockNums[i]
			}
			rw.Reads = append(rw.Reads, KVRead{Key: k, Version: v, Exists: i%2 == 0})
		}
		for i, v := range vals {
			rw.Writes = append(rw.Writes, KVWrite{Key: string(rune('a' + i%26)), Value: v, IsDelete: i%3 == 0})
		}
		got, err := UnmarshalRWSet(rw.Marshal())
		if err != nil {
			return false
		}
		return bytes.Equal(got.Marshal(), rw.Marshal())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProposalResponseRoundTrip(t *testing.T) {
	rw := sampleRWSet()
	pr := &ProposalResponse{
		TxID:        "tx-9",
		Status:      200,
		Message:     "",
		ResultsHash: []byte{1, 2, 3},
		Results:     &rw,
		Payload:     []byte("OK"),
		Endorsement: Endorsement{EndorserID: "Org1.peer0", EndorserOrg: "Org1", Signature: []byte("sig")},
	}
	got, err := UnmarshalProposalResponse(pr.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, pr)
	}
}

func TestProposalResponseNilResults(t *testing.T) {
	pr := &ProposalResponse{TxID: "t", Status: 500, Message: "boom"}
	got, err := UnmarshalProposalResponse(pr.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Results != nil || got.Message != "boom" {
		t.Errorf("got %+v", got)
	}
}

func TestTransactionRoundTrip(t *testing.T) {
	tx := &Transaction{
		Proposal: *sampleProposal(),
		Results:  sampleRWSet(),
		Endorsements: []Endorsement{
			{EndorserID: "Org1.peer0", EndorserOrg: "Org1", Signature: []byte("s1")},
			{EndorserID: "Org2.peer0", EndorserOrg: "Org2", Signature: []byte("s2")},
		},
		ClientSig:  []byte("csig"),
		SubmitTime: 42,
		Padding:    make([]byte, 100),
	}
	got, err := UnmarshalTransaction(tx.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tx, got) {
		t.Errorf("round trip mismatch")
	}
	if got.ID() != tx.Proposal.TxID {
		t.Errorf("ID() = %s", got.ID())
	}
}

// TestPeekEnvelopeInfoTraceID pins the prefix property the orderer
// relies on: the TraceID appended at the end of the Proposal encoding
// must survive a marshaled-Transaction peek, with and without tracing.
// The peek must agree with the full decode on everything it returns, and
// — although it steps over the fields the ordering path never reads —
// must still fail on every prefix that cuts into the proposal or the
// rwset.
func TestPeekEnvelopeInfoTraceID(t *testing.T) {
	for _, traceID := range []string{"trace-xyz", ""} {
		tx := &Transaction{
			Proposal:     *sampleProposal(),
			Results:      sampleRWSet(),
			Endorsements: []Endorsement{{EndorserID: "Org1.peer0", EndorserOrg: "Org1", Signature: []byte("sig")}},
			ClientSig:    []byte("csig"),
			SubmitTime:   42,
		}
		tx.Proposal.TraceID = traceID
		env := tx.Marshal()
		info, err := PeekEnvelopeInfo(env)
		if err != nil {
			t.Fatal(err)
		}
		if info.TxID != tx.Proposal.TxID || info.TraceID != traceID {
			t.Errorf("peek = {TxID:%s TraceID:%q}, want {%s %q}",
				info.TxID, info.TraceID, tx.Proposal.TxID, traceID)
		}
		full, err := UnmarshalTransaction(env)
		if err != nil {
			t.Fatal(err)
		}
		want := &EnvelopeInfo{
			TxID:        full.Proposal.TxID,
			ChaincodeID: full.Proposal.ChaincodeID,
			TraceID:     full.Proposal.TraceID,
			Results:     full.Results,
		}
		if !reflect.DeepEqual(info, want) {
			t.Errorf("peek = %+v, full decode gives %+v", info, want)
		}

		enc := NewEncoder(256)
		tx.Proposal.encode(enc)
		tx.Results.encode(enc)
		peeked := len(enc.Bytes()) // what the peek has to read
		for n := 0; n < len(env); n++ {
			got, err := PeekEnvelopeInfo(env[:n])
			switch {
			case n < peeked && err == nil:
				t.Errorf("peek of %d of %d prefix bytes succeeded", n, peeked)
			case n >= peeked && (err != nil || !reflect.DeepEqual(got, want)):
				t.Errorf("peek of %d bytes (prefix is %d) = %+v, %v", n, peeked, got, err)
			}
		}
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {}, {0xFF}, bytes.Repeat([]byte{0xFF}, 64)} {
		if _, err := UnmarshalTransaction(b); err == nil {
			t.Errorf("garbage %x decoded as transaction", b)
		}
	}
}

func TestValidationCodeString(t *testing.T) {
	cases := map[ValidationCode]string{
		ValidationValid:                    "VALID",
		ValidationMVCCConflict:             "MVCC_READ_CONFLICT",
		ValidationEndorsementPolicyFailure: "ENDORSEMENT_POLICY_FAILURE",
		ValidationDuplicateTxID:            "DUPLICATE_TXID",
	}
	for code, want := range cases {
		if code.String() != want {
			t.Errorf("%d.String() = %s, want %s", code, code, want)
		}
	}
	if !ValidationValid.Valid() || ValidationMVCCConflict.Valid() {
		t.Error("Valid() wrong")
	}
}

func TestVersionCompare(t *testing.T) {
	cases := []struct {
		a, b Version
		want int
	}{
		{Version{1, 1}, Version{1, 1}, 0},
		{Version{1, 1}, Version{1, 2}, -1},
		{Version{2, 0}, Version{1, 9}, 1},
		{Version{0, 5}, Version{1, 0}, -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("compare not antisymmetric for %v,%v", c.a, c.b)
		}
	}
}

// randomProposal fills every proposal field from r; about one in 500
// carries an argument large enough to push the encoding past 64 KiB.
func randomProposal(r *rand.Rand) *Proposal {
	bytesOf := func(n int) []byte {
		if n == 0 && r.Intn(2) == 0 {
			return nil
		}
		b := make([]byte, n)
		r.Read(b)
		return b
	}
	p := &Proposal{
		TxID:        TxID(bytesOf(r.Intn(64))),
		ChannelID:   string(bytesOf(r.Intn(16))),
		ChaincodeID: string(bytesOf(r.Intn(16))),
		Fn:          string(bytesOf(r.Intn(16))),
		Creator:     bytesOf(r.Intn(200)),
		Nonce:       bytesOf(r.Intn(32)),
		Timestamp:   r.Int63() - r.Int63(),
		TraceID:     string(bytesOf(r.Intn(24))),
	}
	for n := r.Intn(5); n > 0; n-- {
		size := r.Intn(300)
		if r.Intn(500) == 0 {
			size = 64<<10 + r.Intn(4096)
		}
		p.Args = append(p.Args, bytesOf(size))
	}
	return p
}

// TestProposalHashMatchesMarshal holds Hash to the SHA-256 of Marshal on
// 10 000 random proposals, some over 64 KiB encoded, from one goroutine
// and then from eight at once (run under -race, this pins the encoder
// pool's reset discipline).
func TestProposalHashMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	props := make([]*Proposal, 10000)
	for i := range props {
		props[i] = randomProposal(r)
	}
	check := func(p *Proposal) {
		want := sha256.Sum256(p.Marshal())
		if got := p.Hash(); !bytes.Equal(got, want[:]) {
			t.Errorf("Hash = %x, want %x", got, want)
		}
	}
	for _, p := range props {
		check(p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(props); i += 8 {
				check(props[i])
			}
		}(g)
	}
	wg.Wait()
}

// TestProposalHashAllocs pins Hash at one allocation: the returned
// digest.
func TestProposalHashAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	p := sampleProposal()
	if allocs := testing.AllocsPerRun(100, func() { _ = p.Hash() }); allocs > 1 {
		t.Errorf("Proposal.Hash: %.1f allocations, want <= 1", allocs)
	}
}

func BenchmarkProposalHash(b *testing.B) {
	p := sampleProposal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkHash = p.Hash()
	}
}

var sinkHash []byte

// TestComputeTxIDMatchesReference holds ComputeTxID to the streaming
// hash it replaced on 10 000 seeded (nonce, creator) pairs: nil and empty
// inputs, pairs that exactly fill the stack buffer, and creators larger
// than it.
func TestComputeTxIDMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	bytesOf := func(n int) []byte {
		if n == 0 && r.Intn(2) == 0 {
			return nil
		}
		b := make([]byte, n)
		r.Read(b)
		return b
	}
	for i := 0; i < 10000; i++ {
		nonce := bytesOf(r.Intn(40))
		var creator []byte
		switch i % 4 {
		case 0:
			creator = bytesOf(r.Intn(400))
		case 1:
			creator = bytesOf(txIDScratch - len(nonce) + r.Intn(3) - 1)
		case 2:
			creator = bytesOf(txIDScratch + r.Intn(4096))
		default:
			creator = bytesOf(r.Intn(txIDScratch))
		}
		if got, want := ComputeTxID(nonce, creator), refComputeTxID(nonce, creator); got != want {
			t.Fatalf("ComputeTxID(%d-byte nonce, %d-byte creator) = %s, want %s", len(nonce), len(creator), got, want)
		}
	}
}

// TestComputeTxIDAllocs pins ComputeTxID at one allocation, the ID
// string, for inputs that fit its stack buffer.
func TestComputeTxIDAllocs(t *testing.T) {
	nonce, creator := []byte("gw1-12345"), make([]byte, 300)
	if allocs := testing.AllocsPerRun(100, func() { _ = ComputeTxID(nonce, creator) }); allocs != 1 {
		t.Errorf("ComputeTxID: %.1f allocations, want 1", allocs)
	}
}

// TestProposalSizeMatchesMarshal holds Size to len(Marshal()) on 10 000
// random proposals, with empty fields and fields past 127 bytes (a
// two-byte length prefix), and on a proposal with 200 arguments (a
// two-byte count).
func TestProposalSizeMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	check := func(p *Proposal) {
		t.Helper()
		if got, want := p.Size(), len(p.Marshal()); got != want {
			t.Fatalf("Size = %d, want len(Marshal()) = %d for %+v", got, want, p)
		}
	}
	for i := 0; i < 10000; i++ {
		check(randomProposal(r))
	}
	check(&Proposal{})
	many := sampleProposal()
	many.Args = make([][]byte, 200)
	many.TraceID = string(make([]byte, 130))
	check(many)
}

// TestProposalSizeAllocs pins Size at zero allocations.
func TestProposalSizeAllocs(t *testing.T) {
	p := sampleProposal()
	if allocs := testing.AllocsPerRun(100, func() { _ = p.Size() }); allocs != 0 {
		t.Errorf("Proposal.Size: %.1f allocations, want 0", allocs)
	}
}

// TestTransactionMarshalAllocs pins Marshal of a five-endorsement
// envelope, the AND5 case, at one allocation: the envelope, sized
// exactly. Sized at 512 bytes plus the padding, it took 2.
func TestTransactionMarshalAllocs(t *testing.T) {
	tx := &Transaction{Proposal: *sampleProposal(), Results: sampleRWSet(), ClientSig: make([]byte, 64)}
	for i := 0; i < 5; i++ {
		tx.Endorsements = append(tx.Endorsements, Endorsement{
			EndorserID: "Org1.peer0", EndorserOrg: "Org1", Signature: make([]byte, 72),
		})
	}
	tx.Proposal.Creator = make([]byte, 300)
	if allocs := testing.AllocsPerRun(100, func() { _ = tx.Marshal() }); allocs != 1 {
		t.Errorf("Transaction.Marshal: %.1f allocations, want 1", allocs)
	}
}

// TestDigestOfHashAllocs pins the ESCC message, Digest(p.Hash(), h), at
// zero allocations when it does not escape: both wrappers inline, so
// the two digests stay on the stack. It took 2 when each returned a
// heap slice.
func TestDigestOfHashAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	p := sampleProposal()
	rw := sampleRWSet()
	h := rw.Hash()
	var msg [sha256.Size]byte
	if allocs := testing.AllocsPerRun(100, func() { copy(msg[:], fabcrypto.Digest(p.Hash(), h)) }); allocs != 0 {
		t.Errorf("Digest(p.Hash(), h): %.1f allocations, want 0", allocs)
	}
}
