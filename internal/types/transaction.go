package types

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// TxID uniquely identifies a transaction. Fabric derives it from the
// client nonce and creator identity; this reproduction does the same.
type TxID string

// ValidationCode is the outcome the committer assigns to each
// transaction in a block. Both valid and invalid transactions are
// recorded in the chain; only valid writes reach the world state.
type ValidationCode uint8

// Validation codes, mirroring the subset of Fabric's peer.TxValidationCode
// this reproduction can produce.
const (
	// ValidationPending marks a transaction not yet validated.
	ValidationPending ValidationCode = iota
	// ValidationValid marks a fully valid transaction.
	ValidationValid
	// ValidationEndorsementPolicyFailure marks a VSCC rejection.
	ValidationEndorsementPolicyFailure
	// ValidationMVCCConflict marks a read-set version conflict.
	ValidationMVCCConflict
	// ValidationBadSignature marks an invalid creator or endorser signature.
	ValidationBadSignature
	// ValidationDuplicateTxID marks a replayed transaction ID.
	ValidationDuplicateTxID
	// ValidationBadPayload marks a structurally invalid envelope.
	ValidationBadPayload
	// ValidationEarlyAbort marks a transaction dropped by the ordering
	// service's conflict-aware cutter (Fabric++-style early abort): its
	// reads were doomed by earlier writes in the same block and no
	// reordering could save it, so it never reaches validate CPU.
	ValidationEarlyAbort
)

// String returns the Fabric-style name of the code.
func (c ValidationCode) String() string {
	switch c {
	case ValidationPending:
		return "PENDING"
	case ValidationValid:
		return "VALID"
	case ValidationEndorsementPolicyFailure:
		return "ENDORSEMENT_POLICY_FAILURE"
	case ValidationMVCCConflict:
		return "MVCC_READ_CONFLICT"
	case ValidationBadSignature:
		return "BAD_SIGNATURE"
	case ValidationDuplicateTxID:
		return "DUPLICATE_TXID"
	case ValidationBadPayload:
		return "BAD_PAYLOAD"
	case ValidationEarlyAbort:
		return "EARLY_ABORT_CONFLICT"
	default:
		return fmt.Sprintf("ValidationCode(%d)", uint8(c))
	}
}

// Valid reports whether the code denotes a committed, state-changing tx.
func (c ValidationCode) Valid() bool { return c == ValidationValid }

// Proposal is a signed chaincode-invocation request prepared by a client
// and sent to endorsing peers in the execute phase.
type Proposal struct {
	TxID        TxID
	ChannelID   string
	ChaincodeID string
	Fn          string
	Args        [][]byte
	Creator     []byte // serialized client identity
	Nonce       []byte
	Timestamp   int64 // unix nanoseconds at the client
	// TraceID carries the gateway-minted trace identifier through the
	// envelope so every layer can attribute spans to one logical
	// submission. Empty when tracing is disabled (the default); retried
	// attempts reuse the first attempt's TraceID.
	TraceID string
}

// ComputeTxID derives the transaction ID the way Fabric does: a hash of
// the client nonce concatenated with the creator identity. The ID string
// is its one allocation while nonce and creator fit txIDScratch bytes.
func ComputeTxID(nonce, creator []byte) TxID {
	var sum [sha256.Size]byte
	if n := len(nonce) + len(creator); n <= txIDScratch {
		var buf [txIDScratch]byte
		copy(buf[copy(buf[:], nonce):], creator)
		sum = sha256.Sum256(buf[:n])
	} else {
		h := sha256.New()
		h.Write(nonce)
		h.Write(creator)
		copy(sum[:], h.Sum(nil))
	}
	var id [2 * sha256.Size]byte
	hex.Encode(id[:], sum[:])
	return TxID(id[:])
}

// txIDScratch is the stack buffer ComputeTxID hashes nonce || creator
// in; a serialized client identity is a few hundred bytes.
const txIDScratch = 1024

func (p *Proposal) encode(enc *Encoder) {
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
	// TraceID stays last so Proposal remains an encoding prefix of
	// Transaction for PeekEnvelopeInfo.
	enc.String(p.TraceID)
}

// Size returns the length of the proposal's encoding, the prefix of its
// Transaction envelope, without encoding it.
func (p *Proposal) Size() int {
	n := fieldSize(len(p.TxID)) + fieldSize(len(p.ChannelID)) +
		fieldSize(len(p.ChaincodeID)) + fieldSize(len(p.Fn)) +
		uvarintSize(uint64(len(p.Args)))
	for _, a := range p.Args {
		n += fieldSize(len(a))
	}
	return n + fieldSize(len(p.Creator)) + fieldSize(len(p.Nonce)) + 8 +
		fieldSize(len(p.TraceID))
}

// UnmarshalProposal decodes one encoded proposal. Its fields are
// read-only views of b, as a decoded Transaction's are.
func UnmarshalProposal(b []byte) (*Proposal, error) {
	var d txDecoder
	d.startOne(b)
	var p Proposal
	d.proposal(&p)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("unmarshal proposal: %w", err)
	}
	return &p, nil
}

// Hash returns the SHA-256 digest of the encoded proposal. Endorsers
// sign over this digest together with the results hash. Hash only
// slices the array hash returns, which keeps it small enough to inline:
// a digest the caller does not keep then stays on the caller's stack,
// and only one that escapes is allocated.
func (p *Proposal) Hash() []byte {
	sum := p.hash()
	return sum[:]
}

func (p *Proposal) hash() [sha256.Size]byte {
	enc := hashEncoder()
	p.encode(enc)
	return sumAndRelease(enc)
}

// hashEncoders recycles the encoding buffers that Hash, RWSet.Hash and
// ClientDigest hash and discard, so no caller ever holds one.
var hashEncoders = sync.Pool{New: func() any { return NewEncoder(256) }}

// hashEncoder takes an empty encoder from hashEncoders.
func hashEncoder() *Encoder {
	enc := hashEncoders.Get().(*Encoder)
	enc.buf = enc.buf[:0]
	return enc
}

// sumAndRelease returns the SHA-256 digest of enc's bytes and gives enc
// back to hashEncoders.
func sumAndRelease(enc *Encoder) [sha256.Size]byte {
	sum := sha256.Sum256(enc.buf)
	if cap(enc.buf) <= maxPooledEncoder {
		hashEncoders.Put(enc)
	}
	return sum
}

// maxPooledEncoder caps the buffers hashEncoders keeps, so one huge
// proposal does not pin its buffer for the process's lifetime.
const maxPooledEncoder = 64 << 10

// Endorsement is one endorsing peer's signed approval of a proposal
// response (the ESCC output).
type Endorsement struct {
	EndorserID  string // MSP-qualified identity, e.g. "Org1.peer0"
	EndorserOrg string
	Signature   []byte // over proposal hash || response payload
}

func (en *Endorsement) encode(enc *Encoder) {
	enc.String(en.EndorserID)
	enc.String(en.EndorserOrg)
	enc.Bytes2(en.Signature)
}

// ProposalResponse is what an endorsing peer returns to the client:
// the simulated read-write set plus the peer's endorsement.
type ProposalResponse struct {
	TxID        TxID
	Status      int32 // 200 on success
	Message     string
	ResultsHash []byte // Results.Hash(); the endorser signs Digest(proposal hash, ResultsHash)
	Results     *RWSet
	Payload     []byte // chaincode response payload
	Endorsement Endorsement
}

// OK reports whether the endorsement succeeded.
func (pr *ProposalResponse) OK() bool { return pr.Status == 200 }

// Marshal returns the deterministic encoding of the response.
func (pr *ProposalResponse) Marshal() []byte {
	enc := NewEncoder(256)
	enc.String(string(pr.TxID))
	enc.Uvarint(uint64(uint32(pr.Status)))
	enc.String(pr.Message)
	enc.Bytes2(pr.ResultsHash)
	hasResults := pr.Results != nil
	enc.Bool(hasResults)
	if hasResults {
		pr.Results.encode(enc)
	}
	enc.Bytes2(pr.Payload)
	pr.Endorsement.encode(enc)
	return enc.Bytes()
}

// UnmarshalProposalResponse decodes a response produced by Marshal. Its
// fields are read-only views of b, as a decoded Transaction's are.
func UnmarshalProposalResponse(b []byte) (*ProposalResponse, error) {
	var d txDecoder
	d.startOne(b)
	var pr ProposalResponse
	pr.TxID = TxID(d.str())
	pr.Status = int32(uint32(d.Uvarint()))
	pr.Message = d.str()
	pr.ResultsHash = d.bytes()
	if d.Bool() {
		pr.Results = &RWSet{}
		d.rwset(pr.Results)
	}
	pr.Payload = d.bytes()
	d.endorsement(&pr.Endorsement)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("unmarshal proposal response: %w", err)
	}
	return &pr, nil
}

// Transaction is the envelope a client broadcasts to the ordering
// service after collecting endorsements: the original proposal, the
// agreed read-write set, and the endorsements that back it.
type Transaction struct {
	Proposal     Proposal
	Results      RWSet
	Endorsements []Endorsement
	ClientSig    []byte // client signature over proposal hash || results
	SubmitTime   int64  // unix nanos when the client broadcast the envelope
	Padding      []byte // models the paper's transaction-size parameter
}

func (t *Transaction) encode(enc *Encoder) {
	t.Proposal.encode(enc)
	t.Results.encode(enc)
	enc.Uvarint(uint64(len(t.Endorsements)))
	for i := range t.Endorsements {
		t.Endorsements[i].encode(enc)
	}
	enc.Bytes2(t.ClientSig)
	enc.Int64(t.SubmitTime)
	enc.Bytes2(t.Padding)
}

// Marshal returns the deterministic encoding of the transaction, in a
// slice sized exactly to it.
func (t *Transaction) Marshal() []byte {
	enc := NewEncoder(t.size())
	t.encode(enc)
	return enc.Bytes()
}

// size returns the length of the transaction's encoding.
func (t *Transaction) size() int {
	n := t.Proposal.Size() + t.Results.Size() + uvarintSize(uint64(len(t.Endorsements)))
	for i := range t.Endorsements {
		en := &t.Endorsements[i]
		n += fieldSize(len(en.EndorserID)) + fieldSize(len(en.EndorserOrg)) + fieldSize(len(en.Signature))
	}
	return n + fieldSize(len(t.ClientSig)) + 8 + fieldSize(len(t.Padding))
}

// ClientDigest returns the message the client signs as ClientSig:
// Digest(Proposal.Hash(), Results.Marshal()), with the set encoded in a
// pooled buffer. It returns an array, so the caller decides where the
// message lives.
func (t *Transaction) ClientDigest() [sha256.Size]byte {
	propHash := t.Proposal.hash()
	enc := hashEncoder()
	enc.buf = append(enc.buf, propHash[:]...)
	t.Results.encode(enc)
	return sumAndRelease(enc)
}

// UnmarshalTransaction decodes a transaction produced by Marshal. The
// result is a read-only view of b; see Block.Transactions.
func UnmarshalTransaction(b []byte) (*Transaction, error) {
	var d txDecoder
	d.startOne(b)
	var t Transaction
	if err := d.transaction(&t); err != nil {
		return nil, err
	}
	return &t, nil
}

// EnvelopeInfo is the prefix of a marshaled Transaction that the
// ordering path needs for conflict analysis: the transaction identity,
// the chaincode namespace, and the endorsed read-write set. Peeking
// this prefix costs one partial decode instead of a full envelope
// unmarshal (endorsements, signatures, and padding are skipped).
//
// Like Block.Transactions, a peeked EnvelopeInfo is a read-only view of
// its envelope: the strings share one copy of it (of the whole batch,
// for PeekEnvelopeInfos), write values alias it, and Results' slices are
// carved for the one call. Nothing may write to them, and a string kept
// past the batch must be copied, or it keeps that whole copy alive.
type EnvelopeInfo struct {
	TxID        TxID
	ChaincodeID string
	TraceID     string
	Results     RWSet
}

// PeekEnvelopeInfo decodes just the proposal and read-write set from a
// marshaled Transaction envelope. The encoding places them first
// precisely so the ordering service can see endorsed rwsets without
// paying for (or trusting) the rest of the envelope.
func PeekEnvelopeInfo(b []byte) (*EnvelopeInfo, error) {
	var d txDecoder
	d.startOne(b)
	info := &EnvelopeInfo{}
	d.envelopeInfo(info)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("peek envelope: %w", err)
	}
	return info, nil
}

// PeekEnvelopeInfos is PeekEnvelopeInfo over a whole batch with one
// decoder, the way Block.Transactions decodes a block: the strings share
// one string copy of the whole batch, the infos share one array, and
// their reads and writes are carved from shared slabs. ok must hold an
// entry per envelope; ok[i] reports whether envelope i peeked, and the
// info of one that did not is left zero. Each info is a view of its
// envelope, as PeekEnvelopeInfo's is.
func PeekEnvelopeInfos(batch [][]byte, ok []bool) []EnvelopeInfo {
	var d txDecoder
	later := d.begin(batch)
	infos := make([]EnvelopeInfo, len(batch))
	for i, env := range batch {
		later -= len(env)
		d.start(env, i, len(batch)-1-i, later)
		d.envelopeInfo(&infos[i])
		if ok[i] = d.Err() == nil; !ok[i] {
			infos[i] = EnvelopeInfo{}
		}
	}
	return infos
}

// ID returns the transaction's ID.
func (t *Transaction) ID() TxID { return t.Proposal.TxID }
