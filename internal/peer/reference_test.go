package peer

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"fabricsim/internal/chaincode"
	"fabricsim/internal/fabcrypto"
	"fabricsim/internal/statedb"
	"fabricsim/internal/types"
)

// refSign is HMACKeyPair.Sign as it was before it appended to a
// caller's buffer: a fresh keyed HMAC and a fresh sum.
func refSign(key, msg []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(msg)
	return m.Sum(nil)
}

// refESCC is the endorser's ESCC step as it was before the message and
// the signature lived in the reply: the results hash of the marshaled
// set, and a signature over a fresh digest of the proposal hash and it.
func refESCC(key []byte, prop *types.Proposal, rwset *types.RWSet) (resultsHash, sig []byte) {
	resultsHash = fabcrypto.Digest(rwset.Marshal())
	sig = refSign(key, fabcrypto.Digest(prop.Hash(), resultsHash))
	return resultsHash, sig
}

// refPayload is the payload the endorser returned for prop before the
// sample chaincodes shared their "OK": a fresh "OK" for KVStore's
// writes, and otherwise what the chaincode returns on empty state.
func refPayload(t *testing.T, prop *types.Proposal) []byte {
	var cc chaincode.Chaincode = chaincode.NewKVStore("bench")
	switch {
	case prop.ChaincodeID == "ctr":
		cc = chaincode.NewCounter("ctr")
	case prop.Fn != "read":
		return []byte("OK")
	}
	sim := chaincode.MakeSimulator(prop.TxID, prop.ChaincodeID, statedb.New())
	out, err := cc.Invoke(&sim, prop.Fn, prop.Args)
	if err != nil {
		t.Fatalf("reference %s %s: %v", prop.ChaincodeID, prop.Fn, err)
	}
	return out
}

// genProposal draws one seeded KVStore or Counter proposal from the
// env's client, numbered n so every TxID is fresh.
func (e *env) genProposal(r *rand.Rand, n int) *types.Proposal {
	key := func() []byte { return []byte(fmt.Sprintf("k%d", r.Intn(1000))) }
	value := func() []byte {
		v := make([]byte, r.Intn(300))
		r.Read(v)
		return v
	}
	cc, fn, args := "bench", "", [][]byte(nil)
	switch r.Intn(5) {
	case 0:
		fn, args = "write", [][]byte{key(), value()}
	case 1:
		fn, args = "readwrite", [][]byte{key(), value()}
	case 2:
		fn, args = "del", [][]byte{key()}
	case 3:
		fn, args = "read", [][]byte{key()}
	default:
		cc, fn, args = "ctr", "inc", [][]byte{key()}
	}
	nonce := []byte(fmt.Sprintf("ref-%d", n))
	creator := e.client.Serialized()
	return &types.Proposal{
		TxID:        types.ComputeTxID(nonce, creator),
		ChannelID:   "perf",
		ChaincodeID: cc,
		Fn:          fn,
		Args:        args,
		Creator:     creator,
		Nonce:       nonce,
		Timestamp:   r.Int63(),
	}
}

// TestEndorseMatchesReference endorses 10 000 seeded proposals in
// package and holds each response to the reference ESCC: the same
// results hash, endorsement signature and payload, byte for byte. HMAC
// keys derive from identities, so the signatures compare exactly.
func TestEndorseMatchesReference(t *testing.T) {
	e := newEndorseEnv(t)
	p := e.peers[0]
	key := p.cfg.Identity.Key.Public()
	r := rand.New(rand.NewSource(55))
	ctx := context.Background()
	for i := 0; i < 10000; i++ {
		prop := e.genProposal(r, i)
		raw, _, err := p.handleEndorse(ctx, "client", &EndorseRequest{Proposal: prop})
		if err != nil {
			t.Fatalf("proposal %d: %v", i, err)
		}
		resp := raw.(*types.ProposalResponse)
		if !resp.OK() {
			t.Fatalf("proposal %d (%s %s): %s", i, prop.ChaincodeID, prop.Fn, resp.Message)
		}
		wantHash, wantSig := refESCC(key, prop, resp.Results)
		if !bytes.Equal(resp.ResultsHash, wantHash) {
			t.Fatalf("proposal %d: results hash %x, want %x", i, resp.ResultsHash, wantHash)
		}
		if !bytes.Equal(resp.Endorsement.Signature, wantSig) {
			t.Fatalf("proposal %d: ESCC signature %x, want %x", i, resp.Endorsement.Signature, wantSig)
		}
		if want := refPayload(t, prop); !bytes.Equal(resp.Payload, want) {
			t.Fatalf("proposal %d (%s %s): payload %q, want %q", i, prop.ChaincodeID, prop.Fn, resp.Payload, want)
		}
	}
}
