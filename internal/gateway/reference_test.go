package gateway

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"fabricsim/internal/fabcrypto"
	"fabricsim/internal/peer"
	"fabricsim/internal/policy"
	"fabricsim/internal/types"
)

// refClientSig is the envelope's client signature as it was before the
// gateway kept its message and signature in the proposal: HMAC-SHA256,
// through a fresh keyed HMAC, over a fresh digest of the proposal hash
// and the marshaled read-write set.
func refClientSig(key []byte, tx *types.Transaction) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(fabcrypto.Digest(tx.Proposal.Hash(), tx.Results.Marshal()))
	return m.Sum(nil)
}

// seededRand returns a source seeded by the FNV hash of parts, so a
// stub endorser and the reference draw the same response.
func seededRand(parts ...string) *rand.Rand {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
	}
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// seededResponse is the stub endorser's answer at node: a read-write
// set and payload drawn from the TxID alone, so every endorser agrees,
// and an endorsement drawn from the TxID and the node. One answer in
// eight is a refusal naming the node.
func seededResponse(id types.TxID, node string) *types.ProposalResponse {
	rn := seededRand(string(id), node)
	if rn.Intn(8) == 0 {
		return &types.ProposalResponse{TxID: id, Status: 500, Message: "refused by " + node}
	}
	sig := make([]byte, 32+rn.Intn(40))
	rn.Read(sig)
	rt := seededRand(string(id))
	rwset := &types.RWSet{}
	for n := rt.Intn(4); n > 0; n-- {
		rwset.Reads = append(rwset.Reads, types.KVRead{Key: fmt.Sprintf("r%d", rt.Intn(100)), Version: types.Version{BlockNum: rt.Uint64() % 50}})
	}
	for n := rt.Intn(4); n > 0; n-- {
		v := make([]byte, rt.Intn(200))
		rt.Read(v)
		rwset.Writes = append(rwset.Writes, types.KVWrite{Key: fmt.Sprintf("w%d", rt.Intn(100)), Value: v})
	}
	payload := make([]byte, rt.Intn(16))
	rt.Read(payload)
	return &types.ProposalResponse{
		TxID:        id,
		Status:      200,
		ResultsHash: rwset.Hash(),
		Results:     rwset,
		Payload:     payload,
		Endorsement: types.Endorsement{EndorserID: node + ".id", EndorserOrg: node + ".org", Signature: sig},
	}
}

// TestEndorseMatchesReference runs 10 000 seeded proposals under AND
// over one to five stub endorsers, whose seeded answers include
// refusals, and holds each outcome to the reference: a refusal fails
// the endorsement with the first refusal in target order, and an
// endorsed transaction's payload and envelope, client signature
// included, equal the reference's byte for byte. HMAC keys derive from
// identities, so the signatures compare exactly.
func TestEndorseMatchesReference(t *testing.T) {
	s := newStubNet(t, zeroClientCosts, func(s *stubNet) {
		s.endorsers = 5
		s.respond = func(_ context.Context, node string, req *peer.EndorseRequest) (*types.ProposalResponse, error) {
			return seededResponse(req.Proposal.TxID, node), nil
		}
	})
	g := s.gw
	key := g.cfg.Identity.Key.Public()
	policies := make([]policy.Policy, 5)
	for i := range policies {
		policies[i] = policy.AndOverPeers(i + 1)
	}
	r := rand.New(rand.NewSource(55))
	ctx := context.Background()
	refused := 0
	for i := 0; i < 10000; i++ {
		args := [][]byte{[]byte(fmt.Sprintf("k%d", r.Intn(1000))), make([]byte, r.Intn(64))}
		r.Read(args[1])
		p, err := g.propose(ctx, "", policies[r.Intn(len(policies))], "bench", "write", args, g.nonce.Add(1), nil, false)
		if err != nil {
			t.Fatal(err)
		}
		txn, err := p.Endorse(ctx)

		var responses []*types.ProposalResponse
		var refusal *types.ProposalResponse
		for _, tg := range p.targets {
			resp := seededResponse(p.prop.TxID, tg.node)
			if !resp.OK() && refusal == nil {
				refusal = resp
			}
			responses = append(responses, resp)
		}
		if refusal != nil {
			refused++
			want := fmt.Sprintf("%v: %s", ErrEndorsementFailed, refusal.Message)
			if !errors.Is(err, ErrEndorsementFailed) || err.Error() != want {
				t.Fatalf("proposal %d: err = %v, want %q", i, err, want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("proposal %d: %v", i, err)
		}
		tx := &types.Transaction{
			Proposal:   p.prop,
			Results:    *responses[0].Results,
			SubmitTime: p.submitted.UnixNano(),
		}
		for _, resp := range responses {
			tx.Endorsements = append(tx.Endorsements, resp.Endorsement)
		}
		tx.ClientSig = refClientSig(key, tx)
		if !bytes.Equal(txn.env, tx.Marshal()) {
			t.Fatalf("proposal %d: envelope differs from the reference", i)
		}
		if !bytes.Equal(txn.payload, responses[0].Payload) {
			t.Fatalf("proposal %d: payload %x, want %x", i, txn.payload, responses[0].Payload)
		}
	}
	if refused == 0 || refused == 10000 {
		t.Fatalf("%d of 10 000 proposals refused; the draw must cover both outcomes", refused)
	}
}
