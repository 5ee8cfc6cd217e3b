package msp

import (
	"bytes"
	"errors"
	"testing"

	"fabricsim/internal/ca"
	"fabricsim/internal/fabcrypto"
)

func testMSP(t *testing.T) (*MSP, *ca.CA, *ca.CA) {
	t.Helper()
	org1, err := ca.New("Org1", fabcrypto.SchemeECDSA)
	if err != nil {
		t.Fatal(err)
	}
	org2, err := ca.New("Org2", fabcrypto.SchemeECDSA)
	if err != nil {
		t.Fatal(err)
	}
	return New(org1, org2), org1, org2
}

func TestValidateIdentity(t *testing.T) {
	m, org1, _ := testMSP(t)
	e, _ := org1.Enroll("peer0", ca.RolePeer)
	id := NewSigningIdentity(e)
	cert, err := m.ValidateIdentity(id.Serialized())
	if err != nil {
		t.Fatal(err)
	}
	if cert.ID() != "Org1.peer0" {
		t.Errorf("ID = %s", cert.ID())
	}
	// Second call hits the cache; result must be identical.
	cert2, err := m.ValidateIdentity(id.Serialized())
	if err != nil || cert2 != cert {
		t.Error("cache miss or mismatch on repeat validation")
	}
}

func TestUnknownOrgRejected(t *testing.T) {
	m, _, _ := testMSP(t)
	org3, _ := ca.New("Org3", fabcrypto.SchemeECDSA)
	e, _ := org3.Enroll("peer0", ca.RolePeer)
	if _, err := m.ValidateIdentity(e.Cert.Marshal()); !errors.Is(err, ErrUnknownOrg) {
		t.Errorf("foreign org accepted: %v", err)
	}
}

func TestVerifySignature(t *testing.T) {
	m, org1, _ := testMSP(t)
	e, _ := org1.Enroll("client1", ca.RoleClient)
	id := NewSigningIdentity(e)
	msg := []byte("payload")
	sig, err := id.Sign(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.VerifySignature(id.Serialized(), msg, sig); err != nil {
		t.Errorf("valid signature rejected: %v", err)
	}
	if _, err := m.VerifySignature(id.Serialized(), []byte("other"), sig); !errors.Is(err, ErrBadSig) {
		t.Errorf("wrong message accepted: %v", err)
	}
}

// TestVerifyByID resolves the endorser's certificate from its org CA's
// records: a signature verifies only under the identity that made it,
// and a name the CA never enrolled, or an org the MSP does not trust,
// is refused.
func TestVerifyByID(t *testing.T) {
	m, org1, _ := testMSP(t)
	e, _ := org1.Enroll("peer0", ca.RolePeer)
	other, _ := org1.Enroll("peer1", ca.RolePeer)
	msg := []byte("endorsement")
	sig, _ := NewSigningIdentity(e).Sign(nil, msg)
	if err := m.VerifyByID("Org1.peer0", msg, sig); err != nil {
		t.Errorf("VerifyByID: %v", err)
	}
	if err := m.VerifyByID("Org1.peer1", msg, sig); !errors.Is(err, ErrBadSig) {
		t.Errorf("peer0's signature verified as peer1: %v", err)
	}
	otherSig, _ := NewSigningIdentity(other).Sign(nil, msg)
	if err := m.VerifyByID("Org1.peer0", msg, otherSig); !errors.Is(err, ErrBadSig) {
		t.Errorf("peer1's signature verified as peer0: %v", err)
	}
	if err := m.VerifyByID("Org1.other", msg, sig); err == nil {
		t.Error("unenrolled identity accepted")
	}
	if err := m.VerifyByID("Org9.peer0", msg, sig); !errors.Is(err, ErrUnknownOrg) {
		t.Errorf("untrusted org: %v", err)
	}
}

func TestSigningIdentityAccessors(t *testing.T) {
	_, org1, _ := testMSP(t)
	e, _ := org1.Enroll("peer0", ca.RolePeer)
	id := NewSigningIdentity(e)
	if id.ID() != "Org1.peer0" || id.Org() != "Org1" {
		t.Errorf("accessors: %s / %s", id.ID(), id.Org())
	}
}

// TestSerializedAllocs pins that a signing identity's creator bytes are
// marshaled once: Serialized allocates nothing and returns the
// certificate's encoding.
func TestSerializedAllocs(t *testing.T) {
	_, org1, _ := testMSP(t)
	e, _ := org1.Enroll("client1", ca.RoleClient)
	id := NewSigningIdentity(e)
	if got, want := id.Serialized(), e.Cert.Marshal(); !bytes.Equal(got, want) {
		t.Fatalf("Serialized = %x, want Cert.Marshal() %x", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = id.Serialized() }); allocs != 0 {
		t.Errorf("Serialized: %.1f allocations, want 0", allocs)
	}
}

// TestValidateIdentityCacheHitAllocs pins that a cached identity is found
// without copying the certificate bytes into a key.
func TestValidateIdentityCacheHitAllocs(t *testing.T) {
	m, org1, _ := testMSP(t)
	e, _ := org1.Enroll("peer0", ca.RolePeer)
	raw := e.Cert.Marshal()
	if _, err := m.ValidateIdentity(raw); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = m.ValidateIdentity(raw) }); allocs != 0 {
		t.Errorf("cache hit: %.1f allocations, want 0", allocs)
	}
}

// TestSigningIdentityIDAllocs pins that the identity string is built
// once, when the identity is: an endorser names itself in every
// endorsement. Concatenating Org+"."+Name on each call took 1.
func TestSigningIdentityIDAllocs(t *testing.T) {
	_, org1, _ := testMSP(t)
	e, _ := org1.Enroll("peer0", ca.RolePeer)
	id := NewSigningIdentity(e)
	if got, want := id.ID(), e.Cert.ID(); got != want {
		t.Fatalf("ID = %q, want Cert.ID() %q", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { sinkID = id.ID() }); allocs != 0 {
		t.Errorf("ID: %.1f allocations, want 0", allocs)
	}
}

// sinkID makes the pinned ID escape, as an endorsement's EndorserID
// does; a concatenation that stays local fits a stack buffer.
var sinkID string
