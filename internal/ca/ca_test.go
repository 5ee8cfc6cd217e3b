package ca

import (
	"errors"
	"testing"
	"time"

	"fabricsim/internal/fabcrypto"
)

func newTestCA(t *testing.T) *CA {
	t.Helper()
	authority, err := New("Org1", fabcrypto.SchemeECDSA)
	if err != nil {
		t.Fatal(err)
	}
	return authority
}

func TestEnrollAndValidate(t *testing.T) {
	authority := newTestCA(t)
	e, err := authority.Enroll("peer0", RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	if e.Cert.ID() != "Org1.peer0" {
		t.Errorf("ID = %s", e.Cert.ID())
	}
	if e.Cert.Role != RolePeer {
		t.Errorf("Role = %s", e.Cert.Role)
	}
	if err := authority.Validate(e.Cert, time.Now()); err != nil {
		t.Errorf("fresh certificate invalid: %v", err)
	}
}

func TestCertificateRoundTrip(t *testing.T) {
	authority := newTestCA(t)
	e, _ := authority.Enroll("client1", RoleClient)
	got, err := Unmarshal(e.Cert.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != e.Cert.ID() || got.Serial != e.Cert.Serial || got.Role != e.Cert.Role {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if err := authority.Validate(got, time.Now()); err != nil {
		t.Errorf("round-tripped cert invalid: %v", err)
	}
}

func TestForgedCertificateRejected(t *testing.T) {
	authority := newTestCA(t)
	other := newTestCA(t) // different key, same org name
	e, _ := other.Enroll("peer0", RolePeer)
	if err := authority.Validate(e.Cert, time.Now()); !errors.Is(err, ErrBadCASig) {
		t.Errorf("foreign-CA cert accepted: %v", err)
	}
}

func TestTamperedCertificateRejected(t *testing.T) {
	authority := newTestCA(t)
	e, _ := authority.Enroll("peer0", RolePeer)
	tampered := *e.Cert
	tampered.Name = "admin0"
	if err := authority.Validate(&tampered, time.Now()); !errors.Is(err, ErrBadCASig) {
		t.Errorf("tampered cert accepted: %v", err)
	}
}

func TestExpiry(t *testing.T) {
	authority := newTestCA(t)
	e, _ := authority.Enroll("peer0", RolePeer)
	future := time.Now().Add(366 * 24 * time.Hour)
	if err := authority.Validate(e.Cert, future); !errors.Is(err, ErrExpired) {
		t.Errorf("expired cert accepted: %v", err)
	}
	past := time.Now().Add(-time.Hour)
	if err := authority.Validate(e.Cert, past); !errors.Is(err, ErrExpired) {
		t.Errorf("not-yet-valid cert accepted: %v", err)
	}
}

func TestSerialsUnique(t *testing.T) {
	authority := newTestCA(t)
	seen := make(map[uint64]bool)
	for i := 0; i < 20; i++ {
		e, err := authority.Enroll("n", RoleClient)
		if err != nil {
			t.Fatal(err)
		}
		if seen[e.Cert.Serial] {
			t.Fatalf("serial %d reused", e.Cert.Serial)
		}
		seen[e.Cert.Serial] = true
	}
}

func TestWrongOrgRejected(t *testing.T) {
	org1 := newTestCA(t)
	org2, err := New("Org2", fabcrypto.SchemeECDSA)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := org2.Enroll("peer0", RolePeer)
	if err := org1.Validate(e.Cert, time.Now()); err == nil {
		t.Error("cert for foreign org accepted")
	}
}

func TestRoleString(t *testing.T) {
	if RolePeer.String() != "peer" || RoleOrderer.String() != "orderer" ||
		RoleClient.String() != "client" || RoleAdmin.String() != "admin" {
		t.Error("role names wrong")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("junk")); err == nil {
		t.Error("garbage certificate decoded")
	}
}
