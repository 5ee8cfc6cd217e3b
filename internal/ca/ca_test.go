package ca

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

// TestExpiry checks both ends of the validity window. Enroll issues
// certificates valid from the epoch on, so one is not yet valid only
// before the epoch; an expired one is an issued certificate re-signed
// with a past NotAfter.
func TestExpiry(t *testing.T) {
	authority := newTestCA(t)
	e, _ := authority.Enroll("peer0", RolePeer)
	for _, at := range []time.Time{time.Unix(0, 0), time.Now(), time.Unix(0, math.MaxInt64)} {
		if err := authority.Validate(e.Cert, at); err != nil {
			t.Errorf("certificate invalid at %v: %v", at, err)
		}
	}
	if err := authority.Validate(e.Cert, time.Unix(0, -1)); !errors.Is(err, ErrExpired) {
		t.Errorf("not-yet-valid cert accepted: %v", err)
	}
	expired := *e.Cert
	expired.NotAfter = time.Now().Add(-time.Hour).UnixNano()
	sig, err := authority.key.Sign(nil, expired.tbs())
	if err != nil {
		t.Fatal(err)
	}
	expired.CASig = sig
	if err := authority.Validate(&expired, time.Now()); !errors.Is(err, ErrExpired) {
		t.Errorf("expired cert accepted: %v", err)
	}
}

// TestSerialsUnique enrolls 20 names, which take 20 distinct serials;
// enrolling a name again returns its first enrollment, and enrolling it
// in a second role is refused.
func TestSerialsUnique(t *testing.T) {
	authority := newTestCA(t)
	seen := make(map[uint64]bool)
	for i := 0; i < 20; i++ {
		e, err := authority.Enroll(fmt.Sprintf("user%d", i), RoleClient)
		if err != nil {
			t.Fatal(err)
		}
		if seen[e.Cert.Serial] {
			t.Fatalf("serial %d reused", e.Cert.Serial)
		}
		seen[e.Cert.Serial] = true
	}
	first, _ := authority.Enroll("user3", RoleClient)
	again, err := authority.Enroll("user3", RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	if again != first || again.Cert.Serial != first.Cert.Serial {
		t.Errorf("re-enrolling user3 issued serial %d, want its first enrollment's %d", again.Cert.Serial, first.Cert.Serial)
	}
	if _, err := authority.Enroll("user3", RoleAdmin); err == nil {
		t.Error("user3 enrolled in a second role")
	}
	if got := authority.Lookup("user3"); got != first.Cert {
		t.Errorf("Lookup(user3) = %v, want its certificate", got)
	}
	if authority.Lookup("nobody") != nil {
		t.Error("Lookup found a name never enrolled")
	}
}

// TestIdentitiesDeriveDistinctKeys checks that under HMAC every
// identity, the CA's included, derives its own key, and that two CAs of
// one org derive the same ones, so two builds enroll the same bytes.
func TestIdentitiesDeriveDistinctKeys(t *testing.T) {
	build := func() []string {
		var keys []string
		for _, org := range []string{"Org1", "Org2"} {
			authority, err := New(org, fabcrypto.SchemeHMAC)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, string(authority.PublicKey()))
			for _, id := range []struct {
				name string
				role Role
			}{{"peer0", RolePeer}, {"peer1", RolePeer}, {"osn", RoleOrderer}, {"user1", RoleClient}, {"admin", RoleAdmin}} {
				e, err := authority.Enroll(id.name, id.role)
				if err != nil {
					t.Fatal(err)
				}
				keys = append(keys, string(e.Key.Public()))
			}
			if _, err := authority.Enroll("", 0); err == nil {
				t.Errorf("%s enrolled role 0, the CA's own", org)
			}
		}
		return keys
	}
	first := build()
	seen := make(map[string]int)
	for i, k := range first {
		if j, ok := seen[k]; ok {
			t.Errorf("identities %d and %d derived one key", j, i)
		}
		seen[k] = i
	}
	if second := build(); !slices.Equal(first, second) {
		t.Error("a second build derived other keys")
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
