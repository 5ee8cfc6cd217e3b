// Package ca reproduces the role of Fabric CA: an identity-management
// service that enrolls the participants of the network (peers, ordering
// service nodes, and clients) by issuing certificates, and supports
// revocation. Certificates use a compact deterministic encoding rather
// than X.509, signed by the CA's own key pair.
package ca

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"fabricsim/internal/fabcrypto"
	"fabricsim/internal/types"
)

// Role is the function a certificate holder plays in the network.
type Role uint8

// Roles assignable to enrolled identities.
const (
	RolePeer Role = iota + 1
	RoleOrderer
	RoleClient
	RoleAdmin
)

// String returns the lowercase role name.
func (r Role) String() string {
	switch r {
	case RolePeer:
		return "peer"
	case RoleOrderer:
		return "orderer"
	case RoleClient:
		return "client"
	case RoleAdmin:
		return "admin"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Errors returned by certificate validation.
var (
	ErrExpired  = errors.New("ca: certificate outside validity window")
	ErrBadCASig = errors.New("ca: certificate not signed by this CA")
)

// Certificate binds an identity (name, org, role) to a public key, with
// a validity window, a serial number, and the issuing CA's signature.
type Certificate struct {
	Serial    uint64
	Name      string // e.g. "peer0"
	Org       string // e.g. "Org1"
	Role      Role
	Scheme    string // signature scheme of PubKey
	PubKey    []byte
	NotBefore int64 // unix nanos
	NotAfter  int64 // unix nanos
	CASig     []byte
}

// ID returns the MSP-qualified identity string, "Org.Name".
func (c *Certificate) ID() string { return c.Org + "." + c.Name }

// tbs returns the to-be-signed encoding (everything but CASig).
func (c *Certificate) tbs() []byte {
	enc := types.NewEncoder(192)
	enc.Uvarint(c.Serial)
	enc.String(c.Name)
	enc.String(c.Org)
	enc.Byte(byte(c.Role))
	enc.String(c.Scheme)
	enc.Bytes2(c.PubKey)
	enc.Int64(c.NotBefore)
	enc.Int64(c.NotAfter)
	return enc.Bytes()
}

// Marshal returns the full certificate encoding including the CA
// signature; this is the form embedded in proposals as the creator.
func (c *Certificate) Marshal() []byte {
	enc := types.NewEncoder(256)
	body := c.tbs()
	enc.Bytes2(body)
	enc.Bytes2(c.CASig)
	return enc.Bytes()
}

// Unmarshal decodes a certificate produced by Marshal.
func Unmarshal(b []byte) (*Certificate, error) {
	dec := types.NewDecoder(b)
	body := dec.Bytes2()
	sig := dec.Bytes2()
	if err := dec.Finish(); err != nil {
		return nil, fmt.Errorf("unmarshal certificate: %w", err)
	}
	bd := types.NewDecoder(body)
	var c Certificate
	c.Serial = bd.Uvarint()
	c.Name = bd.String()
	c.Org = bd.String()
	c.Role = Role(bd.Byte())
	c.Scheme = bd.String()
	c.PubKey = bd.Bytes2()
	c.NotBefore = bd.Int64()
	c.NotAfter = bd.Int64()
	if err := bd.Finish(); err != nil {
		return nil, fmt.Errorf("unmarshal certificate body: %w", err)
	}
	c.CASig = sig
	return &c, nil
}

// Enrollment is the result of enrolling with the CA: the certificate
// plus the private key pair it certifies.
type Enrollment struct {
	Cert *Certificate
	Key  fabcrypto.KeyPair
}

// CA is the certificate authority for one organization (Fabric deploys
// one CA per org). It issues one enrollment per identity, and its
// records resolve an enrolled name to that identity's certificate.
type CA struct {
	org    string
	scheme string
	key    fabcrypto.KeyPair

	mu       sync.Mutex
	enrolled map[string]*Enrollment // name -> its one enrollment
}

// New creates a CA for org issuing keys of the given fabcrypto scheme.
func New(org, scheme string) (*CA, error) {
	key, err := fabcrypto.NewKeyPair(scheme, identity(org, "", 0))
	if err != nil {
		return nil, fmt.Errorf("ca %s: %w", org, err)
	}
	return &CA{
		org:      org,
		scheme:   scheme,
		key:      key,
		enrolled: make(map[string]*Enrollment),
	}, nil
}

// identity names the holder of a key to fabcrypto.NewKeyPair: org, name
// and role, length-prefixed so no two holders share one. The CA itself
// is (org, "", 0); Enroll refuses role 0.
func identity(org, name string, role Role) string {
	enc := types.NewEncoder(len(org) + len(name) + 8)
	enc.String(org)
	enc.String(name)
	enc.Byte(byte(role))
	return string(enc.Bytes())
}

// Org returns the organization this CA serves.
func (ca *CA) Org() string { return ca.org }

// PublicKey returns the CA's serialized verification key. MSPs embed it
// as the org's root of trust.
func (ca *CA) PublicKey() []byte { return ca.key.Public() }

// Enroll issues name's certificate and key pair as role. Each name is
// enrolled once: a later call returns the first enrollment, and refuses
// a different role. Serials therefore count identities, and a
// certificate is valid at every instant, so neither the call order nor
// the clock reaches its bytes.
func (ca *CA) Enroll(name string, role Role) (*Enrollment, error) {
	if role < RolePeer || role > RoleAdmin {
		return nil, fmt.Errorf("ca %s enroll %s: unknown %s", ca.org, name, role)
	}
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if e, ok := ca.enrolled[name]; ok {
		if e.Cert.Role != role {
			return nil, fmt.Errorf("ca %s enroll %s as %s: enrolled as %s", ca.org, name, role, e.Cert.Role)
		}
		return e, nil
	}
	key, err := fabcrypto.NewKeyPair(ca.scheme, identity(ca.org, name, role))
	if err != nil {
		return nil, fmt.Errorf("ca %s enroll %s: %w", ca.org, name, err)
	}
	cert := &Certificate{
		Serial:    uint64(len(ca.enrolled)) + 1,
		Name:      name,
		Org:       ca.org,
		Role:      role,
		Scheme:    ca.scheme,
		PubKey:    key.Public(),
		NotBefore: 0,
		NotAfter:  math.MaxInt64,
	}
	sig, err := ca.key.Sign(nil, cert.tbs())
	if err != nil {
		return nil, fmt.Errorf("ca %s sign cert: %w", ca.org, err)
	}
	cert.CASig = sig
	e := &Enrollment{Cert: cert, Key: key}
	ca.enrolled[name] = e
	return e, nil
}

// Lookup returns the certificate the CA issued to name, or nil if it
// enrolled none. It is safe to call concurrently with Enroll.
func (ca *CA) Lookup(name string) *Certificate {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if e := ca.enrolled[name]; e != nil {
		return e.Cert
	}
	return nil
}

// Validate checks that cert was issued by this CA and is inside its
// validity window at time now.
func (ca *CA) Validate(cert *Certificate, now time.Time) error {
	if cert.Org != ca.org {
		return fmt.Errorf("ca %s: certificate for foreign org %s", ca.org, cert.Org)
	}
	if err := fabcrypto.Verify(ca.scheme, ca.PublicKey(), cert.tbs(), cert.CASig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCASig, err)
	}
	n := now.UnixNano()
	if n < cert.NotBefore || n > cert.NotAfter {
		return ErrExpired
	}
	return nil
}
