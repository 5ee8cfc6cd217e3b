// Package msp implements the Membership Service Provider: the component
// that maps certificates to organizational identities and validates
// signatures against them. Every node in the network holds an MSP
// configured with the root CAs of the participating organizations.
package msp

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"fabricsim/internal/ca"
	"fabricsim/internal/fabcrypto"
)

// Errors returned during identity validation.
var (
	ErrUnknownOrg = errors.New("msp: unknown organization")
	ErrBadSig     = errors.New("msp: signature verification failed")
)

// SigningIdentity is a node's or client's own identity: its certificate
// plus the private key, able to produce signatures others can verify
// through the MSP.
type SigningIdentity struct {
	Cert *ca.Certificate
	Key  fabcrypto.KeyPair

	id         string // Cert.ID(), taken once
	serialized []byte // Cert.Marshal(), taken once
}

// NewSigningIdentity bundles an enrollment into a signing identity.
func NewSigningIdentity(e *ca.Enrollment) *SigningIdentity {
	return &SigningIdentity{Cert: e.Cert, Key: e.Key, id: e.Cert.ID(), serialized: slices.Clip(e.Cert.Marshal())}
}

// ID returns the MSP-qualified identity string "Org.Name".
func (s *SigningIdentity) ID() string { return s.id }

// Org returns the identity's organization.
func (s *SigningIdentity) Org() string { return s.Cert.Org }

// Serialized returns the certificate bytes used as a creator field. They
// are marshaled once and shared by every caller, so they are read-only;
// their capacity ends with them, so an append copies.
func (s *SigningIdentity) Serialized() []byte { return s.serialized }

// Sign appends a signature over msg by the identity's private key to
// dst, as fabcrypto.KeyPair.Sign does.
func (s *SigningIdentity) Sign(dst, msg []byte) ([]byte, error) {
	sig, err := s.Key.Sign(dst, msg)
	if err != nil {
		return nil, fmt.Errorf("msp sign as %s: %w", s.ID(), err)
	}
	return sig, nil
}

// MSP validates identities and signatures against the set of org CAs it
// trusts. It caches deserialized certificates because the same creator
// bytes arrive with every proposal from a client.
type MSP struct {
	cas map[string]*ca.CA // org -> CA, fixed at New

	cacheMu sync.RWMutex
	cache   map[string]*ca.Certificate // cert bytes -> parsed+validated
}

// New creates an MSP trusting the given org CAs.
func New(cas ...*ca.CA) *MSP {
	m := &MSP{
		cas:   make(map[string]*ca.CA, len(cas)),
		cache: make(map[string]*ca.Certificate),
	}
	for _, c := range cas {
		m.cas[c.Org()] = c
	}
	return m
}

// Orgs returns the number of organizations the MSP trusts.
func (m *MSP) Orgs() int { return len(m.cas) }

// ValidateIdentity parses serialized certificate bytes, checks them
// against the issuing org's CA, and returns the certificate.
func (m *MSP) ValidateIdentity(serialized []byte) (*ca.Certificate, error) {
	m.cacheMu.RLock()
	cached, ok := m.cache[string(serialized)] // a lookup copies no key
	m.cacheMu.RUnlock()
	if ok {
		return cached, nil
	}

	cert, err := ca.Unmarshal(serialized)
	if err != nil {
		return nil, fmt.Errorf("msp: %w", err)
	}
	issuer, ok := m.cas[cert.Org]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownOrg, cert.Org)
	}
	if err := issuer.Validate(cert, time.Now()); err != nil {
		return nil, fmt.Errorf("msp: validate %s: %w", cert.ID(), err)
	}

	m.cacheMu.Lock()
	m.cache[string(serialized)] = cert
	m.cacheMu.Unlock()
	return cert, nil
}

// VerifySignature validates the identity and checks sig over msg with
// the certificate's public key.
func (m *MSP) VerifySignature(serialized, msg, sig []byte) (*ca.Certificate, error) {
	cert, err := m.ValidateIdentity(serialized)
	if err != nil {
		return nil, err
	}
	if err := fabcrypto.Verify(cert.Scheme, cert.PubKey, msg, sig); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadSig, cert.ID(), err)
	}
	return cert, nil
}

// VerifyByID checks sig over msg for a known enrolled identity string
// ("Org.Name"), resolving the public key through the org's CA records.
// Used by VSCC, which receives endorser IDs rather than full certs.
func (m *MSP) VerifyByID(id string, msg, sig []byte) error {
	org, name, _ := strings.Cut(id, ".")
	issuer, ok := m.cas[org]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownOrg, org)
	}
	cert := issuer.Lookup(name)
	if cert == nil {
		return fmt.Errorf("msp: %s is not enrolled", id)
	}
	if err := fabcrypto.Verify(cert.Scheme, cert.PubKey, msg, sig); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadSig, id, err)
	}
	return nil
}
