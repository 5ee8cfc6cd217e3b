// Package fabcrypto provides the signing primitives used throughout the
// reproduction (the role BCCSP plays in Hyperledger Fabric).
//
// Two schemes are provided:
//
//   - ECDSA P-256 ("ecdsa"), the algorithm Fabric actually uses. Used by
//     default in examples and correctness tests.
//   - A keyed-hash scheme ("hmac") whose verification requires the same
//     secret that produced the signature. It is NOT a real signature
//     scheme (it is symmetric) but costs ~100x less CPU, which matters
//     when benchmark sweeps push tens of thousands of transactions per
//     wall-clock second. Performance experiments inject CPU cost through
//     the calibrated cost model instead of real crypto, so the scheme
//     only needs to preserve the protocol's verification code paths.
//
// NewKeyPair makes each identity's key. An HMAC key is the SHA-256 of
// the identity it belongs to, so two builds of one network hold the same
// keys and write the same bytes. That weakens nothing the scheme had:
// its verification key is its secret, and every certificate already
// publishes it. ECDSA keys stay random, so runs that verify real
// signatures differ in every key, certificate and signature.
package fabcrypto

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math/big"
	"sync"
)

// Scheme names.
const (
	SchemeECDSA = "ecdsa"
	SchemeHMAC  = "hmac"
)

// Errors returned by the package.
var (
	ErrUnknownScheme = errors.New("fabcrypto: unknown scheme")
	ErrBadKey        = errors.New("fabcrypto: malformed key")
	ErrBadSignature  = errors.New("fabcrypto: malformed signature")
)

// KeyPair can sign messages and expose a serialized public key that
// Verify accepts.
type KeyPair interface {
	// Scheme names the signature scheme ("ecdsa" or "hmac").
	Scheme() string
	// Sign appends a signature over msg to dst and returns the extended
	// slice, as append does: it allocates only when dst lacks the room,
	// so a caller that passes a buffer with the room keeps the signature
	// in it, and one that passes nil gets a fresh slice. An HMAC
	// signature is sha256.Size bytes, an ECDSA one 64.
	Sign(dst, msg []byte) ([]byte, error)
	// Public returns the serialized public key.
	Public() []byte
}

// NewKeyPair returns identity's key pair for the named scheme: a fresh
// random one under ECDSA, and one derived from identity under HMAC.
func NewKeyPair(scheme, identity string) (KeyPair, error) {
	switch scheme {
	case SchemeECDSA:
		return newECDSA()
	case SchemeHMAC:
		return newHMAC(identity), nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownScheme, scheme)
	}
}

// Verify checks sig over msg against the serialized public key for the
// named scheme. It returns nil when the signature is valid.
func Verify(scheme string, pub, msg, sig []byte) error {
	switch scheme {
	case SchemeECDSA:
		return verifyECDSA(pub, msg, sig)
	case SchemeHMAC:
		return verifyHMAC(pub, msg, sig)
	default:
		return fmt.Errorf("%w: %q", ErrUnknownScheme, scheme)
	}
}

// Digest returns the SHA-256 digest of the concatenation of its inputs.
// It only slices the array digest returns, which keeps it small enough
// to inline, so a digest stays on the caller's stack when nothing the
// compiler cannot see through holds it: a copy into an array, a
// comparison or a concrete call that keeps no reference. Passed to an
// interface method, KeyPair.Sign among them, it escapes and is
// allocated; copy it into a buffer the caller already owns first.
func Digest(parts ...[]byte) []byte {
	sum := digest(parts)
	return sum[:]
}

func digest(parts [][]byte) [sha256.Size]byte {
	if len(parts) == 1 {
		return sha256.Sum256(parts[0])
	}
	// The endorser's ESCC input is two 32-byte digests, so the parts
	// usually fit on the stack; append moves longer inputs to the heap.
	var stack [128]byte
	buf := stack[:0]
	for _, p := range parts {
		buf = append(buf, p...)
	}
	return sha256.Sum256(buf)
}

// --- ECDSA P-256 ---

// ECDSAKeyPair signs with ECDSA over P-256, as Fabric does.
type ECDSAKeyPair struct {
	priv *ecdsa.PrivateKey
}

var _ KeyPair = (*ECDSAKeyPair)(nil)

// newECDSA creates a fresh P-256 key pair.
func newECDSA() (*ECDSAKeyPair, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate ecdsa key: %w", err)
	}
	return &ECDSAKeyPair{priv: priv}, nil
}

// Scheme returns "ecdsa".
func (k *ECDSAKeyPair) Scheme() string { return SchemeECDSA }

// Sign appends a signature over the SHA-256 digest of msg to dst. The
// signature is r||s with each component left-padded to 32 bytes.
func (k *ECDSAKeyPair) Sign(dst, msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	r, s, err := ecdsa.Sign(rand.Reader, k.priv, digest[:])
	if err != nil {
		return nil, fmt.Errorf("ecdsa sign: %w", err)
	}
	var sig [64]byte
	r.FillBytes(sig[:32])
	s.FillBytes(sig[32:])
	return append(dst, sig[:]...), nil
}

// Public returns the uncompressed point encoding (0x04 || X || Y).
func (k *ECDSAKeyPair) Public() []byte {
	pub := k.priv.PublicKey
	out := make([]byte, 65)
	out[0] = 4
	pub.X.FillBytes(out[1:33])
	pub.Y.FillBytes(out[33:])
	return out
}

func verifyECDSA(pub, msg, sig []byte) error {
	if len(pub) != 65 || pub[0] != 4 {
		return ErrBadKey
	}
	if len(sig) != 64 {
		return ErrBadSignature
	}
	x := new(big.Int).SetBytes(pub[1:33])
	y := new(big.Int).SetBytes(pub[33:])
	pk := ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}
	digest := sha256.Sum256(msg)
	r := new(big.Int).SetBytes(sig[:32])
	s := new(big.Int).SetBytes(sig[32:])
	if !ecdsa.Verify(&pk, digest[:], r, s) {
		return errors.New("fabcrypto: ecdsa verification failed")
	}
	return nil
}

// --- HMAC (simulation-grade) ---

// HMACKeyPair is the fast symmetric scheme: the "public key" is the
// HMAC secret itself. Suitable only for performance simulation.
type HMACKeyPair struct {
	key []byte
	// macs holds HMAC states keyed with key, so a signature resets one
	// instead of deriving the inner and outer pads again.
	macs sync.Pool
}

var _ KeyPair = (*HMACKeyPair)(nil)

// newHMAC derives identity's 32-byte HMAC key: its SHA-256.
func newHMAC(identity string) *HMACKeyPair {
	key := sha256.Sum256([]byte(identity))
	k := &HMACKeyPair{key: key[:]}
	k.macs.New = func() any { return hmac.New(sha256.New, k.key) }
	return k
}

// Scheme returns "hmac".
func (k *HMACKeyPair) Scheme() string { return SchemeHMAC }

// Sign appends HMAC-SHA256(key, msg) to dst. It is safe for concurrent
// use.
func (k *HMACKeyPair) Sign(dst, msg []byte) ([]byte, error) {
	m := k.macs.Get().(hash.Hash)
	m.Reset()
	m.Write(msg)
	sig := m.Sum(dst)
	k.macs.Put(m)
	return sig, nil
}

// Public returns the HMAC key (see type comment).
func (k *HMACKeyPair) Public() []byte {
	out := make([]byte, len(k.key))
	copy(out, k.key)
	return out
}

func verifyHMAC(pub, msg, sig []byte) error {
	if len(pub) == 0 {
		return ErrBadKey
	}
	m := hmac.New(sha256.New, pub)
	m.Write(msg)
	if !hmac.Equal(m.Sum(nil), sig) {
		return errors.New("fabcrypto: hmac verification failed")
	}
	return nil
}
