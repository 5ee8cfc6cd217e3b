package fabcrypto

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

func TestSchemes(t *testing.T) {
	for _, scheme := range []string{SchemeECDSA, SchemeHMAC} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			kp, err := NewKeyPair(scheme, "Org1.peer0")
			if err != nil {
				t.Fatal(err)
			}
			if kp.Scheme() != scheme {
				t.Errorf("Scheme() = %s", kp.Scheme())
			}
			msg := []byte("the quick brown fox")
			sig, err := kp.Sign(nil, msg)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(scheme, kp.Public(), msg, sig); err != nil {
				t.Errorf("valid signature rejected: %v", err)
			}
			if err := Verify(scheme, kp.Public(), []byte("tampered"), sig); err == nil {
				t.Error("signature over different message accepted")
			}
			sig[0] ^= 0xFF
			if err := Verify(scheme, kp.Public(), msg, sig); err == nil {
				t.Error("corrupted signature accepted")
			}
		})
	}
}

func TestCrossKeyRejection(t *testing.T) {
	for _, scheme := range []string{SchemeECDSA, SchemeHMAC} {
		k1, _ := NewKeyPair(scheme, "Org1.peer0")
		k2, _ := NewKeyPair(scheme, "Org2.peer0")
		msg := []byte("msg")
		sig, _ := k1.Sign(nil, msg)
		if err := Verify(scheme, k2.Public(), msg, sig); err == nil {
			t.Errorf("%s: signature verified under wrong key", scheme)
		}
	}
}

// TestKeysDeriveFromIdentity pins NewKeyPair's two rules: an HMAC key
// is the SHA-256 of its identity, so one identity always derives the
// same key and two identities two keys, while an ECDSA key is random on
// every call.
func TestKeysDeriveFromIdentity(t *testing.T) {
	pub := func(scheme, identity string) []byte {
		t.Helper()
		kp, err := NewKeyPair(scheme, identity)
		if err != nil {
			t.Fatal(err)
		}
		return kp.Public()
	}
	a := pub(SchemeHMAC, "Org1.peer0")
	if want := sha256.Sum256([]byte("Org1.peer0")); !bytes.Equal(a, want[:]) {
		t.Errorf("hmac key %x, want SHA-256 of the identity %x", a, want)
	}
	if b := pub(SchemeHMAC, "Org1.peer0"); !bytes.Equal(a, b) {
		t.Error("one identity derived two hmac keys")
	}
	if b := pub(SchemeHMAC, "Org1.peer1"); bytes.Equal(a, b) {
		t.Error("two identities derived one hmac key")
	}
	if a, b := pub(SchemeECDSA, "Org1.peer0"), pub(SchemeECDSA, "Org1.peer0"); bytes.Equal(a, b) {
		t.Error("ecdsa keys repeat; they must stay random")
	}
}

func TestUnknownScheme(t *testing.T) {
	if _, err := NewKeyPair("rsa", "Org1.peer0"); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := Verify("rsa", nil, nil, nil); err == nil {
		t.Error("unknown scheme verify accepted")
	}
}

func TestMalformedInputs(t *testing.T) {
	kp, _ := newECDSA()
	msg := []byte("m")
	sig, _ := kp.Sign(nil, msg)
	if err := verifyECDSA([]byte{1, 2, 3}, msg, sig); err == nil {
		t.Error("short public key accepted")
	}
	if err := verifyECDSA(kp.Public(), msg, []byte{1, 2}); err == nil {
		t.Error("short signature accepted")
	}
	if err := verifyHMAC(nil, msg, sig); err == nil {
		t.Error("empty hmac key accepted")
	}
}

func TestDigest(t *testing.T) {
	a := Digest([]byte("ab"), []byte("c"))
	b := Digest([]byte("abc"))
	if !bytes.Equal(a, b) {
		t.Error("Digest is not plain concatenation hashing")
	}
	if len(a) != 32 {
		t.Errorf("digest length %d", len(a))
	}
}

func TestECDSAPublicKeyFormat(t *testing.T) {
	kp, _ := newECDSA()
	pub := kp.Public()
	if len(pub) != 65 || pub[0] != 4 {
		t.Errorf("public key format: len=%d first=%x", len(pub), pub[0])
	}
}

func TestECDSASignatureLength(t *testing.T) {
	kp, _ := newECDSA()
	for i := 0; i < 8; i++ {
		sig, err := kp.Sign(nil, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if len(sig) != 64 {
			t.Fatalf("signature length %d, want 64", len(sig))
		}
	}
}

// TestSignAppends holds both schemes to Sign's append contract: the
// signature follows what dst holds, lands in dst's own array when it has
// the room, and verifies on its own.
func TestSignAppends(t *testing.T) {
	for _, scheme := range []string{SchemeECDSA, SchemeHMAC} {
		kp, err := NewKeyPair(scheme, "Org1.peer0")
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("msg")
		buf := make([]byte, 3, 3+64)
		copy(buf, "pre")
		out, err := kp.Sign(buf, msg)
		if err != nil {
			t.Fatal(err)
		}
		if string(out[:3]) != "pre" {
			t.Errorf("%s: Sign overwrote dst's bytes: %q", scheme, out[:3])
		}
		if &out[0] != &buf[0] {
			t.Errorf("%s: Sign moved a dst with room for the signature", scheme)
		}
		if err := Verify(scheme, kp.Public(), msg, out[3:]); err != nil {
			t.Errorf("%s: appended signature rejected: %v", scheme, err)
		}
	}
}
