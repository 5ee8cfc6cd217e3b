package fabcrypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"math/rand"
	"sync"
	"testing"
)

// hmacReference is Sign as it was before HMAC states were pooled: a
// fresh keyed HMAC per signature.
func hmacReference(key, msg []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(msg)
	return m.Sum(nil)
}

// randomMessages returns n messages of 0-299 seeded random bytes, so
// some fit in one SHA-256 block and some span several.
func randomMessages(n int) [][]byte {
	r := rand.New(rand.NewSource(26))
	msgs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = make([]byte, r.Intn(300))
		r.Read(msgs[i])
	}
	return msgs
}

// TestHMACSignMatchesHMACNew requires the pooled Sign to be byte-identical
// to a fresh hmac.New on 1 000 random messages, from one goroutine and
// then from eight sharing the key pair (run under -race, this is what
// pins the pool's Reset discipline).
func TestHMACSignMatchesHMACNew(t *testing.T) {
	kp := newHMAC("Org1.peer0")
	msgs := randomMessages(1000)
	check := func(msg []byte) {
		sig, err := kp.Sign(nil, msg)
		if err != nil {
			t.Error(err)
			return
		}
		if want := hmacReference(kp.key, msg); !bytes.Equal(sig, want) {
			t.Errorf("Sign(%x) = %x, want %x", msg, sig, want)
		}
	}
	for _, msg := range msgs {
		check(msg)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(msgs); i += 8 {
				check(msgs[i])
			}
		}(g)
	}
	wg.Wait()
}

// TestDigestMatchesStreamingHash holds Digest to one sha256 stream over
// its parts on 10 000 inputs of zero to four parts, empty and nil ones
// included and many over 128 bytes in total, from one goroutine and then
// from eight at once.
func TestDigestMatchesStreamingHash(t *testing.T) {
	msgs := randomMessages(400)
	r := rand.New(rand.NewSource(28))
	inputs := make([][][]byte, 10000)
	for i := range inputs {
		parts := make([][]byte, r.Intn(5))
		for j := range parts {
			parts[j] = msgs[r.Intn(len(msgs))]
		}
		if len(parts) > 0 && r.Intn(7) == 0 {
			parts[r.Intn(len(parts))] = nil
		}
		inputs[i] = parts
	}
	check := func(parts [][]byte) {
		h := sha256.New()
		for _, p := range parts {
			h.Write(p)
		}
		if got, want := Digest(parts...), h.Sum(nil); !bytes.Equal(got, want) {
			t.Errorf("Digest of %d parts = %x, want %x", len(parts), got, want)
		}
	}
	for _, parts := range inputs {
		check(parts)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(inputs); i += 8 {
				check(inputs[i])
			}
		}(g)
	}
	wg.Wait()
}

// TestSignAndDigestAllocs pins the endorse path's per-signature cost.
// Sign into nil, and a Digest the caller keeps, allocate only the
// returned slice. Sign into a dst with room allocates nothing: it took 1,
// its sum buffer, when Sign had no dst. A digest copied into an array
// stays on the stack.
func TestSignAndDigestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	kp := newHMAC("Org1.peer0")
	msg, a, b := make([]byte, 64), make([]byte, 32), make([]byte, 32)
	var sig, sum [sha256.Size]byte
	var kept []byte
	for _, c := range []struct {
		name string
		fn   func()
		want float64
	}{
		{"HMACKeyPair.Sign into nil", func() { _, _ = kp.Sign(nil, msg) }, 1},
		{"HMACKeyPair.Sign into dst", func() { _, _ = kp.Sign(sig[:0], msg) }, 0},
		{"Digest of one part, kept", func() { kept = Digest(msg) }, 1},
		{"Digest of two parts, kept", func() { kept = Digest(a, b) }, 1},
		{"Digest of two parts, copied", func() { copy(sum[:], Digest(a, b)) }, 0},
	} {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs > c.want {
			t.Errorf("%s: %.1f allocations, want <= %.0f", c.name, allocs, c.want)
		}
	}
	_ = kept
}

func BenchmarkHMACSign(b *testing.B) {
	kp := newHMAC("Org1.peer0")
	msg := make([]byte, 32)
	var sig [sha256.Size]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := kp.Sign(sig[:0], msg); err != nil {
			b.Fatal(err)
		}
	}
}
