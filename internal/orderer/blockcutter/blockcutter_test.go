package blockcutter

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"fabricsim/internal/types"
)

func TestSizeCut(t *testing.T) {
	c := New(Config{BatchSize: 3, BatchTimeout: time.Second})
	now := time.Now()
	for i := 0; i < 2; i++ {
		batches, pending := c.Ordered([]byte{byte(i)}, now)
		if len(batches) != 0 || !pending {
			t.Fatalf("premature cut at %d", i)
		}
	}
	batches, pending := c.Ordered([]byte{2}, now)
	if len(batches) != 1 || pending {
		t.Fatalf("batches=%d pending=%v", len(batches), pending)
	}
	if len(batches[0]) != 3 {
		t.Errorf("batch size = %d", len(batches[0]))
	}
	if c.Pending() != 0 {
		t.Errorf("pending after cut = %d", c.Pending())
	}
}

func TestTimeoutCut(t *testing.T) {
	c := New(Config{BatchSize: 100, BatchTimeout: time.Second})
	now := time.Now()
	_, pending := c.Ordered([]byte("tx"), now)
	if !pending {
		t.Fatal("no pending after first tx")
	}
	batch := c.Cut()
	if len(batch) != 1 {
		t.Errorf("Cut returned %d txs", len(batch))
	}
	if c.Cut() != nil {
		t.Error("second Cut returned non-nil")
	}
	if c.Pending() != 0 {
		t.Errorf("pending after Cut = %d", c.Pending())
	}
}

func TestDefaults(t *testing.T) {
	c := New(Config{})
	if c.cfg.BatchSize != 100 || c.cfg.BatchTimeout != time.Second {
		t.Errorf("defaults = %+v", c.cfg)
	}
	d := DefaultConfig()
	if d.BatchSize != 100 || d.BatchTimeout != time.Second {
		t.Errorf("DefaultConfig = %+v", d)
	}
}

// Property: every cut batch respects BatchSize, preserves order, and no
// transaction is lost or duplicated.
func TestCutterProperty(t *testing.T) {
	f := func(sizes []uint8, batchSize uint8) bool {
		bs := int(batchSize%20) + 1
		c := New(Config{BatchSize: bs, BatchTimeout: time.Second})
		now := time.Now()
		var out [][]byte
		var in [][]byte
		for i := range sizes {
			tx := []byte{byte(i)}
			in = append(in, tx)
			batches, _ := c.Ordered(tx, now)
			for _, b := range batches {
				if len(b) > bs {
					return false
				}
				out = append(out, b...)
			}
		}
		if final := c.Cut(); final != nil {
			if len(final) > bs {
				return false
			}
			out = append(out, final...)
		}
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if &in[i][0] != &out[i][0] {
				return false // order or identity lost
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// env marshals a minimal endorsed envelope reading and writing the given
// keys in namespace "cc".
func env(id string, reads, writes []string) []byte {
	return envIn("cc", id, reads, writes)
}

// envIn is env in namespace ns.
func envIn(ns, id string, reads, writes []string) []byte {
	tx := &types.Transaction{
		Proposal: types.Proposal{TxID: types.TxID(id), ChaincodeID: ns},
	}
	for _, r := range reads {
		tx.Results.Reads = append(tx.Results.Reads, types.KVRead{Key: r})
	}
	for _, w := range writes {
		tx.Results.Writes = append(tx.Results.Writes, types.KVWrite{Key: w, Value: []byte("v")})
	}
	return tx.Marshal()
}

func TestReorderSavesDoomedReader(t *testing.T) {
	// FIFO order writes k then reads k: the reader would MVCC-abort.
	// The pass must move the reader first; nothing is early-aborted.
	batch := [][]byte{
		env("w", nil, []string{"k"}),
		env("r", []string{"k"}, nil),
	}
	out, aborted := Reorder(batch)
	if aborted != 0 {
		t.Fatalf("aborted = %d, want 0", aborted)
	}
	if len(out) != 2 || !bytes.Equal(out[0], batch[1]) || !bytes.Equal(out[1], batch[0]) {
		t.Fatal("reader must be moved before the conflicting writer")
	}
}

func TestReorderAbortsCycleAtTail(t *testing.T) {
	// Two read-modify-writes of one key form a 2-cycle: exactly one is
	// early-aborted and it sits at the tail of the batch.
	batch := [][]byte{
		env("a", []string{"k"}, []string{"k"}),
		env("b", []string{"k"}, []string{"k"}),
		env("free", nil, []string{"z"}),
	}
	out, aborted := Reorder(batch)
	if aborted != 1 {
		t.Fatalf("aborted = %d, want 1", aborted)
	}
	if len(out) != 3 {
		t.Fatalf("len(out) = %d", len(out))
	}
	info, err := types.PeekEnvelopeInfo(out[2])
	if err != nil {
		t.Fatal(err)
	}
	if info.TxID != "b" {
		t.Errorf("tail tx = %s, want the later RMW b", info.TxID)
	}
}

func TestReorderFIFOWhenConflictFree(t *testing.T) {
	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = env(fmt.Sprintf("tx%d", i), nil, []string{fmt.Sprintf("k%d", i)})
	}
	out, aborted := Reorder(batch)
	if aborted != 0 {
		t.Fatalf("aborted = %d, want 0", aborted)
	}
	for i := range batch {
		if !bytes.Equal(out[i], batch[i]) {
			t.Fatalf("conflict-free batch must keep FIFO order, diverged at %d", i)
		}
	}
}

func TestReorderDeterministic(t *testing.T) {
	batch := [][]byte{
		env("a", []string{"x"}, []string{"y"}),
		env("b", []string{"y"}, []string{"x"}),
		env("c", []string{"x"}, nil),
		env("d", []string{"y", "z"}, []string{"z"}),
		env("e", []string{"z"}, []string{"z"}),
	}
	out1, aborted1 := Reorder(batch)
	for i := 0; i < 10; i++ {
		out2, aborted2 := Reorder(batch)
		if aborted2 != aborted1 || len(out2) != len(out1) {
			t.Fatalf("run %d: shape diverged", i)
		}
		for j := range out1 {
			if !bytes.Equal(out1[j], out2[j]) {
				t.Fatalf("run %d: output diverged at %d", i, j)
			}
		}
	}
}

func TestReorderOpaqueEnvelopesPassThrough(t *testing.T) {
	// Unpeekable payloads are never aborted and keep their slot order
	// relative to the schedule; a fully opaque batch is untouched.
	opaque := [][]byte{{0xff}, {0xfe, 0x01}}
	out, aborted := Reorder(opaque)
	if aborted != 0 || len(out) != 2 || !bytes.Equal(out[0], opaque[0]) {
		t.Fatal("fully opaque batch must pass through unchanged")
	}

	mixed := [][]byte{
		env("a", []string{"k"}, []string{"k"}),
		{0xff},
		env("b", []string{"k"}, []string{"k"}),
	}
	out, aborted = Reorder(mixed)
	if aborted != 1 {
		t.Fatalf("aborted = %d, want 1 (cycle victim only)", aborted)
	}
	found := false
	for _, envl := range out[:len(out)-aborted] {
		if bytes.Equal(envl, mixed[1]) {
			found = true
		}
	}
	if !found {
		t.Fatal("opaque envelope must survive among the ordered prefix")
	}
}

func TestReorderTinyBatch(t *testing.T) {
	single := [][]byte{env("only", []string{"k"}, []string{"k"})}
	out, aborted := Reorder(single)
	if aborted != 0 || len(out) != 1 {
		t.Fatal("single-tx batch must pass through")
	}
	if out, aborted := Reorder(nil); aborted != 0 || len(out) != 0 {
		t.Fatal("empty batch must pass through")
	}
}

// TestReorderMatchesReference holds Reorder to the copying peek and the
// concatenated keys it replaced, on 3 000 seeded batches of 1-120
// envelopes over one to three namespaces without a slash: contended
// read-modify-writes, reads and blind writes, with unpeekable envelopes
// mixed in (garbage, and envelopes cut short, some of them still
// peekable). Every OSN must keep cutting byte-identical blocks.
func TestReorderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for b := 0; b < 3000; b++ {
		batch := genBatch(rng, 120)
		want, wantAborted := refReorder(batch)
		got, aborted := Reorder(batch)
		if aborted != wantAborted || len(got) != len(want) {
			t.Fatalf("batch %d: %d envelopes, %d aborted; reference %d, %d", b, len(got), aborted, len(want), wantAborted)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("batch %d: envelope %d differs from the reference", b, i)
			}
		}
	}
}

// TestReorderMatchesPerEnvelopeReorder holds Reorder, which peeks a
// batch with one decoder, to the per-envelope pass it replaced on 10 000
// seeded batches of 1-64 envelopes, valid, cut short and foreign mixed:
// the same envelopes in the same order, byte for byte, the same abort
// count, and a batch peek equal to the per-envelope peek.
func TestReorderMatchesPerEnvelopeReorder(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for b := 0; b < 10000; b++ {
		batch := genBatch(rng, 64)
		want, wantAborted := perEnvelopeReorder(batch)
		got, aborted := Reorder(batch)
		if aborted != wantAborted || len(got) != len(want) {
			t.Fatalf("batch %d: %d envelopes, %d aborted; reference %d, %d", b, len(got), aborted, len(want), wantAborted)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("batch %d: envelope %d differs from the reference", b, i)
			}
		}
		ok := make([]bool, len(batch))
		infos := types.PeekEnvelopeInfos(batch, ok)
		for i, env := range batch {
			info, err := types.PeekEnvelopeInfo(env)
			if ok[i] != (err == nil) || (err == nil && !reflect.DeepEqual(&infos[i], info)) {
				t.Fatalf("batch %d envelope %d: batch peek %+v (ok %v), PeekEnvelopeInfo %+v, %v", b, i, infos[i], ok[i], info, err)
			}
		}
	}
}

var benchSink int

// BenchmarkReorder times the whole pass an OSN runs on a cut batch —
// peek, key views, schedule — on the benchmark's contended
// shape: 100 SmallBank-like envelopes, three in four a two-account
// read-modify-write and the rest a balance read, accounts Zipf(1.2)
// over 10 000.
func BenchmarkReorder(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	z := rand.NewZipf(rng, 1.2, 1, 9999)
	batch := make([][]byte, 100)
	for i := range batch {
		from, to := fmt.Sprintf("acc%d", z.Uint64()), fmt.Sprintf("acc%d", z.Uint64())
		if i%4 == 3 {
			batch[i] = env(fmt.Sprintf("tx%d", i), []string{from}, nil)
		} else {
			batch[i] = env(fmt.Sprintf("tx%d", i), []string{from, to}, []string{from, to})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, aborted := Reorder(batch)
		benchSink += len(out) + aborted
	}
}
