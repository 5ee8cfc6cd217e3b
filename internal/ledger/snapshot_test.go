package ledger

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"fabricsim/internal/types"
)

// parentFormat encodes s the way checkpoints and snapshots were encoded
// while the index also kept a per-key write history: the index field
// carried, after the transaction records, a count of history keys and
// each key's versions. The section written here holds one key with one
// version.
func parentFormat(s *Snapshot) []byte {
	cur, idx := s.Marshal(), s.Index.Marshal()
	head := cur[:len(cur)-len(idx)-len(binary.AppendUvarint(nil, uint64(len(idx))))]
	history := types.NewEncoder(16)
	history.Uvarint(1)
	history.String("cc/k0")
	history.Uvarint(1)
	history.Uvarint(1)
	history.Uvarint(0)
	enc := types.NewEncoder(len(cur) + 16)
	enc.Bytes2(append(append([]byte(nil), idx...), history.Bytes()...))
	return append(append([]byte(nil), head...), enc.Bytes()...)
}

// TestFileReopenIgnoresParentFormatCheckpoint pins what happens to a
// checkpoint written before the index lost its write history: decoding
// refuses it with ErrBadSnapshot, because the index's trailing history
// section is left unread, and a ledger whose only checkpoint it is
// reopens by replaying its blocks from genesis to the same tip and state.
func TestFileReopenIgnoresParentFormatCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Backend: "file", Dir: dir, CheckpointInterval: 4}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, l, 0, 10)
	wantHash := l.LastHash()
	wantState, err := l.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	names, err := filepath.Glob(filepath.Join(dir, checkpointDirName, "*"))
	if err != nil || len(names) != 2 {
		t.Fatalf("checkpoints = %v, %v; want two", names, err)
	}
	latest := names[1]
	buf, err := os.ReadFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := UnmarshalSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	old := parentFormat(snap)
	if _, err := UnmarshalSnapshot(old); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("parent-format checkpoint decoded with err = %v, want ErrBadSnapshot for trailing bytes", err)
	}
	if err := os.Remove(names[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(latest, old, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Base() != 0 || r.Height() != 11 {
		t.Fatalf("reopened base=%d height=%d, want 0 and 11", r.Base(), r.Height())
	}
	if !bytes.Equal(r.LastHash(), wantHash) {
		t.Error("reopened tip hash differs")
	}
	gotState, err := r.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotState, wantState) {
		t.Error("reopened state hash differs")
	}
	if !r.HasTx("tx0000") || !r.HasTx("tx0009") {
		t.Error("genesis replay did not rebuild the tx index")
	}
}

// FuzzUnmarshalSnapshot feeds arbitrary bytes to the snapshot and index
// decoders, which read checkpoint files and snapshots sent by other
// peers. Either may reject an input, but neither may panic or allocate
// 1 MiB for it. The seeds in testdata/fuzz are the snapshots of small
// committed ledgers on each backend and one snapshot in the parent
// format, whose index still carries a history section.
func FuzzUnmarshalSnapshot(f *testing.F) {
	// A snapshot of no state and no transactions ends in its entries and
	// index fields, each a zero count: 1, 0, 1, 0. Swap in an entry count
	// the input cannot hold, and give the index decoder the same count.
	empty := (&Snapshot{Height: 1, Index: &IndexSnapshot{}}).Marshal()
	for _, count := range []uint64{1 << 20, 1 << 63} {
		entries := types.NewEncoder(16)
		entries.Bytes2(binary.AppendUvarint(nil, count))
		f.Add(append(append(empty[:len(empty)-4:len(empty)-4], entries.Bytes()...), 1, 0))
		f.Add(binary.AppendUvarint(nil, count))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = UnmarshalSnapshot(b)
		_, _ = UnmarshalIndexSnapshot(types.NewDecoder(b))
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(b), n)
		}
	})
}
