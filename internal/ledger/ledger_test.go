package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fabricsim/internal/types"
)

// withBackends runs fn once per registered storage backend; open builds
// a fresh ledger for that backend (file backends in a temp dir).
func withBackends(t *testing.T, fn func(t *testing.T, open func(t *testing.T) *Ledger)) {
	for _, backend := range Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			open := func(t *testing.T) *Ledger {
				l, err := Open(Options{Backend: backend, Dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { l.Close() })
				return l
			}
			fn(t, open)
		})
	}
}

// openMem opens an in-memory ledger that the test closes.
func openMem(t *testing.T) *Ledger {
	t.Helper()
	l, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// mkTx builds a write-only transaction for the test chaincode namespace.
func mkTx(id string, writes ...string) *types.Transaction {
	tx := &types.Transaction{
		Proposal: types.Proposal{TxID: types.TxID(id), ChaincodeID: "cc", Fn: "write"},
	}
	for _, k := range writes {
		tx.Results.Writes = append(tx.Results.Writes, types.KVWrite{Key: k, Value: []byte("v-" + id)})
	}
	return tx
}

// mkBlock assembles a block of transactions chained onto l.
func mkBlock(l *Ledger, txs []*types.Transaction, flags []types.ValidationCode) *types.Block {
	data := make([][]byte, len(txs))
	for i, tx := range txs {
		data[i] = tx.Marshal()
	}
	b := types.NewBlock(l.Height(), l.LastHash(), data)
	b.Metadata.ValidationFlags = flags
	return b
}

func TestCommitAndQuery(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) *Ledger) {
		l := open(t)
		txs := []*types.Transaction{mkTx("t1", "a"), mkTx("t2", "b")}
		b := mkBlock(l, txs, []types.ValidationCode{types.ValidationValid, types.ValidationValid})
		if err := l.Commit(b, txs); err != nil {
			t.Fatal(err)
		}
		if l.Height() != 2 {
			t.Errorf("Height = %d", l.Height())
		}
		info, err := l.GetTx("t1")
		if err != nil || info.BlockNum != 1 || info.TxNum != 0 || !info.Code.Valid() {
			t.Errorf("GetTx = %+v err=%v", info, err)
		}
		vv, ok, _ := l.State().Get("cc", "a")
		if !ok || string(vv.Value) != "v-t1" {
			t.Errorf("state a = %+v ok=%v", vv, ok)
		}
		if !l.HasTx("t2") || l.HasTx("ghost") {
			t.Error("HasTx wrong")
		}
	})
}

func TestInvalidTxRecordedNotApplied(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) *Ledger) {
		l := open(t)
		txs := []*types.Transaction{mkTx("ok", "a"), mkTx("bad", "b")}
		b := mkBlock(l, txs, []types.ValidationCode{types.ValidationValid, types.ValidationMVCCConflict})
		if err := l.Commit(b, txs); err != nil {
			t.Fatal(err)
		}
		// Both are on the chain...
		if !l.HasTx("bad") {
			t.Error("invalid tx not recorded on chain")
		}
		info, _ := l.GetTx("bad")
		if info.Code != types.ValidationMVCCConflict {
			t.Errorf("code = %s", info.Code)
		}
		// ...but only the valid one touched the world state.
		if _, ok, _ := l.State().Get("cc", "b"); ok {
			t.Error("invalid tx applied to state")
		}
		stats := l.Stats()
		if stats.ValidTxs != 1 || stats.InvalidTxs != 1 {
			t.Errorf("stats = %+v", stats)
		}
	})
}

func TestCommitRejectsBadChain(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) *Ledger) {
		l := open(t)
		txs := []*types.Transaction{mkTx("t1", "a")}

		wrongNum := mkBlock(l, txs, []types.ValidationCode{types.ValidationValid})
		wrongNum.Header.Number = 5
		if err := l.Commit(wrongNum, txs); !errors.Is(err, ErrBadNumber) {
			t.Errorf("wrong number: %v", err)
		}

		wrongPrev := mkBlock(l, txs, []types.ValidationCode{types.ValidationValid})
		wrongPrev.Header.PrevHash = []byte("bogus")
		if err := l.Commit(wrongPrev, txs); !errors.Is(err, ErrBadPrevHash) {
			t.Errorf("wrong prev hash: %v", err)
		}

		noFlags := mkBlock(l, txs, nil)
		if err := l.Commit(noFlags, txs); !errors.Is(err, ErrNotValidated) {
			t.Errorf("missing flags: %v", err)
		}

		tampered := mkBlock(l, txs, []types.ValidationCode{types.ValidationValid})
		tampered.Data[0] = []byte("tampered")
		if err := l.Commit(tampered, txs); err == nil {
			t.Error("tampered data committed")
		}
	})
}

func TestVerifyChain(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) *Ledger) {
		l := open(t)
		for i := 0; i < 5; i++ {
			txs := []*types.Transaction{mkTx(fmt.Sprintf("t%d", i), fmt.Sprintf("k%d", i))}
			b := mkBlock(l, txs, []types.ValidationCode{types.ValidationValid})
			if err := l.Commit(b, txs); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.VerifyChain(); err != nil {
			t.Errorf("VerifyChain: %v", err)
		}
	})
}

func TestGetBlockBounds(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) *Ledger) {
		l := open(t)
		if _, err := l.GetBlock(0); err != nil {
			t.Errorf("genesis missing: %v", err)
		}
		if _, err := l.GetBlock(99); !errors.Is(err, ErrNotFound) {
			t.Errorf("out-of-range block: %v", err)
		}
		if _, err := l.GetTx("nope"); !errors.Is(err, ErrNotFound) {
			t.Errorf("missing tx: %v", err)
		}
	})
}

func TestVersionAssignmentWithinBlock(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) *Ledger) {
		l := open(t)
		txs := []*types.Transaction{mkTx("t1", "a"), mkTx("t2", "a")}
		b := mkBlock(l, txs, []types.ValidationCode{types.ValidationValid, types.ValidationValid})
		if err := l.Commit(b, txs); err != nil {
			t.Fatal(err)
		}
		// The later tx in the block wins, with its (block, txNum) version.
		vv, _, _ := l.State().Get("cc", "a")
		if string(vv.Value) != "v-t2" || vv.Version != (types.Version{BlockNum: 1, TxNum: 1}) {
			t.Errorf("final state = %+v", vv)
		}
	})
}

// mkStagedBlock assembles a block chained onto the ledger tip including
// staged (applied-but-not-appended) blocks.
func mkStagedBlock(l *Ledger, txs []*types.Transaction, flags []types.ValidationCode) *types.Block {
	data := make([][]byte, len(txs))
	for i, tx := range txs {
		data[i] = tx.Marshal()
	}
	b := types.NewBlock(l.StagedHeight(), l.LastHash(), data)
	b.Metadata.ValidationFlags = flags
	return b
}

func TestApplyStateThenAppendSplitsCommit(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) *Ledger) {
		l := open(t)
		valid := []types.ValidationCode{types.ValidationValid}
		txs1 := []*types.Transaction{mkTx("s1", "a")}
		b1 := mkStagedBlock(l, txs1, valid)
		if err := l.ApplyState(b1, txs1); err != nil {
			t.Fatal(err)
		}
		// State, index, and tip advance at ApplyState; the block store does
		// not until Append.
		if l.Height() != 1 || l.StagedHeight() != 2 {
			t.Errorf("Height=%d StagedHeight=%d, want 1 and 2", l.Height(), l.StagedHeight())
		}
		if !l.HasTx("s1") {
			t.Error("applied tx not indexed before Append")
		}
		if _, ok, _ := l.State().Get("cc", "a"); !ok {
			t.Error("applied write not visible before Append")
		}
		// A second block chains onto the staged tip while b1 awaits append —
		// the overlap the commit pipeline exploits.
		txs2 := []*types.Transaction{mkTx("s2", "b")}
		b2 := mkStagedBlock(l, txs2, valid)
		if err := l.ApplyState(b2, txs2); err != nil {
			t.Fatal(err)
		}
		// Appending out of order is rejected; in order succeeds.
		if err := l.Append(b2); !errors.Is(err, ErrNotStaged) {
			t.Errorf("out-of-order Append = %v, want ErrNotStaged", err)
		}
		if err := l.Append(b1); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(b2); err != nil {
			t.Fatal(err)
		}
		if l.Height() != 3 || l.StagedHeight() != 3 {
			t.Errorf("Height=%d StagedHeight=%d, want 3 and 3", l.Height(), l.StagedHeight())
		}
		if err := l.VerifyChain(); err != nil {
			t.Error(err)
		}
	})
}

func TestApplyStateChecksChainAgainstStagedTip(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) *Ledger) {
		l := open(t)
		valid := []types.ValidationCode{types.ValidationValid}
		txs1 := []*types.Transaction{mkTx("c1", "a")}
		b1 := mkStagedBlock(l, txs1, valid)
		if err := l.ApplyState(b1, txs1); err != nil {
			t.Fatal(err)
		}
		// A block numbered after the staged tip but chained to the wrong
		// hash must be rejected even though b1 is not yet appended.
		txs2 := []*types.Transaction{mkTx("c2", "b")}
		data := [][]byte{txs2[0].Marshal()}
		genesis, err := l.GetBlock(0)
		if err != nil {
			t.Fatal(err)
		}
		wrong := types.NewBlock(2, genesis.Header.Hash(), data) // genesis hash, not b1's
		wrong.Metadata.ValidationFlags = valid
		if err := l.ApplyState(wrong, txs2); !errors.Is(err, ErrBadPrevHash) {
			t.Errorf("ApplyState = %v, want ErrBadPrevHash", err)
		}
		// And a replay of the staged number is stale, not corruption.
		dup := mkStagedBlock(l, txs2, valid)
		dup.Header.Number = 1
		if err := l.ApplyState(dup, txs2); !errors.Is(err, ErrStale) {
			t.Errorf("ApplyState replay = %v, want ErrStale", err)
		}
	})
}

func TestAppendWithoutApplyStateRejected(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) *Ledger) {
		l := open(t)
		txs := []*types.Transaction{mkTx("x1", "a")}
		b := mkBlock(l, txs, []types.ValidationCode{types.ValidationValid})
		if err := l.Append(b); !errors.Is(err, ErrNotStaged) {
			t.Errorf("Append unstaged = %v, want ErrNotStaged", err)
		}
	})
}

// commitN commits n single-tx blocks writing rotating keys.
func commitN(t *testing.T, l *Ledger, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		txs := []*types.Transaction{mkTx(fmt.Sprintf("tx%04d", i), fmt.Sprintf("k%d", i%7))}
		b := mkBlock(l, txs, []types.ValidationCode{types.ValidationValid})
		if err := l.Commit(b, txs); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
}

// TestFileReopenFromCheckpointAndTail is the core persistence test: a
// file-backed ledger closed and reopened recovers to the identical tip,
// state, and index from its checkpoint plus the block tail, and keeps
// committing. The long input puts more than 256 blocks in the log and
// reads blocks from across it before and after the reopen.
func TestFileReopenFromCheckpointAndTail(t *testing.T) {
	for _, tc := range []struct {
		name         string
		blocks, ckpt int
	}{
		{"short", 11, 4}, // checkpoints at 5 and 9; tail = blocks 9,10
		{"long", 276, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Backend: "file", Dir: dir, CheckpointInterval: uint64(tc.ckpt)}
			l, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			n := tc.blocks
			commitN(t, l, 0, n)
			wantHeight := l.Height()
			if wantHeight != uint64(n)+1 {
				t.Fatalf("height = %d", wantHeight)
			}
			wantHash := l.LastHash()
			wantState, err := l.StateHash()
			if err != nil {
				t.Fatal(err)
			}
			reads := []uint64{1, uint64(n)}
			if n > 256 {
				reads = append(reads, 255, 256)
			}
			checkReads := func(l *Ledger) {
				t.Helper()
				for _, num := range reads {
					b, err := l.GetBlock(num)
					if err != nil || b.Header.Number != num {
						t.Fatalf("GetBlock(%d): %+v %v", num, b, err)
					}
				}
			}
			checkReads(l)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// The checkpoint directory must exist — recovery must not be a
			// silent genesis replay.
			if ents, err := os.ReadDir(filepath.Join(dir, checkpointDirName)); err != nil || len(ents) == 0 {
				t.Fatalf("no checkpoints written: %v", err)
			}

			r, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Height() != wantHeight {
				t.Fatalf("reopened height %d, want %d", r.Height(), wantHeight)
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
			if !r.HasTx(types.TxID(fmt.Sprintf("tx%04d", n-1))) || r.HasTx(types.TxID(fmt.Sprintf("tx%04d", n))) {
				t.Error("reopened tx index wrong")
			}
			checkReads(r)
			if err := r.VerifyChain(); err != nil {
				t.Errorf("VerifyChain after reopen: %v", err)
			}
			// The reopened ledger keeps committing on the same chain.
			commitN(t, r, n, 2)
			if r.Height() != wantHeight+2 {
				t.Errorf("height after recommit = %d", r.Height())
			}
		})
	}
}

// TestFileReopenTornTail simulates a crash mid-append: garbage half
// records at the end of the block log and the state log are truncated
// away and recovery proceeds.
func TestFileReopenTornTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Backend: "file", Dir: dir, CheckpointInterval: 100} // no checkpoint: pure replay
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, l, 0, 6)
	wantState, _ := l.StateHash()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear both files: a partial length prefix and record.
	for _, path := range []string{filepath.Join(dir, "blocks", blockLogName), filepath.Join(dir, "state", "state.log")} {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0xff, 0x88, 0x01}); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	r, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Height() != 7 {
		t.Errorf("height after torn-tail reopen = %d, want 7", r.Height())
	}
	gotState, _ := r.StateHash()
	if !bytes.Equal(gotState, wantState) {
		t.Error("state hash differs after torn-tail reopen")
	}
	commitN(t, r, 6, 1)
}

// TestSnapshotRoundtrip transfers a ledger snapshot into a fresh ledger
// of every backend: identical tip and state, pruned prefix, and the
// chain keeps extending past the snapshot.
func TestSnapshotRoundtrip(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) *Ledger) {
		src := openMem(t)
		commitN(t, src, 0, 8)
		snap, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		// Wire roundtrip, including the state-hash integrity check.
		decoded, err := UnmarshalSnapshot(snap.Marshal())
		if err != nil {
			t.Fatal(err)
		}

		dst := open(t)
		if err := dst.RestoreSnapshot(decoded); err != nil {
			t.Fatal(err)
		}
		if dst.Height() != src.Height() {
			t.Fatalf("restored height %d, want %d", dst.Height(), src.Height())
		}
		if dst.Base() != src.Height() {
			t.Errorf("restored base %d, want %d", dst.Base(), src.Height())
		}
		if !bytes.Equal(dst.LastHash(), src.LastHash()) {
			t.Error("restored tip hash differs")
		}
		sh, _ := src.StateHash()
		dh, _ := dst.StateHash()
		if !bytes.Equal(sh, dh) {
			t.Error("restored state hash differs")
		}
		if !dst.HasTx("tx0003") {
			t.Error("restored index missing tx")
		}
		// The pruned prefix is gone; the tail extends normally.
		if _, err := dst.GetBlock(2); !errors.Is(err, ErrNotFound) {
			t.Errorf("pruned block: %v", err)
		}
		txs := []*types.Transaction{mkTx("after-snap", "z")}
		b := mkBlock(src, txs, []types.ValidationCode{types.ValidationValid})
		if err := src.Commit(b, txs); err != nil {
			t.Fatal(err)
		}
		if err := dst.Commit(b, txs); err != nil {
			t.Fatalf("commit past snapshot: %v", err)
		}
		if err := dst.VerifyChain(); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(dst.LastHash(), src.LastHash()) {
			t.Error("tips diverged after extending past snapshot")
		}
	})
}

// TestRestoreSnapshotRefusesStale: a snapshot at or below the current
// height must not rewind the chain.
func TestRestoreSnapshotRefusesStale(t *testing.T) {
	src := openMem(t)
	commitN(t, src, 0, 3)
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dst := openMem(t)
	commitN(t, dst, 0, 5)
	if err := dst.RestoreSnapshot(snap); !errors.Is(err, ErrStale) {
		t.Errorf("RestoreSnapshot stale = %v, want ErrStale", err)
	}
}

// TestFileReopenAfterSnapshotBootstrap: a file-backed ledger that was
// bootstrapped from a snapshot (pruned prefix) reopens from the
// checkpoint the restore wrote.
func TestFileReopenAfterSnapshotBootstrap(t *testing.T) {
	src := openMem(t)
	commitN(t, src, 0, 8)
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := Options{Backend: "file", Dir: dir, CheckpointInterval: 100}
	dst, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	commitN(t, src, 8, 3)
	for n := uint64(9); n < 12; n++ {
		b, err := src.GetBlock(n)
		if err != nil {
			t.Fatal(err)
		}
		txs, _ := b.Transactions()
		if err := dst.Commit(b, txs); err != nil {
			t.Fatal(err)
		}
	}
	want := dst.LastHash()
	dst.Close()

	r, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Height() != 12 || r.Base() != 9 {
		t.Fatalf("reopened height=%d base=%d, want 12 and 9", r.Height(), r.Base())
	}
	if !bytes.Equal(r.LastHash(), want) {
		t.Error("tip differs after bootstrap reopen")
	}
	sh, _ := src.StateHash()
	rh, _ := r.StateHash()
	if !bytes.Equal(sh, rh) {
		t.Error("state differs after bootstrap reopen")
	}
}

// TestFileResetAfterCrashMidRewrite: a crash between writing a reset
// block log's temp file and renaming it leaves blocks.log intact beside
// a stale blocks.log.tmp. The ledger reopens to its pre-reset chain, and
// the next Reset (a snapshot install) succeeds and survives a reopen.
func TestFileResetAfterCrashMidRewrite(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Backend: "file", Dir: dir, CheckpointInterval: 100}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, l, 0, 3)
	want := l.LastHash()
	l.Close()
	tmp := filepath.Join(dir, "blocks", blockLogName+".tmp")
	if err := os.WriteFile(tmp, []byte{1, 9}, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Base() != 0 || r.Height() != 4 || !bytes.Equal(r.LastHash(), want) {
		t.Fatalf("reopened base=%d height=%d; want the pre-reset chain", r.Base(), r.Height())
	}
	if err := r.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	src := openMem(t)
	commitN(t, src, 0, 8)
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale temp file survived Reset: %v", err)
	}
	r.Close()
	r, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Base() != 9 || r.Height() != 9 || !bytes.Equal(r.LastHash(), src.LastHash()) {
		t.Errorf("after reset and reopen base=%d height=%d", r.Base(), r.Height())
	}
}

// TestFileCrashBeforeAppendRedelivery covers the WAL-ahead-of-blocks
// crash: state applied, block never appended. On reopen the redelivered
// block must index and stage without double-applying state.
func TestFileCrashBeforeAppendRedelivery(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Backend: "file", Dir: dir, CheckpointInterval: 100}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, l, 0, 3)
	// ApplyState without Append: the state WAL records block 4, the
	// block store stays at height 4.
	txs := []*types.Transaction{mkTx("orphan", "a")}
	b := mkStagedBlock(l, txs, []types.ValidationCode{types.ValidationValid})
	if err := l.ApplyState(b, txs); err != nil {
		t.Fatal(err)
	}
	l.Close() // "crash": staged block never appended

	r, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Height() != 4 {
		t.Fatalf("height = %d, want 4", r.Height())
	}
	// Redelivery of the same block: ApplyState must succeed (state apply
	// skipped, already in the WAL) and Append must complete the commit.
	if err := r.Commit(b, txs); err != nil {
		t.Fatalf("redelivered commit: %v", err)
	}
	if r.Height() != 5 || !r.HasTx("orphan") {
		t.Errorf("height=%d HasTx=%v", r.Height(), r.HasTx("orphan"))
	}
	vv, ok, _ := r.State().Get("cc", "a")
	if !ok || string(vv.Value) != "v-orphan" {
		t.Errorf("state after redelivery = %+v ok=%v", vv, ok)
	}
}

// TestBackendEquivalence commits one identical block sequence to a
// ledger per backend and requires every queryable surface to agree
// exactly: chain height, tip hash, state hash, per-key world state, and
// transaction index. The file ledger must still
// agree after a close/reopen cycle (checkpoint + tail replay), which
// pins down that persistence is an implementation detail of the store,
// not an observable semantic difference.
func TestBackendEquivalence(t *testing.T) {
	dir := t.TempDir()
	ledgers := make(map[string]*Ledger)
	for _, backend := range Backends() {
		l, err := Open(Options{
			Backend:            backend,
			Dir:                filepath.Join(dir, backend),
			CheckpointInterval: 4,
		})
		if err != nil {
			t.Fatalf("open %s: %v", backend, err)
		}
		ledgers[backend] = l
	}
	defer func() {
		for _, l := range ledgers {
			l.Close()
		}
	}()
	oracle := ledgers["mem"]

	// 12 blocks x 3 txs, keys cycling over a small space so keys are
	// rewritten, with one invalid tx every other block so index-only
	// recording is exercised too.
	var allTxs []*types.Transaction
	keys := map[string]bool{}
	for b := 0; b < 12; b++ {
		var txs []*types.Transaction
		for j := 0; j < 3; j++ {
			k := fmt.Sprintf("k%d", (b*3+j)%7)
			keys[k] = true
			txs = append(txs, mkTx(fmt.Sprintf("t%d-%d", b, j), k))
		}
		flags := []types.ValidationCode{
			types.ValidationValid, types.ValidationValid, types.ValidationValid,
		}
		if b%2 == 0 {
			flags[1] = types.ValidationMVCCConflict
		}
		block := mkBlock(oracle, txs, flags)
		for _, l := range ledgers {
			if err := l.Commit(block, txs); err != nil {
				t.Fatalf("block %d: %v", b, err)
			}
		}
		allTxs = append(allTxs, txs...)
	}

	// agree asserts l matches the oracle on every queryable surface.
	agree := func(t *testing.T, label string, l *Ledger) {
		t.Helper()
		if l.Height() != oracle.Height() {
			t.Fatalf("%s: height = %d, oracle %d", label, l.Height(), oracle.Height())
		}
		if !bytes.Equal(l.LastHash(), oracle.LastHash()) {
			t.Errorf("%s: tip hash diverged", label)
		}
		want, err := oracle.StateHash()
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.StateHash()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: state hash = %x, oracle %x", label, got, want)
		}
		for k := range keys {
			wv, wok, _ := oracle.State().Get("cc", k)
			gv, gok, _ := l.State().Get("cc", k)
			if wok != gok || !bytes.Equal(wv.Value, gv.Value) || wv.Version != gv.Version {
				t.Errorf("%s: key %s = (%+v,%v), oracle (%+v,%v)", label, k, gv, gok, wv, wok)
			}
		}
		for _, tx := range allTxs {
			wi, werr := oracle.GetTx(tx.Proposal.TxID)
			gi, gerr := l.GetTx(tx.Proposal.TxID)
			if (werr == nil) != (gerr == nil) || wi != gi {
				t.Errorf("%s: tx %s = (%+v,%v), oracle (%+v,%v)",
					label, tx.Proposal.TxID, gi, gerr, wi, werr)
			}
		}
		if err := l.VerifyChain(); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
	for backend, l := range ledgers {
		agree(t, backend, l)
	}

	// The file ledger must agree again after checkpoint+tail reopen.
	if err := ledgers["file"].Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{
		Backend:            "file",
		Dir:                filepath.Join(dir, "file"),
		CheckpointInterval: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ledgers["file"] = r
	agree(t, "file-reopened", r)
}

// TestAddBlockAllocs pins the index's per-block ID copy: re-indexing a
// 100-tx block whose IDs are indexed already costs one allocation, the
// string its keys are cut from. Indexing one transaction at a time cost
// one copy per ID (100).
func TestAddBlockAllocs(t *testing.T) {
	txs := make([]*types.Transaction, 100)
	flags := make([]types.ValidationCode, len(txs))
	for i := range txs {
		txs[i], flags[i] = mkTx(fmt.Sprintf("tx%03d", i), "k"), types.ValidationValid
	}
	x := newTxIndex()
	x.addBlock(1, txs, flags)
	if allocs := testing.AllocsPerRun(50, func() { x.addBlock(1, txs, flags) }); allocs != 1 {
		t.Errorf("addBlock on a %d-tx block of indexed IDs: %.0f allocations, want 1", len(txs), allocs)
	}
	if total, valid, _ := x.Counts(); total != len(txs) || valid != len(txs) {
		t.Errorf("Counts = %d total, %d valid, want %d of each", total, valid, len(txs))
	}
	if info, ok := x.Get("tx042"); !ok || info.TxNum != 42 {
		t.Errorf("Get(tx042) = %+v, %v, want TxNum 42", info, ok)
	}
}

// BenchmarkApplyState times the ledger's first commit stage on the mem
// backend: one decoded 100-tx block per op, each transaction indexed
// and writing one key of a 1000-key state.
func BenchmarkApplyState(b *testing.B) {
	l, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		txs := make([]*types.Transaction, 100)
		flags := make([]types.ValidationCode, len(txs))
		for j := range txs {
			txs[j] = mkTx(fmt.Sprintf("tx%d-%d", i, j), fmt.Sprintf("k%03d", (i*len(txs)+j)%1000))
			flags[j] = types.ValidationValid
		}
		block := mkBlock(l, txs, flags)
		if txs, err = block.Transactions(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := l.ApplyState(block, txs); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := l.Append(block); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
