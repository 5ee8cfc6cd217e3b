package ledger

import (
	"fmt"
	"runtime"
	"testing"

	"fabricsim/internal/types"
)

// maxRetainedPerTx bounds the heap a file-backed ledger keeps per
// committed transaction in TestCommitRetainsNoEnvelope. The copying
// decode, which shared no bytes with the block, measured 324-332 B there
// on go1.24, linux/amd64, run alone, after the rest of the package, and
// under -race; the bound rounds that up past a few bytes of run-to-run
// jitter. One envelope view kept per five transactions would add 800 B.
const maxRetainedPerTx = 340

// TestCommitRetainsNoEnvelope commits blocks whose transactions
// Block.Transactions decoded — strings and []byte fields that are views
// of the block's envelopes — through a file-backed ledger, drops the
// blocks, and measures the heap the ledger still holds per committed
// transaction. Every envelope carries 4 KiB of padding, so one retained
// view costs kilobytes per transaction. The workload reaches every
// long-lived map the ledger fills from a decoded field: fresh and
// overwritten state keys, deletes, re-indexed (duplicate) TxIDs, and
// invalid transactions that are indexed but not applied. Each key and
// TxID is overwritten at most once, so a map that kept the view of its
// last writer would hold one envelope per key.
func TestCommitRetainsNoEnvelope(t *testing.T) {
	const blocks, perBlock = 160, 50
	l, err := Open(Options{Backend: "file", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for b, n := 0, 0; b < blocks; b++ {
		txs := make([]*types.Transaction, perBlock)
		flags := make([]types.ValidationCode, perBlock)
		for i := range txs {
			id := n
			flags[i] = types.ValidationValid
			switch {
			case n%5 == 4 && n >= perBlock:
				id = n - perBlock - 1 // a replay of a committed, non-replay tx
				flags[i] = types.ValidationDuplicateTxID
			case n%7 == 6:
				flags[i] = types.ValidationMVCCConflict
			}
			// A fresh key, the key a block earlier's tx wrote, and now and
			// then a delete of one from two blocks back.
			keys := []string{fmt.Sprintf("k%06d", n)}
			if n >= perBlock {
				keys = append(keys, fmt.Sprintf("k%06d", n-perBlock))
			}
			tx := mkTx(fmt.Sprintf("%064d", id), keys...)
			if n%3 == 0 && n >= 2*perBlock {
				tx.Results.Writes = append(tx.Results.Writes, types.KVWrite{Key: fmt.Sprintf("k%06d", n-2*perBlock), IsDelete: true})
			}
			tx.Proposal.TraceID = fmt.Sprintf("trace-%d", n)
			tx.Padding = make([]byte, 4096)
			txs[i] = tx
			n++
		}
		block := mkBlock(l, txs, flags)
		decoded, err := block.Transactions()
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(block, decoded); err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	perTx := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (blocks * perBlock)
	t.Logf("heap retained per committed tx: %.0f B", perTx)
	if perTx > maxRetainedPerTx {
		t.Errorf("ledger retains %.0f B per committed tx, want <= %d: a decoded view of an envelope outlives its block", perTx, maxRetainedPerTx)
	}
}
