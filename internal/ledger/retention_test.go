package ledger

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

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

// TestApplyStateSharesNoMemoryWithBlock applies decoded blocks, on every
// backend, and requires that no state-DB namespace or key and no tx-index
// ID shares memory with the block's decode, whose strings all lie in one
// string copy of the block. Namespaces and GetRange hand out the state
// maps' own key strings, not copies, so their addresses are the maps'.
// The blocks write fresh keys, overwrite keys of the block before, open
// a fresh namespace, and carry an invalid transaction, which is indexed
// but not applied.
func TestApplyStateSharesNoMemoryWithBlock(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) *Ledger) {
		l := open(t)
		for b := 0; b < 3; b++ {
			txs := make([]*types.Transaction, 8)
			flags := make([]types.ValidationCode, len(txs))
			for i := range txs {
				n := b*len(txs) + i
				txs[i] = mkTx(fmt.Sprintf("tx-%03d", n), fmt.Sprintf("k%03d", n), fmt.Sprintf("k%03d", n-len(txs)))
				txs[i].Proposal.ChaincodeID = fmt.Sprintf("cc%d", b)
				if i == 0 {
					txs[i].Proposal.ChaincodeID = "cc"
				}
				flags[i] = types.ValidationValid
			}
			flags[5] = types.ValidationMVCCConflict
			block := mkBlock(l, txs, flags)
			decoded, err := block.Transactions()
			if err != nil {
				t.Fatal(err)
			}
			// The decode's strings, every one a substring of the block's
			// one copy, span [lo, hi).
			lo, hi := ^uintptr(0), uintptr(0)
			size := 0
			for i, tx := range decoded {
				size += len(block.Data[i])
				for _, s := range []string{string(tx.Proposal.TxID), tx.Proposal.ChaincodeID, tx.Proposal.Fn} {
					p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
					lo, hi = min(lo, p), max(hi, p+uintptr(len(s)))
				}
				for _, w := range tx.Results.Writes {
					p := uintptr(unsafe.Pointer(unsafe.StringData(w.Key)))
					lo, hi = min(lo, p), max(hi, p+uintptr(len(w.Key)))
				}
			}
			if hi-lo > uintptr(size) {
				t.Fatalf("block %d: decoded strings span %d bytes, more than the block's %d", b, hi-lo, size)
			}
			if err := l.Commit(block, decoded); err != nil {
				t.Fatal(err)
			}
			shares := func(s string) bool {
				p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
				return len(s) > 0 && p < hi && p+uintptr(len(s)) > lo
			}
			for _, ns := range l.State().Namespaces() {
				if shares(ns) {
					t.Errorf("block %d: state namespace %q shares the block's decode", b, ns)
				}
				kvs, err := l.State().GetRange(ns, "", "", 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, kv := range kvs {
					if shares(kv.Key) {
						t.Errorf("block %d: state key %s/%s shares the block's decode", b, ns, kv.Key)
					}
				}
			}
			l.index.mu.RLock()
			for id := range l.index.txs {
				if shares(string(id)) {
					t.Errorf("block %d: tx index ID %s shares the block's decode", b, id)
				}
			}
			l.index.mu.RUnlock()
			// The decode must stay live through the checks, or a copy could
			// be allocated where it was.
			runtime.KeepAlive(decoded)
		}
	})
}
