package ledger

import (
	"strings"
	"testing"

	"fabricsim/internal/statedb"
	"fabricsim/internal/types"
)

// TestAgree holds Agree to its contract against a mem ledger of six
// committed blocks: a ledger fed the same blocks agrees with it on
// either backend and after a snapshot bootstrap, and each kind of
// divergence is named, cheapest first.
func TestAgree(t *testing.T) {
	const blocks = 6
	open := func(t *testing.T, backend string, n int) *Ledger {
		t.Helper()
		l, err := Open(Options{Backend: backend, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		commitN(t, l, 0, n)
		return l
	}
	for _, tc := range []struct {
		name  string
		other func(t *testing.T) *Ledger
		want  string // what the error names; "" for agreement
	}{
		{"mem and file fed the same blocks", func(t *testing.T) *Ledger {
			return open(t, "file", blocks)
		}, ""},
		{"one block behind", func(t *testing.T) *Ledger {
			return open(t, "mem", blocks-1)
		}, "height"},
		{"a different last block", func(t *testing.T) *Ledger {
			l := open(t, "mem", blocks-1)
			txs := []*types.Transaction{mkTx("other", "x")}
			if err := l.Commit(mkBlock(l, txs, []types.ValidationCode{types.ValidationValid}), txs); err != nil {
				t.Fatal(err)
			}
			return l
		}, "tip"},
		{"a state write outside a block", func(t *testing.T) *Ledger {
			l := open(t, "mem", blocks)
			h := l.State().Height()
			h.TxNum++
			batch := statedb.NewUpdateBatch()
			batch.Put("cc", "rogue", []byte("v"), h)
			if err := l.State().ApplyUpdates(batch, h); err != nil {
				t.Fatal(err)
			}
			return l
		}, "state"},
		{"block data altered in the store", func(t *testing.T) *Ledger {
			l := open(t, "mem", blocks)
			b, err := l.GetBlock(2)
			if err != nil {
				t.Fatal(err)
			}
			b.Data[0] = []byte("altered")
			return l
		}, "chain"},
		{"a snapshot-bootstrapped ledger", func(t *testing.T) *Ledger {
			snap, err := open(t, "mem", blocks-2).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			l := open(t, "file", 0)
			if err := l.RestoreSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			commitN(t, l, blocks-2, 2)
			if l.Base() == 0 {
				t.Fatal("restored ledger kept its prefix")
			}
			return l
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := Agree(open(t, "mem", blocks), tc.other(t))
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("Agree = %v, want agreement", err)
			case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), "ledger 1 "+tc.want)):
				t.Errorf("Agree = %v, want ledger 1's %s named", err, tc.want)
			}
		})
	}
}
