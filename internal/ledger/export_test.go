package ledger

import "fabricsim/internal/types"

// Commit applies and appends a validated block in one call, for tests
// that do not pipeline the two commit stages.
func (l *Ledger) Commit(block *types.Block, txs []*types.Transaction) error {
	if err := l.ApplyState(block, txs); err != nil {
		return err
	}
	return l.Append(block)
}

// StagedHeight returns the number of blocks whose state has been
// applied (genesis included): Height plus the blocks still staged in
// the commit pipeline between ApplyState and Append.
func (l *Ledger) StagedHeight() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.store.Height() + uint64(len(l.staged))
}
