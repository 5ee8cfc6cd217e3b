package bench

import (
	"context"
	"testing"
)

// TestMemRestartReportsGenesisStartHeight restarts a mem-backed replica
// in both mem modes: it comes back with empty ledgers, so the sweep must
// report start height 1, the genesis block, however far the peer has
// caught up by the time RestartPeer returns.
func TestMemRestartReportsGenesisStartHeight(t *testing.T) {
	if testing.Short() {
		t.Skip("runs recovery points")
	}
	for _, mode := range []string{"replay", "snapshot"} {
		pt, err := RecoveryPoint{Mode: mode, Blocks: 30}.measure(context.Background(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r := pt.Recovery; r.StartHeight != 1 || r.Persistent {
			t.Errorf("%s: start height %d, persistent %v; want 1 and false", mode, r.StartHeight, r.Persistent)
		}
	}
}
