// Package blockcutter implements the ordering service's batching rule:
// a block is cut when pending transactions reach BatchSize or when
// BatchTimeout elapses after the first pending transaction arrived (the
// paper's two "core conditions", Section III; defaults BatchSize=100,
// BatchTimeout=1s).
//
// With Config.Reorder set, cut batches additionally pass through a
// Fabric++-style conflict-aware pass (Sharma et al., SIGMOD'19): the
// orderer peeks each envelope's endorsed read-write set, builds the
// intra-batch read→write dependency graph, aborts transactions trapped
// in unresolvable cycles early (before any peer spends validate CPU on
// them), and emits the survivors in a serializable order with zero
// intra-block read-write conflicts. The pass is deterministic, so every
// ordering node cuts byte-identical blocks from the same stream.
package blockcutter

import (
	"time"

	"fabricsim/internal/rwdep"
	"fabricsim/internal/types"
)

// Config holds the batching parameters.
type Config struct {
	// BatchSize is the maximum number of transactions per block.
	BatchSize int
	// BatchTimeout is the maximum time to wait before cutting a
	// non-empty batch.
	BatchTimeout time.Duration
	// Reorder enables the conflict-aware pass (see the package comment):
	// cut batches are reordered to minimize intra-block MVCC conflicts
	// and doomed transactions are aborted before validation. Off by
	// default — the cutter then preserves pure FIFO order, byte for
	// byte.
	Reorder bool
}

// DefaultConfig returns the paper's defaults.
func DefaultConfig() Config {
	return Config{BatchSize: 100, BatchTimeout: time.Second}
}

// Cutter accumulates ordered transactions into batches. It is not safe
// for concurrent use; each consenter drives one cutter from a single
// goroutine, which mirrors the single ordered stream it consumes.
type Cutter struct {
	cfg     Config
	pending [][]byte
	started time.Time // arrival of the first pending tx
	hasTime bool
}

// New creates a cutter. A BatchSize < 1 falls back to the default 100;
// a BatchTimeout <= 0 falls back to 1s.
func New(cfg Config) *Cutter {
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 100
	}
	if cfg.BatchTimeout <= 0 {
		cfg.BatchTimeout = time.Second
	}
	return &Cutter{cfg: cfg}
}

// Ordered appends one transaction and returns the batches that became
// ready because of it (at most one with size-based cutting, since each
// call adds a single tx). The boolean reports whether a timeout timer
// should be (re)armed: true whenever transactions remain pending.
func (c *Cutter) Ordered(env []byte, now time.Time) (batches [][][]byte, pending bool) {
	if len(c.pending) == 0 {
		c.started = now
		c.hasTime = true
	}
	c.pending = append(c.pending, env)
	if len(c.pending) >= c.cfg.BatchSize {
		batches = append(batches, c.takePending())
	}
	return batches, len(c.pending) > 0
}

// Cut forcibly cuts the pending batch (the timeout path). It returns nil
// when nothing is pending.
func (c *Cutter) Cut() [][]byte {
	if len(c.pending) == 0 {
		return nil
	}
	return c.takePending()
}

func (c *Cutter) takePending() [][]byte {
	batch := c.pending
	c.pending = nil
	c.hasTime = false
	return batch
}

// Reorder applies the conflict-aware pass to one cut batch: survivors
// first in dependency order, early-aborted transactions at the tail.
// The returned count is the number of trailing aborted envelopes (the
// block's Metadata.EarlyAborted). Envelopes that cannot be peeked —
// malformed or foreign payloads — are left in place relative to the
// other transactions and are never aborted; the committer will judge
// them. The pass is a pure function of the batch contents, so every
// consenter applying it to the same consensus stream emits identical
// blocks.
func Reorder(batch [][]byte) ([][]byte, int) {
	if len(batch) < 2 {
		return batch, 0
	}
	participates := make([]bool, len(batch))
	infos := types.PeekEnvelopeInfos(batch, participates)
	rws := make([]rwdep.RW, len(batch))
	peeked := false
	for i := range infos {
		if participates[i] {
			rws[i] = rwdep.FromRWSet(infos[i].ChaincodeID, &infos[i].Results)
			peeked = true
		}
	}
	if !peeked {
		return batch, 0
	}
	order, aborted := rwdep.Schedule(rws, participates)
	out := make([][]byte, 0, len(batch))
	for _, i := range order {
		out = append(out, batch[i])
	}
	for _, i := range aborted {
		out = append(out, batch[i])
	}
	return out, len(aborted)
}
