package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fabricsim/internal/fabcrypto"
	"fabricsim/internal/ledger"
	"fabricsim/internal/msp"
	"fabricsim/internal/orderer/blockcutter"
	"fabricsim/internal/raft"
	"fabricsim/internal/rwdep"
	"fabricsim/internal/statedb"
	"fabricsim/internal/trace"
	"fabricsim/internal/transport"
	"fabricsim/internal/types"
)

// replayReps is how often each layer function is timed over the whole
// chain; the median repetition is reported.
const replayReps = 3

// replaySink keeps measured results reachable so the compiler cannot
// drop the calls that produce them.
var replaySink any

// timeOps runs fn replayReps times, each over ops operations, and
// returns the median nanoseconds and heap allocations per operation.
// prepare, when non-nil, runs untimed before every repetition.
func timeOps(ops int, prepare func() error, fn func() error) (ns, allocs float64, err error) {
	var nss, allocss []float64
	var before, after runtime.MemStats
	for rep := 0; rep < replayReps; rep++ {
		if prepare != nil {
			if err := prepare(); err != nil {
				return 0, 0, err
			}
		}
		runtime.GC() // every repetition starts from the same heap
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		nss = append(nss, float64(elapsed.Nanoseconds())/float64(ops))
		allocss = append(allocss, float64(after.Mallocs-before.Mallocs)/float64(ops))
	}
	return median(nss), median(allocss), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// replayLayers times each layer's public hot function on the blocks a
// run really committed, outside any network, so the numbers show where
// host CPU goes per transaction without touching the program. identity
// resolves a creator certificate to its public key (the network's MSP);
// dir is scratch space for the file backends; summarize reduces the
// run's own metrics collector.
func replayLayers(blocks []*types.Block, identity *msp.MSP, dir string, summarize func()) (map[string]metric, error) {
	out := make(map[string]metric)
	var envs [][]byte
	for _, b := range blocks {
		envs = append(envs, b.Data...)
	}
	if len(envs) == 0 {
		return nil, fmt.Errorf("replay: the run committed no transactions")
	}
	ntx := len(envs)
	record := func(name, unit string, ops int, prepare func() error, fn func() error) error {
		ns, allocs, err := timeOps(ops, prepare, fn)
		if err != nil {
			return fmt.Errorf("replay %s: %w", name, err)
		}
		out[name+"_ns_"+unit] = metric{ns, "ns"}
		out[name+"_allocs_"+unit] = metric{allocs, "count"}
		return nil
	}

	// types: full decode, ordering-path peek, block codec.
	txsByBlock := make([][]*types.Transaction, len(blocks))
	if err := record("types.decode", "per_tx", ntx, nil, func() error {
		for i, b := range blocks {
			txs, err := b.Transactions()
			if err != nil {
				return err
			}
			txsByBlock[i] = txs
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := record("types.peek", "per_tx", ntx, nil, func() error {
		for _, env := range envs {
			info, err := types.PeekEnvelopeInfo(env)
			if err != nil {
				return err
			}
			replaySink = info
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := record("types.block_codec", "per_tx", ntx, nil, func() error {
		for _, b := range blocks {
			back, err := types.UnmarshalBlock(b.Marshal())
			if err != nil {
				return err
			}
			replaySink = back
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// fabcrypto: the client signature every envelope really carries.
	type sigCheck struct {
		scheme        string
		pub, msg, sig []byte
	}
	var checks []sigCheck
	for _, txs := range txsByBlock {
		for _, tx := range txs {
			cert, err := identity.ValidateIdentity(tx.Proposal.Creator)
			if err != nil {
				return nil, fmt.Errorf("replay fabcrypto.verify: %w", err)
			}
			checks = append(checks, sigCheck{
				scheme: cert.Scheme, pub: cert.PubKey,
				msg: fabcrypto.Digest(tx.Proposal.Hash(), tx.Results.Marshal()), sig: tx.ClientSig,
			})
		}
	}
	if err := record("fabcrypto.verify", "per_sig", len(checks), nil, func() error {
		for _, c := range checks {
			if err := fabcrypto.Verify(c.scheme, c.pub, c.msg, c.sig); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// rwdep: the reordering pass and the committer's chain analysis.
	all := func(n int) []bool {
		p := make([]bool, n)
		for i := range p {
			p[i] = true
		}
		return p
	}
	if err := record("rwdep.schedule", "per_tx", ntx, nil, func() error {
		for _, txs := range txsByBlock {
			order, aborted := rwdep.Schedule(rwdep.FromTransactions(txs), all(len(txs)))
			replaySink = [2][]int{order, aborted}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	rws := make([][]rwdep.RW, len(txsByBlock))
	for i, txs := range txsByBlock {
		rws[i] = rwdep.FromTransactions(txs)
	}
	if err := record("rwdep.chains", "per_tx", ntx, nil, func() error {
		for i := range rws {
			replaySink = rwdep.Chains(rws[i], all(len(rws[i])))
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// blockcutter: batching every envelope, and the conflict-aware pass.
	if err := record("blockcutter.ordered", "per_tx", ntx, nil, func() error {
		cutter := blockcutter.New(blockcutter.DefaultConfig())
		now := time.Now()
		for _, env := range envs {
			batches, _ := cutter.Ordered(env, now)
			replaySink = batches
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := record("blockcutter.reorder", "per_tx", ntx, nil, func() error {
		for _, b := range blocks {
			batch, aborted := blockcutter.Reorder(b.Data)
			replaySink, _ = batch, aborted
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// ledger: both commit stages on a fresh ledger of each backend.
	for _, backend := range []string{"mem", "file"} {
		var led *ledger.Ledger
		ledDir := filepath.Join(dir, "ledger-"+backend)
		closeLedger := func() error {
			if led == nil {
				return nil
			}
			err := led.Close()
			led = nil
			return err
		}
		err := record("ledger.commit_"+backend, "per_tx", ntx, func() error {
			if err := closeLedger(); err != nil {
				return err
			}
			if err := os.RemoveAll(ledDir); err != nil {
				return err
			}
			var err error
			led, err = ledger.Open(ledger.Options{Backend: backend, Dir: ledDir})
			return err
		}, func() error {
			for i, b := range blocks {
				if err := led.ApplyState(b, txsByBlock[i]); err != nil {
					return err
				}
				if err := led.Append(b); err != nil {
					return err
				}
			}
			return nil
		})
		if cerr := closeLedger(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	ledgerBytes, err := dirBytes(filepath.Join(dir, "ledger-file"))
	if err != nil {
		return nil, fmt.Errorf("replay ledger.file_bytes: %w", err)
	}
	out["ledger.file_bytes_per_tx"] = metric{float64(ledgerBytes) / float64(ntx), "B"}

	// statedb: the file store's WAL-then-apply batch path alone.
	batches := make([]*statedb.UpdateBatch, len(blocks))
	for i, b := range blocks {
		batch := statedb.NewUpdateBatch()
		for j, tx := range txsByBlock[i] {
			if !b.Metadata.ValidationFlags[j].Valid() {
				continue
			}
			v := types.Version{BlockNum: b.Header.Number, TxNum: uint64(j)}
			for _, w := range tx.Results.Writes {
				if w.IsDelete {
					batch.Delete(tx.Proposal.ChaincodeID, w.Key, v)
				} else {
					batch.Put(tx.Proposal.ChaincodeID, w.Key, w.Value, v)
				}
			}
		}
		batches[i] = batch
	}
	var state statedb.Store
	stateDir := filepath.Join(dir, "state")
	err = record("statedb.file_apply", "per_tx", ntx, func() error {
		if state != nil {
			state.Close()
		}
		if err := os.RemoveAll(stateDir); err != nil {
			return err
		}
		var err error
		state, err = statedb.Open("file", stateDir)
		return err
	}, func() error {
		for i, b := range blocks {
			height := types.Version{BlockNum: b.Header.Number, TxNum: uint64(len(b.Data))}
			if err := state.ApplyUpdates(batches[i], height); err != nil {
				return err
			}
		}
		return nil
	})
	if state != nil {
		state.Close()
	}
	if err != nil {
		return nil, err
	}

	// raft: the WAL append the ordering service pays per cut batch. An
	// entry carries one batch, length-prefixed the way the consenter
	// encodes it.
	entries := make([]raft.Entry, len(blocks))
	for i, b := range blocks {
		enc := types.NewEncoder(b.Size())
		enc.Uvarint(uint64(len(b.Data)))
		for _, env := range b.Data {
			enc.Bytes2(env)
		}
		entries[i] = raft.Entry{Term: 1, Index: uint64(i + 1), Data: enc.Bytes()}
	}
	var wal *raft.FileStore
	walDir := filepath.Join(dir, "raft")
	err = record("raft.filestore_append", "per_entry", len(entries), func() error {
		if wal != nil {
			if err := wal.Close(); err != nil {
				return err
			}
		}
		if err := os.RemoveAll(walDir); err != nil {
			return err
		}
		var err error
		wal, err = raft.NewFileStore(walDir)
		return err
	}, func() error {
		for i := range entries {
			if err := wal.AppendEntries(entries[i : i+1]); err != nil {
				return err
			}
		}
		return nil
	})
	if wal != nil {
		if cerr := wal.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	walBytes, err := dirBytes(walDir)
	if err != nil {
		return nil, fmt.Errorf("replay raft.filestore_bytes: %w", err)
	}
	out["raft.filestore_bytes_per_tx"] = metric{float64(walBytes) / float64(ntx), "B"}

	// transport: one request/response over the in-memory network with
	// no modeled latency, i.e. the host cost of a hop.
	const calls = 2000
	memNet := transport.NewNetwork(transport.Config{})
	defer memNet.Close()
	caller, err := memNet.Register("caller")
	if err != nil {
		return nil, fmt.Errorf("replay transport.mem_call: %w", err)
	}
	callee, err := memNet.Register("callee")
	if err != nil {
		return nil, fmt.Errorf("replay transport.mem_call: %w", err)
	}
	callee.Handle("echo", func(_ context.Context, _ string, payload any) (any, int, error) {
		return payload, 8, nil
	})
	ns, allocs, err := timeOps(calls, nil, func() error {
		for i := 0; i < calls; i++ {
			if _, err := caller.Call(context.Background(), "callee", "echo", i, 8); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("replay transport.mem_call: %w", err)
	}
	out["transport.mem_call_ns"], out["transport.mem_call_allocs"] = metric{ns, "ns"}, metric{allocs, "count"}

	// trace: recording one span with the two attributes most call sites
	// attach, across as many traces as the run had transactions.
	ids := make([]trace.TraceID, ntx)
	for i := range ids {
		ids[i] = trace.TraceID(fmt.Sprintf("replay-%d", i))
	}
	if err := record("trace.record", "per_span", ntx, nil, func() error {
		tr := trace.New(ntx)
		now := time.Now()
		for _, id := range ids {
			tr.Record(id, trace.SpanCommitVSCC, "peer1", now, now, "channel", "perf", "block", "1")
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// metrics: reducing the run's own collector.
	var ms []float64
	for rep := 0; rep < replayReps; rep++ {
		start := time.Now()
		summarize()
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	out["metrics.summarize_ms"] = metric{median(ms), "ms"}
	return out, nil
}
