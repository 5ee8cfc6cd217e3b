package peer

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"fabricsim/internal/ledger"
	"fabricsim/internal/metrics"
	"fabricsim/internal/rwdep"
	"fabricsim/internal/trace"
	"fabricsim/internal/types"
)

// This file is the committer: the validate phase rebuilt as a staged,
// dependency-parallel pipeline (the FastFabric-style committer shape).
// Each channel runs three stage loops connected by ordered channels:
//
//	deliver ─▶ vsccLoop ─▶ applyLoop ─▶ appendLoop ─▶ events
//	            (VSCC)      (dup scan,     (block-store
//	                         conflict       append, the
//	                         groups,        modeled fsync)
//	                         state apply)
//
// The stages allocate per block, not per transaction, where they can:
// VSCC strides the block across Model.ValidatorPool workers, and the
// MVCC walk keys its dirty set on (namespace, key) pairs.
//
// A token bucket of Model.CommitDepth slots bounds how many blocks are
// in flight between VSCC start and append completion, so depth 1
// reproduces the legacy strictly-serial commitLoop while depth d lets
// block N+d-1's VSCC overlap block N's apply and append. Within the
// apply stage, the shared dependency engine (internal/rwdep) partitions
// the block into conflict-free groups that fan out across
// Model.CommitterPool workers; only true dependency chains pay their
// MVCC+commit cost serially. Blocks the conflict-aware cutter certified
// as dependency-ordered (Metadata.Reordered) fan out by exact
// read→write chains instead of coarse key-overlap groups, and their
// trailing early-aborted transactions skip validate CPU entirely.

// pipelinedBlock carries one block through the commit stages.
type pipelinedBlock struct {
	block    *types.Block
	vsccDone chan struct{} // closed when the VSCC stage finishes

	// Written by the VSCC stage (readable after vsccDone).
	txs   []*types.Transaction
	flags []types.ValidationCode
	err   error

	// Written by the apply stage.
	committed *types.Block // per-peer copy carrying the final flags
	groups    int
	wasted    time.Duration // modeled MVCC CPU spent on aborted txs

	vsccDur  time.Duration
	applyDur time.Duration
	// Stage start times, kept for span recording on the trace peer.
	vsccStart  time.Time
	applyStart time.Time
}

// vsccLoop admits one channel's blocks into the pipeline in delivery
// order: it acquires a depth token, launches the block's VSCC stage
// concurrently, and hands the in-flight block to the apply loop. The
// token is released by the append loop, so at most Model.CommitDepth
// blocks are in flight per channel.
func (p *Peer) vsccLoop(cs *channelState) {
	for {
		select {
		case <-p.stopCh:
			return
		case block := <-cs.commitCh:
			select {
			case cs.tokens <- struct{}{}:
			case <-p.stopCh:
				return
			}
			pb := &pipelinedBlock{block: block, vsccDone: make(chan struct{})}
			p.wg.Add(1) // Stop waits for in-flight VSCC stages too
			go p.runVSCCStage(cs, pb)
			select {
			case cs.applyCh <- pb:
			case <-p.stopCh:
				return
			}
		}
	}
}

// runVSCCStage decodes the block and runs endorsement-policy validation
// per transaction, fanned out across the validator pool. Cost scales
// with the endorsement count (signature verifications), which is why
// AND policies slow this phase down — the paper's central bottleneck
// observation.
//
// Each of the pool workers owns a stride of the block: worker w checks
// transactions w, w+pool, w+2·pool, … with one endorser scratch list,
// so the stage starts goroutines per block, not per transaction.
//
// The modeled CPU cost is charged per block rather than per tx: the
// block's total VSCC cost is split across the pool workers, each
// reserving one Execute beside its checks. This is arithmetically
// identical to per-tx charging under the pool but immune to host-timer
// granularity (see the simcpu package comment). Integer division would
// silently drop up to pool-1 nanoseconds of modeled cost per block, so
// the remainder is charged to the first worker.
func (p *Peer) runVSCCStage(cs *channelState, pb *pipelinedBlock) {
	defer p.wg.Done()
	defer close(pb.vsccDone)
	start := time.Now()
	pb.vsccStart = start
	ctx := context.Background()

	txs, err := pb.block.Transactions()
	if err != nil {
		pb.err = fmt.Errorf("peer %s: decode block %d: %w", p.cfg.ID, pb.block.Header.Number, err)
		return
	}
	pb.txs = txs
	pb.flags = make([]types.ValidationCode, len(txs))

	// Transactions the conflict-aware cutter already aborted sit at the
	// block's tail: flag them up front so they pay neither VSCC nor
	// MVCC cost — the whole point of aborting them before validate.
	if ea := pb.block.Metadata.EarlyAborted; ea > 0 {
		if ea > len(txs) {
			ea = len(txs)
		}
		for i := len(txs) - ea; i < len(txs); i++ {
			pb.flags[i] = types.ValidationEarlyAbort
		}
	}

	pool := p.cfg.Model.ValidatorPool
	if pool < 1 {
		pool = 1
	}
	var vsccTotal time.Duration
	maxEndorsements := 0
	for i, tx := range txs {
		if pb.flags[i] == types.ValidationEarlyAbort {
			continue
		}
		vsccTotal += p.cfg.Model.VSCCCost(len(tx.Endorsements))
		maxEndorsements = max(maxEndorsements, len(tx.Endorsements))
	}
	share := vsccTotal / time.Duration(pool)
	remainder := vsccTotal - share*time.Duration(pool)
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		cost := share
		if w == 0 {
			cost += remainder
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = p.cfg.CPU.Execute(ctx, cost)
		}()
		// The real policy checks run concurrently with the modeled cost.
		go func() {
			defer wg.Done()
			ids := make([]string, 0, maxEndorsements)
			for i := w; i < len(txs); i += pool {
				if pb.flags[i] != types.ValidationEarlyAbort {
					pb.flags[i] = p.runVSCC(txs[i], ids)
				}
			}
		}()
	}
	wg.Wait()
	pb.vsccDur = time.Since(start)
}

// applyLoop runs the MVCC + state-apply stage for one channel's blocks
// strictly in order: the pre-pass and the ledger apply of block N
// complete before block N+1's begin, so within-channel MVCC semantics
// and duplicate detection across pipelined blocks are identical to the
// legacy serial walk. A stale block — one below the ledger's applied
// height, which a snapshot bootstrap can leave in flight — is skipped
// (its pipeline token released) rather than wedging the channel; any
// other commit failure is fatal for the channel's chain and the loop
// stops consuming rather than corrupt state.
func (p *Peer) applyLoop(cs *channelState) {
	ctx := context.Background()
	for {
		select {
		case <-p.stopCh:
			return
		case pb := <-cs.applyCh:
			select {
			case <-pb.vsccDone:
			case <-p.stopCh:
				return
			}
			if pb.err != nil {
				return
			}
			if err := p.applyStage(ctx, cs, pb); err != nil {
				if errors.Is(err, ledger.ErrStale) {
					<-cs.tokens
					continue
				}
				return
			}
			select {
			case cs.appendCh <- pb:
			case <-p.stopCh:
				return
			}
		}
	}
}

// applyStage runs the serial duplicate pre-pass, partitions the block
// into conflict groups, fans the groups out across the committer pool,
// and applies the resulting writes to the channel's world state.
func (p *Peer) applyStage(ctx context.Context, cs *channelState, pb *pipelinedBlock) error {
	start := time.Now()
	pb.applyStart = start
	txs, flags := pb.txs, pb.flags

	// Duplicate-TxID detection must see the whole block (and the
	// already-applied chain) in order, so it runs serially before the
	// groups fan out: two same-ID transactions may carry different
	// read/write sets and land in different groups, where a racing
	// "first one wins" would be nondeterministic.
	seen := make(map[types.TxID]struct{}, len(txs))
	billable := make([]bool, len(txs)) // passed VSCC -> pays the MVCC walk
	for i, tx := range txs {
		if flags[i] != types.ValidationPending {
			continue // VSCC already rejected; Fabric never MVCC-checks it
		}
		billable[i] = true
		if _, dup := seen[tx.ID()]; dup || cs.ledger.HasTx(tx.ID()) {
			flags[i] = types.ValidationDuplicateTxID
			continue
		}
		seen[tx.ID()] = struct{}{}
	}

	// The shared dependency engine picks the fan-out unit. A block the
	// conflict-aware cutter certified dependency-ordered fans out by
	// exact read→write chains — flags provably identical to the serial
	// walk, but e.g. blind writes on one hot key become parallel
	// singletons instead of one serial overlap group. Untagged blocks
	// keep the legacy key-overlap grouping, byte-identical to before.
	rws := rwdep.FromTransactions(txs)
	var groups [][]int
	if pb.block.Metadata.Reordered {
		groups = rwdep.Chains(rws, billable)
	} else {
		groups = rwdep.ConflictGroups(rws, billable)
	}
	pb.groups = len(groups)
	pool := p.cfg.Model.CommitterPool
	if pool < 1 {
		pool = 1
	}
	var wg sync.WaitGroup
	for _, bin := range rwdep.PartitionGroups(groups, pool) {
		if len(bin) == 0 {
			continue
		}
		wg.Add(1)
		go func(bin [][]int) {
			defer wg.Done()
			var cost time.Duration
			for _, group := range bin {
				cost += p.walkGroup(cs, txs, flags, group)
			}
			_ = p.cfg.CPU.Execute(ctx, cost)
		}(bin)
	}
	wg.Wait()
	for _, f := range flags {
		if f == types.ValidationMVCCConflict {
			pb.wasted += p.cfg.Model.MVCCPerTxCPU
		}
	}

	// The in-memory transport shares one *types.Block among all peers;
	// commit a per-peer copy so validation flags never alias.
	committed := &types.Block{
		Header: pb.block.Header,
		Data:   pb.block.Data,
		Metadata: types.BlockMetadata{
			ValidationFlags: flags,
			OrderedTime:     pb.block.Metadata.OrderedTime,
			OrdererID:       pb.block.Metadata.OrdererID,
			ChannelID:       pb.block.Metadata.ChannelID,
			Reordered:       pb.block.Metadata.Reordered,
			EarlyAborted:    pb.block.Metadata.EarlyAborted,
		},
	}
	if err := cs.ledger.ApplyState(committed, txs); err != nil {
		return fmt.Errorf("peer %s: commit block %d: %w", p.cfg.ID, pb.block.Header.Number, err)
	}
	pb.committed = committed
	pb.applyDur = time.Since(start)
	return nil
}

// walkGroup runs the MVCC read-conflict walk for one conflict group (or
// dependency chain) in block order and returns the group's modeled
// serial cost. Every earlier in-block writer of any key a group member
// reads belongs to the same group — that is the grouping invariant both
// rwdep partitionings guarantee — so a group-local dirty set equals the
// legacy block-wide one restricted to the group's reads and different
// groups may walk concurrently; flags entries are per-transaction, so
// writers never alias across groups. Every transaction that passed VSCC pays
// MVCCPerTxCPU — including duplicates, which Fabric still checks —
// while only transactions that become valid pay CommitPerTxCPU.
func (p *Peer) walkGroup(cs *channelState, txs []*types.Transaction, flags []types.ValidationCode, group []int) time.Duration {
	dirty := make(map[stateKey]struct{})
	var cost time.Duration
	for _, i := range group {
		cost += p.cfg.Model.MVCCPerTxCPU
		if flags[i] != types.ValidationPending {
			continue // flagged duplicate by the pre-pass
		}
		tx := txs[i]
		if !p.mvccValid(cs, tx, dirty) {
			flags[i] = types.ValidationMVCCConflict
			continue
		}
		flags[i] = types.ValidationValid
		ns := tx.Proposal.ChaincodeID
		for _, w := range tx.Results.Writes {
			dirty[stateKey{ns, w.Key}] = struct{}{}
		}
		cost += p.cfg.Model.CommitPerTxCPU
	}
	return cost
}

// recordCommitSpans records the three commit-stage spans for every
// traced transaction in one committed block. Only the Recorder peer
// calls this (every peer commits every block, so one recorder suffices).
// The block-level gossip origin — how this peer first learned of the
// block — is attached to the append span.
func (p *Peer) recordCommitSpans(cs *channelState, pb *pipelinedBlock, appendStart, committedAt time.Time) {
	tr := p.cfg.Tracer
	blockNum := fmt.Sprint(pb.committed.Header.Number)
	groups := fmt.Sprint(pb.groups)
	source, hops, haveOrigin := tr.OriginOf(cs.id, pb.committed.Header.Number)
	for i, tx := range pb.txs {
		if tx.Proposal.TraceID == "" {
			continue
		}
		// The tracer keeps its spans past this block's commit, and the
		// decoded TraceID is a view of the block's envelope.
		id := trace.TraceID(strings.Clone(tx.Proposal.TraceID))
		code := pb.committed.Metadata.ValidationFlags[i]
		if code == types.ValidationEarlyAbort {
			// Early-aborted transactions skip validate CPU entirely: one
			// zero-width marker span instead of a fake VSCC/apply pair.
			tr.Record(id, trace.SpanCommitApply, p.cfg.ID, pb.applyStart, pb.applyStart,
				"block", blockNum, "code", code.String(), "early-abort", "true")
			continue
		}
		tr.Record(id, trace.SpanCommitVSCC, p.cfg.ID,
			pb.vsccStart, pb.vsccStart.Add(pb.vsccDur), "block", blockNum)
		tr.Record(id, trace.SpanCommitApply, p.cfg.ID,
			pb.applyStart, pb.applyStart.Add(pb.applyDur),
			"block", blockNum, "groups", groups, "code", code.String())
		if haveOrigin {
			tr.Record(id, trace.SpanCommitAppend, p.cfg.ID, appendStart, committedAt,
				"block", blockNum, "origin", source, "hops", fmt.Sprint(hops))
		} else {
			tr.Record(id, trace.SpanCommitAppend, p.cfg.ID, appendStart, committedAt,
				"block", blockNum)
		}
	}
}

// appendLoop runs the final stage: the modeled block-store fsync
// (BlockCommitCPU) and the ordered append, then commit-event delivery.
// It releases the block's pipeline token, admitting the next block.
func (p *Peer) appendLoop(cs *channelState) {
	ctx := context.Background()
	for {
		select {
		case <-p.stopCh:
			return
		case pb := <-cs.appendCh:
			start := time.Now()
			if err := p.cfg.CPU.Execute(ctx, p.cfg.Model.BlockCommitCPU); err != nil {
				return
			}
			if err := cs.ledger.Append(pb.committed); err != nil {
				return
			}
			now := time.Now()
			col := p.cfg.Collector
			// Every peer reports its commits, so the commit-lag summary
			// sees dissemination stragglers, not just the recorder.
			if ot := pb.committed.Metadata.OrderedTime; ot > 0 {
				col.PeerCommit(now.Sub(time.Unix(0, ot)), now)
			}
			// Spans first: a client that returns on its commit event may
			// read the trace at once.
			if p.cfg.Recorder && p.cfg.Tracer.Enabled() {
				p.recordCommitSpans(cs, pb, start, now)
			}
			p.emitCommitEvents(pb.committed, pb.txs, now)
			if p.cfg.Recorder && col != nil {
				mvccAborts, earlyAborts := 0, 0
				for _, f := range pb.committed.Metadata.ValidationFlags {
					switch f {
					case types.ValidationMVCCConflict:
						mvccAborts++
					case types.ValidationEarlyAbort:
						earlyAborts++
					}
				}
				col.CommitStage(metrics.CommitStageEvent{
					Number:         pb.committed.Header.Number,
					Channel:        cs.id,
					Txs:            len(pb.txs),
					Groups:         pb.groups,
					VSCC:           pb.vsccDur,
					Apply:          pb.applyDur,
					Append:         now.Sub(start),
					CommittedAt:    now,
					MVCCAborts:     mvccAborts,
					EarlyAborts:    earlyAborts,
					WastedValidate: pb.wasted,
				})
			}
			<-cs.tokens
		}
	}
}
