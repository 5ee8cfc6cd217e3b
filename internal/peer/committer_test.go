package peer

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/policy"
	"fabricsim/internal/simtest"
	"fabricsim/internal/trace"
	"fabricsim/internal/transport"
	"fabricsim/internal/types"
)

// pipelined returns the model tweak enabling the dependency-parallel,
// depth-pipelined committer.
func pipelined(pool, depth int) func(*costmodel.Model) {
	return func(m *costmodel.Model) {
		m.CommitterPool = pool
		m.CommitDepth = depth
	}
}

// proposalOn is proposal with an explicit channel.
func (e *env) proposalOn(channel, fn string, args ...string) *types.Proposal {
	prop := e.proposal(fn, args...)
	prop.ChannelID = channel
	return prop
}

// stripEndorsements returns a copy of the transaction with no
// endorsements, so VSCC rejects it with ENDORSEMENT_POLICY_FAILURE.
func stripEndorsements(tx *types.Transaction) *types.Transaction {
	cp := *tx
	cp.Endorsements = nil
	return &cp
}

// TestMVCCCostNotChargedForVSCCRejected is the cost-accounting
// regression for the validate phase: a block whose transactions all
// failed VSCC must be billed only the VSCC cost plus the block-commit
// overhead — Fabric never runs the MVCC check on VSCC-rejected
// transactions — while a same-sized all-valid block additionally pays
// MVCC + state-write per transaction. The simulated CPU's busy ledger
// is exact arithmetic, so the modeled costs are asserted directly.
func TestMVCCCostNotChargedForVSCCRejected(t *testing.T) {
	e := newEnv(t, 1, policy.MustParse("OR('Org1.peer0')"), false)
	model := costmodel.Default(0.01)
	scaled := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * model.TimeScale)
	}
	const n = 4

	var invalid, valid []*types.Transaction
	for i := 0; i < n; i++ {
		invalid = append(invalid, stripEndorsements(e.buildTx(e.proposal("write", "bad"+string(rune('0'+i)), "v"), 0)))
		valid = append(valid, e.buildTx(e.proposal("write", "good"+string(rune('0'+i)), "v"), 0))
	}
	cpu := e.cpus[0]

	busyBefore := cpu.Stats().BusyScaled
	block := e.deliver(0, invalid...)
	for _, code := range block.Metadata.ValidationFlags {
		if code != types.ValidationEndorsementPolicyFailure {
			t.Fatalf("flag = %s, want ENDORSEMENT_POLICY_FAILURE", code)
		}
	}
	invalidBusy := cpu.Stats().BusyScaled - busyBefore
	wantInvalid := scaled(n*model.VSCCCost(0)) + scaled(model.BlockCommitCPU)

	busyBefore = cpu.Stats().BusyScaled
	block = e.deliver(0, valid...)
	for _, code := range block.Metadata.ValidationFlags {
		if code != types.ValidationValid {
			t.Fatalf("flag = %s, want VALID", code)
		}
	}
	validBusy := cpu.Stats().BusyScaled - busyBefore
	wantValid := scaled(n*model.VSCCCost(1)) + scaled(n*(model.MVCCPerTxCPU+model.CommitPerTxCPU)) + scaled(model.BlockCommitCPU)

	// Tolerance covers per-reservation scaling rounding (ns each), far
	// below the n*MVCCPerTxCPU the old accounting mischarged.
	const tol = 2 * time.Microsecond
	if diff := invalidBusy - wantInvalid; diff < -tol || diff > tol {
		t.Errorf("all-invalid block billed %s, want %s (MVCC must not be charged after VSCC rejection)", invalidBusy, wantInvalid)
	}
	if diff := validBusy - wantValid; diff < -tol || diff > tol {
		t.Errorf("all-valid block billed %s, want %s", validBusy, wantValid)
	}
	if validBusy-invalidBusy < scaled(n*(model.MVCCPerTxCPU+model.CommitPerTxCPU))-tol {
		t.Errorf("valid-vs-invalid delta %s too small, want ≥ %s",
			validBusy-invalidBusy, scaled(n*(model.MVCCPerTxCPU+model.CommitPerTxCPU)))
	}
}

func TestEmptyBlockCommits(t *testing.T) {
	e := newEnvModel(t, 1, policy.MustParse("OR('Org1.peer0')"), false, pipelined(4, 2))
	block := e.deliver(0) // no transactions
	if len(block.Metadata.ValidationFlags) != 0 {
		t.Errorf("flags = %v, want none", block.Metadata.ValidationFlags)
	}
	l := e.peers[0].Ledger()
	if l.Height() != 2 {
		t.Errorf("height = %d, want 2", l.Height())
	}
	if err := l.VerifyChain(); err != nil {
		t.Error(err)
	}
}

func TestAllInvalidBlockAdvancesStateHeight(t *testing.T) {
	e := newEnvModel(t, 1, policy.MustParse("OR('Org1.peer0')"), false, pipelined(4, 2))
	tx := stripEndorsements(e.buildTx(e.proposal("write", "k", "v"), 0))
	block := e.deliver(0, tx)
	if code := block.Metadata.ValidationFlags[0]; code != types.ValidationEndorsementPolicyFailure {
		t.Fatalf("flag = %s", code)
	}
	l := e.peers[0].Ledger()
	// Fabric advances the ledger (and state DB) height even when no
	// transaction in the block was valid.
	if got, want := l.State().Height(), (types.Version{BlockNum: 1, TxNum: 1}); got != want {
		t.Errorf("state height = %v, want %v", got, want)
	}
	if _, ok, _ := l.State().Get("bench", "k"); ok {
		t.Error("invalid tx's write applied")
	}
	// The chain must keep extending normally afterwards.
	b2 := e.deliver(0, e.buildTx(e.proposal("write", "k2", "v"), 0))
	if code := b2.Metadata.ValidationFlags[0]; code != types.ValidationValid {
		t.Errorf("follow-up flag = %s", code)
	}
	if err := l.VerifyChain(); err != nil {
		t.Error(err)
	}
}

// TestDuplicateTxIDAcrossPipelinedBlocks delivers two chained blocks
// carrying the same transaction back-to-back, so with depth 4 the
// second block's VSCC runs while the first is still committing: the
// apply stage's in-order duplicate scan must still flag the replay.
func TestDuplicateTxIDAcrossPipelinedBlocks(t *testing.T) {
	e := newEnvModel(t, 1, policy.MustParse("OR('Org1.peer0')"), false, pipelined(4, 4))
	p := e.peers[0]
	tx := e.buildTx(e.proposal("write", "dup", "v"), 0)
	b1 := types.NewBlock(1, p.Ledger().LastHash(), [][]byte{tx.Marshal()})
	b2 := types.NewBlock(2, b1.Header.Hash(), [][]byte{tx.Marshal()})
	for _, b := range []*types.Block{b1, b2} {
		e.inject(0, b)
	}
	if !simtest.Until(5*time.Second, func() bool { return p.Ledger().Height() == 3 }) {
		t.Fatalf("height = %d, want 3", p.Ledger().Height())
	}
	c1, _ := p.Ledger().GetBlock(1)
	c2, _ := p.Ledger().GetBlock(2)
	if code := c1.Metadata.ValidationFlags[0]; code != types.ValidationValid {
		t.Errorf("block 1 flag = %s, want VALID", code)
	}
	if code := c2.Metadata.ValidationFlags[0]; code != types.ValidationDuplicateTxID {
		t.Errorf("block 2 flag = %s, want DUPLICATE_TXID", code)
	}
}

// TestConcurrentChannelCommitPipelines drives two channels' pipelined
// committers at once (run under -race in CI): per-channel chains must
// stay intact and the shared key written on both channels must commit
// independently, since channels have disjoint state DBs.
func TestConcurrentChannelCommitPipelines(t *testing.T) {
	channels := []string{"chA", "chB"}
	e := newEnvChannels(t, 1, policy.MustParse("OR('Org1.peer0')"), false, pipelined(4, 4), channels)
	p := e.peers[0]

	const blocksPerChannel = 3
	byChannel := make(map[string][]*types.Block, len(channels))
	for _, ch := range channels {
		l, ok := p.LedgerFor(ch)
		if !ok {
			t.Fatalf("peer missing channel %s", ch)
		}
		prev := l.LastHash()
		for n := 0; n < blocksPerChannel; n++ {
			txs := [][]byte{
				e.buildTx(e.proposalOn(ch, "write", "hot", ch), 0).Marshal(),
				e.buildTx(e.proposalOn(ch, "write", "k"+string(rune('0'+n)), "v"), 0).Marshal(),
			}
			b := types.NewBlock(uint64(n+1), prev, txs)
			b.Metadata.ChannelID = ch
			byChannel[ch] = append(byChannel[ch], b)
			prev = b.Header.Hash()
		}
	}

	var wg sync.WaitGroup
	for _, ch := range channels {
		wg.Add(1)
		go func(blocks []*types.Block) {
			defer wg.Done()
			for _, b := range blocks {
				if _, err := p.IngestBlock(b); err != nil {
					t.Error(err)
					return
				}
			}
		}(byChannel[ch])
	}
	wg.Wait()

	simtest.Until(5*time.Second, func() bool {
		for _, ch := range channels {
			if l, _ := p.LedgerFor(ch); l.Height() != blocksPerChannel+1 {
				return false
			}
		}
		return true
	})
	for _, ch := range channels {
		l, _ := p.LedgerFor(ch)
		if l.Height() != blocksPerChannel+1 {
			t.Fatalf("channel %s height = %d, want %d", ch, l.Height(), blocksPerChannel+1)
		}
		if err := l.VerifyChain(); err != nil {
			t.Errorf("channel %s: %v", ch, err)
		}
		vv, ok, _ := l.State().Get("bench", "hot")
		if !ok || string(vv.Value) != ch {
			t.Errorf("channel %s hot = %q ok=%v, want channel-local write %q", ch, vv.Value, ok, ch)
		}
	}
}

// TestPipelinedCommitMatchesSerialOutcome commits the same conflicting
// block under the serial committer and the widest pipeline: validation
// flags and final state must be identical, because conflict groups
// preserve block order exactly where order matters.
func TestPipelinedCommitMatchesSerialOutcome(t *testing.T) {
	build := func(e *env) []*types.Transaction {
		// Two read-modify-write txs on one hot key (second must lose),
		// plus independent writers that may fan out.
		return []*types.Transaction{
			e.buildTx(e.proposal("readwrite", "hot", "v1"), 0),
			e.buildTx(e.proposal("readwrite", "hot", "v2"), 0),
			e.buildTx(e.proposal("write", "x", "1"), 0),
			e.buildTx(e.proposal("write", "y", "2"), 0),
		}
	}
	var serialFlags, pipeFlags []types.ValidationCode
	var serialState, pipeState string
	{
		e := newEnv(t, 1, policy.MustParse("OR('Org1.peer0')"), false)
		b := e.deliver(0, build(e)...)
		serialFlags = b.Metadata.ValidationFlags
		serialState = e.peers[0].Ledger().State().DumpString()
	}
	{
		e := newEnvModel(t, 1, policy.MustParse("OR('Org1.peer0')"), false, pipelined(8, 4))
		b := e.deliver(0, build(e)...)
		pipeFlags = b.Metadata.ValidationFlags
		pipeState = e.peers[0].Ledger().State().DumpString()
	}
	if len(serialFlags) != len(pipeFlags) {
		t.Fatalf("flag counts differ: %d vs %d", len(serialFlags), len(pipeFlags))
	}
	for i := range serialFlags {
		if serialFlags[i] != pipeFlags[i] {
			t.Errorf("tx %d: serial=%s pipelined=%s", i, serialFlags[i], pipeFlags[i])
		}
	}
	if want := types.ValidationMVCCConflict; pipeFlags[1] != want {
		t.Errorf("tx 1 flag = %s, want %s", pipeFlags[1], want)
	}
	if serialState != pipeState {
		t.Errorf("states diverge:\nserial:\n%s\npipelined:\n%s", serialState, pipeState)
	}
}

// spanCheckEndpoint is a recorder peer's endpoint that, on each commit
// event it sends, checks that the tracer already holds the commit-stage
// spans of every transaction in the batch. Every transaction it sees is
// traced under its own TxID.
type spanCheckEndpoint struct {
	transport.Endpoint
	t       testing.TB
	tr      *trace.Tracer
	checked atomic.Int32
}

func (e *spanCheckEndpoint) Send(to, kind string, payload any, size int) error {
	if kind == KindCommitEvent {
		for _, ev := range payload.([]CommitEvent) {
			have := map[string]bool{}
			for _, sp := range e.tr.Spans(trace.TraceID(ev.TxID)) {
				have[sp.Name] = true
			}
			for _, name := range []string{trace.SpanCommitVSCC, trace.SpanCommitApply, trace.SpanCommitAppend} {
				if !have[name] {
					e.t.Errorf("commit event for %s sent before its %s span was recorded", ev.TxID, name)
				}
			}
			e.checked.Add(1)
		}
	}
	return e.Endpoint.Send(to, kind, payload, size)
}

// TestCommitSpansPrecedeCommitEvents: the recorder peer records a
// block's commit-stage spans before it sends the block's commit events,
// so a client that returns on its event finds them in the trace.
func TestCommitSpansPrecedeCommitEvents(t *testing.T) {
	tr := trace.New(0)
	var ep *spanCheckEndpoint
	e := newEnvFull(t, 1, policy.MustParse("OR('Org1.peer0')"), false, nil, nil, func(cfg *Config) {
		cfg.Tracer, cfg.Recorder = tr, true
		ep = &spanCheckEndpoint{Endpoint: cfg.Endpoint, t: t, tr: tr}
		cfg.Endpoint = ep
	})
	if _, err := e.sender.Call(context.Background(), peerID(1), KindSubscribeEvents, nil, 8); err != nil {
		t.Fatal(err)
	}
	var txs []*types.Transaction
	for _, key := range []string{"a", "b"} {
		prop := e.proposal("write", key, "v")
		prop.TraceID = string(prop.TxID)
		txs = append(txs, e.buildTx(prop, 0))
	}
	e.deliver(0, txs...)
	if !simtest.Until(5*time.Second, func() bool { return int(ep.checked.Load()) == len(txs) }) {
		t.Fatalf("%d of %d commit events sent", ep.checked.Load(), len(txs))
	}
}
