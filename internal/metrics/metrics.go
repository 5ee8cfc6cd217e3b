// Package metrics collects per-transaction phase timestamps and per-
// block events, and reduces them into the paper's three metrics
// (Definitions 4.1-4.3): throughput, latency, and block time — overall
// and per phase (execute / order / validate).
//
// All raw timestamps are wall-clock; summaries convert durations back
// into model time through the cost model's TimeScale so reported numbers
// are comparable with the paper regardless of how compressed a run was.
package metrics

import (
	"sort"
	"sync"
	"time"

	"fabricsim/internal/types"
)

// TxRecord carries one transaction's phase timestamps.
type TxRecord struct {
	ID types.TxID
	// Submitted is when the client created the proposal (arrival).
	Submitted time.Time
	// Endorsed is when the client finished collecting endorsements —
	// the end of the execute phase.
	Endorsed time.Time
	// Broadcast is when the ordering service accepted the envelope.
	Broadcast time.Time
	// Ordered is when the block containing the transaction was cut —
	// the end of the order phase.
	Ordered time.Time
	// Committed is when the observing peer committed the block — the
	// end of the validate phase.
	Committed time.Time
	// Code is the final validation outcome.
	Code types.ValidationCode
	// Rejected marks client-side rejection (endorsement failure or the
	// paper's 3-second ordering timeout).
	Rejected bool
	// Attempt is the 1-based gateway retry attempt that produced this
	// record (each attempt re-proposes under a fresh TxID, so a retried
	// logical transaction leaves one record per attempt). Records with
	// Attempt > 1 are final-or-intermediate retry attempts; their
	// Submitted→Committed span excludes the client's backoff sleeps,
	// unlike the whole-invoke latency the client observes.
	Attempt int
}

// BlockEvent is one block cut by the ordering service. Channel
// disambiguates block numbers in multi-channel networks, where each
// channel numbers its chain independently.
type BlockEvent struct {
	Number  uint64
	Channel string
	CutAt   time.Time
	Txs     int
}

// CommitStageEvent is one block's validate-phase stage breakdown as
// observed on the reporting peer's commit pipeline: wall durations of
// the VSCC, dependency-analysis + state-apply, and block-store append
// stages, plus the conflict-group count the dependency analyzer found.
type CommitStageEvent struct {
	Number      uint64
	Channel     string
	Txs         int
	Groups      int
	VSCC        time.Duration
	Apply       time.Duration
	Append      time.Duration
	CommittedAt time.Time
	// MVCCAborts counts the block's MVCC_READ_CONFLICT transactions and
	// EarlyAborts its EARLY_ABORT_CONFLICT ones (conflict-aware ordering
	// drops, which never reached validate CPU).
	MVCCAborts  int
	EarlyAborts int
	// WastedValidate is the modeled validate CPU the block spent on
	// transactions that then failed MVCC — work early abort would have
	// saved.
	WastedValidate time.Duration
}

// endorseSample is one successful endorsement round trip as observed by
// a gateway: which peer served it, when, and the wall round-trip time.
type endorseSample struct {
	peer string
	at   time.Time
	rtt  time.Duration
}

// Block dissemination sources: how a peer's gossip layer received a
// block.
const (
	// SourceDeliver is a block an org leader polled from the orderer.
	SourceDeliver = "deliver"
	// SourceGossip is a block pushed by an org member.
	SourceGossip = "gossip"
	// SourceAntiEntropy is a block pulled while closing a height gap.
	SourceAntiEntropy = "antientropy"
)

// gossipSample is one block accepted by a peer's gossip layer: how it
// arrived (one of the Source labels) and the hop count it carried.
type gossipSample struct {
	source string
	hops   int
}

// commitLagSample is one (peer, block) commit: the wall lag from block
// cut to that peer's commit, and when the commit happened (windowing).
type commitLagSample struct {
	at  time.Time
	lag time.Duration
}

// Collector accumulates records; safe for concurrent use. Its recording
// methods are no-ops on a nil receiver, which is how a run with metrics
// disabled calls them.
type Collector struct {
	mu         sync.Mutex
	byTx       map[types.TxID]*TxRecord
	blocks     []BlockEvent
	stages     []CommitStageEvent
	endorses   []endorseSample
	gossips    []gossipSample
	commitLags []commitLagSample
	gossipDups int
	aePulled   int
	elections  int
	snapshots  int
	failovers  int
	start      time.Time

	// live carries the incrementally-maintained counters the sampler and
	// the obs /metrics endpoint read without scanning byTx.
	live liveCounters

	// sampler state (see sampler.go).
	samplerMu   sync.Mutex
	samples     []SamplePoint
	samplerStop chan struct{}
}

// NewCollector creates an empty collector anchored at now.
func NewCollector() *Collector {
	return &Collector{
		byTx:  make(map[types.TxID]*TxRecord),
		start: time.Now(),
	}
}

func (c *Collector) rec(id types.TxID) *TxRecord {
	r, ok := c.byTx[id]
	if !ok {
		r = &TxRecord{ID: id}
		c.byTx[id] = r
	}
	return r
}

// Submitted records proposal creation time.
func (c *Collector) Submitted(id types.TxID, t time.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.rec(id)
	if r.Submitted.IsZero() {
		c.live.Submitted++
		c.live.InFlight++
	}
	r.Submitted = t
}

// Attempt records which 1-based gateway retry attempt this transaction
// ID belongs to.
func (c *Collector) Attempt(id types.TxID, attempt int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rec(id).Attempt = attempt
}

// Endorsed records the end of the execute phase.
func (c *Collector) Endorsed(id types.TxID, t time.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rec(id).Endorsed = t
}

// BroadcastAcked records ordering-service acceptance.
func (c *Collector) BroadcastAcked(id types.TxID, t time.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rec(id).Broadcast = t
}

// Ordered records the cut time of the transaction's block.
func (c *Collector) Ordered(id types.TxID, t time.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rec(id).Ordered = t
}

// Committed records the end of the validate phase.
func (c *Collector) Committed(id types.TxID, t time.Time, code types.ValidationCode) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.rec(id)
	if r.Committed.IsZero() {
		if code.Valid() {
			c.live.Committed++
		} else {
			c.live.Aborted++
		}
		if !r.Submitted.IsZero() && !r.Rejected {
			c.live.InFlight--
		}
	}
	r.Committed = t
	r.Code = code
}

// Rejected marks a client-side rejection.
func (c *Collector) Rejected(id types.TxID) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.rec(id)
	if !r.Rejected {
		c.live.Rejected++
		if !r.Submitted.IsZero() && r.Committed.IsZero() {
			c.live.InFlight--
		}
	}
	r.Rejected = true
}

// Block records one cut block.
func (c *Collector) Block(ev BlockEvent) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.live.Blocks++
	c.blocks = append(c.blocks, ev)
}

// Endorse records one successful endorsement round trip served by the
// named peer (wall-clock rtt; summaries unscale it to model time).
func (c *Collector) Endorse(peer string, rtt time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.endorses = append(c.endorses, endorseSample{peer: peer, at: time.Now(), rtt: rtt})
}

// CommitStage records one committed block's pipeline stage breakdown.
func (c *Collector) CommitStage(ev CommitStageEvent) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stages = append(c.stages, ev)
}

// GossipBlock records one block accepted by a peer's gossip layer with
// its arrival source and gossip hop count.
func (c *Collector) GossipBlock(source string, hops int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gossips = append(c.gossips, gossipSample{source: source, hops: hops})
}

// GossipDuplicate counts one block a gossip node handed its sink that the
// sink already owned or buffered.
func (c *Collector) GossipDuplicate() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gossipDups++
}

// AntiEntropyPull counts n blocks transferred by one anti-entropy pull.
func (c *Collector) AntiEntropyPull(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.aePulled += n
}

// LeaderElection counts one gossip org-leader takeover.
func (c *Collector) LeaderElection() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.elections++
}

// SnapshotBootstrap counts one peer installing another peer's ledger
// snapshot instead of replaying the gap block by block.
func (c *Collector) SnapshotBootstrap() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snapshots++
}

// BroadcastFailover counts one gateway broadcast retried on another
// OSN after a failed attempt.
func (c *Collector) BroadcastFailover() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failovers++
}

// PeerCommit records one peer's commit of one block: the wall-clock lag
// from block cut to this peer's commit. Unlike per-transaction commit
// records (taken on the event peer only), these samples come from every
// peer, so the summary's commit lag captures dissemination stragglers.
func (c *Collector) PeerCommit(lag time.Duration, at time.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.live.lagSum += lag
	c.live.lagCount++
	c.commitLags = append(c.commitLags, commitLagSample{at: at, lag: lag})
}

// CommitStages returns a snapshot copy of the recorded stage events.
func (c *Collector) CommitStages() []CommitStageEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CommitStageEvent, len(c.stages))
	copy(out, c.stages)
	return out
}

// Records returns a snapshot copy of all transaction records.
func (c *Collector) Records() []TxRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TxRecord, 0, len(c.byTx))
	for _, r := range c.byTx {
		out = append(out, *r)
	}
	return out
}

// Blocks returns a snapshot copy of block events, sorted by cut time
// (numbers tie across channels, so cut order is the only total order).
func (c *Collector) Blocks() []BlockEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]BlockEvent, len(c.blocks))
	copy(out, c.blocks)
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CutAt.Equal(out[j].CutAt) {
			return out[i].CutAt.Before(out[j].CutAt)
		}
		return out[i].Number < out[j].Number
	})
	return out
}

// PhaseLatency keys: the lifecycle phases of the critical-path
// decomposition, in order.
const (
	PhaseEndorse  = "endorse"  // submitted -> endorsements collected
	PhaseSubmit   = "submit"   // endorsed -> ordering-service ack
	PhaseOrder    = "order"    // ack -> block cut
	PhaseValidate = "validate" // block cut -> commit
)

// PhaseOrdering lists the PhaseLatency keys in lifecycle order, for
// stable table rendering.
func PhaseOrdering() []string {
	return []string{PhaseEndorse, PhaseSubmit, PhaseOrder, PhaseValidate}
}

// LatencyStats summarizes a latency distribution in model time.
type LatencyStats struct {
	Count int
	Avg   time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Summary is the reduction of one experiment run.
type Summary struct {
	// Offered is the number of transactions submitted inside the
	// measurement window.
	Offered int
	// Committed is the number of valid committed transactions.
	Committed int
	// Invalid counts committed-but-invalid transactions.
	Invalid int
	// RejectedCount counts client-side rejections (timeouts included).
	RejectedCount int

	// Model-time throughput in transactions per second per phase
	// (Definition 4.1 applied at each phase boundary).
	ExecuteTPS  float64
	OrderTPS    float64
	ValidateTPS float64

	// End-to-end and per-phase latency (Definition 4.2).
	TotalLatency         LatencyStats
	ExecuteLatency       LatencyStats
	OrderLatency         LatencyStats // broadcast -> block cut
	ValidateLatency      LatencyStats // block cut -> commit
	OrderValidateLatency LatencyStats // endorsed -> commit (paper's "order & validate")

	// PhaseLatency is the critical-path decomposition over the in-window
	// committed cohort, keyed by lifecycle phase: "endorse" (submitted →
	// endorsed), "submit" (endorsed → broadcast ack), "order" (broadcast
	// → block cut), "validate" (block cut → commit). The four phases
	// partition each transaction's end-to-end latency, so their per-tx
	// sums reconstruct TotalLatency. Benches print this as the
	// latency-breakdown table (p50/p99 per stage).
	PhaseLatency map[string]LatencyStats

	// RetriedTxs counts in-window committed-valid transactions that were
	// gateway retry attempts (attempt > 1), and FinalAttemptLatency is
	// their submitted→committed distribution — the last attempt only,
	// excluding every earlier attempt and backoff sleep. Comparing it
	// with TotalLatency shows how much retry backoff skews the tail.
	RetriedTxs          int
	FinalAttemptLatency LatencyStats

	// BlockTime is the mean inter-block interval (Definition 4.3) and
	// BlockTPS the ordering-service throughput derived from it.
	BlockTime    time.Duration
	BlockTPS     float64
	Blocks       int
	AvgBlockSize float64

	// Per-stage validate-phase breakdown on the observing peer, one
	// sample per committed block: VSCC, dependency analysis + state
	// apply, and block-store append (model time).
	VSCCStage   LatencyStats
	ApplyStage  LatencyStats
	AppendStage LatencyStats
	// AvgConflictGroups is the mean conflict-group count per in-window
	// block (≈ block size on a no-contention workload, 1 when every
	// transaction chains on the same keys).
	AvgConflictGroups float64
	// MVCCAborts and EarlyAborts total the in-window blocks' conflict
	// aborts: transactions invalidated by a stale read set at validate
	// time, and transactions the conflict-aware orderer dropped before
	// validation, respectively.
	MVCCAborts  int
	EarlyAborts int
	// AbortRate is (MVCCAborts + EarlyAborts) / in-window block
	// transactions — the fraction of ordered load lost to conflicts.
	AbortRate float64
	// WastedValidateCPU totals the modeled validate CPU spent on
	// transactions that then failed MVCC (model time): the work
	// conflict-aware early abort exists to eliminate.
	WastedValidateCPU time.Duration

	// Endorsements counts in-window endorsement round trips and
	// EndorseLatency summarizes their distribution (model time): the
	// per-call service view of the execute phase, one sample per
	// (transaction, endorsing peer) pair.
	Endorsements   int
	EndorseLatency LatencyStats
	// EndorsesPerPeer breaks the in-window endorsement count down by
	// serving peer, and EndorseSkew is the max/mean ratio of those
	// counts (1.0 = perfectly balanced across the replicas that served
	// at least one endorsement).
	EndorsesPerPeer map[string]int
	EndorseSkew     float64

	// Gossip-dissemination breakdown (whole run, not windowed):
	// GossipBlocks counts blocks peers accepted via push gossip,
	// DeliverBlocks via an org leader's orderer deliver poll,
	// AntiEntropyBlocks via ranged pulls from peers. MeanGossipHops
	// averages the hop counts of gossip-accepted blocks;
	// GossipDuplicates counts blocks the sink already owned or buffered,
	// whatever their source; and LeaderElections
	// counts org-leader takeovers after a lapsed lease (the claims every
	// org makes at start are not counted).
	GossipBlocks      int
	DeliverBlocks     int
	AntiEntropyBlocks int
	MeanGossipHops    float64
	GossipDuplicates  int
	LeaderElections   int
	// SnapshotBootstraps counts peers that installed another peer's
	// ledger snapshot (snapshot-then-tail repair) instead of replaying
	// their whole gap block by block.
	SnapshotBootstraps int
	// BroadcastFailovers counts gateway broadcasts that had to retry on
	// another OSN after their first pick failed (one count per extra
	// attempt, not per transaction).
	BroadcastFailovers int

	// CommitLag is the block-cut -> per-peer-commit distribution over
	// every (peer, block) pair committed inside the window (model time):
	// the cluster-wide dissemination + validation tail, where a lagging
	// gossip path shows up even though the event peer stays fast.
	CommitLag LatencyStats
}

// trimFraction is the share of the submission interval Summarize drops
// at each end (warmup and drain) when computing throughput.
const trimFraction = 0.15

// SummaryOptions controls the reduction.
type SummaryOptions struct {
	// TimeScale is the cost model's scale; durations are divided by it.
	TimeScale float64
	// RejectLatency is the model-time latency charged to rejected
	// transactions (the paper's 3s ordering timeout); zero excludes
	// rejected transactions from latency statistics.
	RejectLatency time.Duration
	// WindowStart/WindowEnd, when both set, replace the trim-based
	// steady-state window with an explicit wall-clock interval. The
	// chaos soak uses this to attribute throughput and commit lag to
	// individual fault windows.
	WindowStart, WindowEnd time.Time
}

// Summarize reduces the collected records.
func (c *Collector) Summarize(opts SummaryOptions) Summary {
	if opts.TimeScale <= 0 {
		opts.TimeScale = 1
	}
	recs := c.Records()
	blocks := c.Blocks()

	var s Summary
	if len(recs) == 0 {
		return s
	}

	// Measurement window: trim the first and last fraction of the
	// submission interval to measure steady state.
	var first, last time.Time
	for _, r := range recs {
		if r.Submitted.IsZero() {
			continue
		}
		if first.IsZero() || r.Submitted.Before(first) {
			first = r.Submitted
		}
		if r.Submitted.After(last) {
			last = r.Submitted
		}
	}
	span := last.Sub(first)
	wStart := first.Add(time.Duration(float64(span) * trimFraction))
	wEnd := last.Add(-time.Duration(float64(span) * trimFraction))
	window := wEnd.Sub(wStart)
	if window <= 0 {
		window = span
		wStart, wEnd = first, last
	}
	if !opts.WindowStart.IsZero() && !opts.WindowEnd.IsZero() && opts.WindowEnd.After(opts.WindowStart) {
		wStart, wEnd = opts.WindowStart, opts.WindowEnd
		window = wEnd.Sub(wStart)
	}
	modelWindow := time.Duration(float64(window) / opts.TimeScale)
	if modelWindow <= 0 {
		modelWindow = time.Nanosecond
	}

	// Negative spans can appear when a reply outraces an ack under
	// heavy load; clamp to zero rather than pollute averages.
	unscale := func(d time.Duration) time.Duration {
		if d < 0 {
			return 0
		}
		return time.Duration(float64(d) / opts.TimeScale)
	}

	// Phase throughputs count phase-completion events whose own
	// timestamp falls inside the window (Definition 4.1: the rate at
	// which transactions are committed), so a saturated pipeline reads
	// its service capacity even while backlog is still building.
	// Latency statistics use the cohort of transactions submitted
	// inside the window (Definition 4.2).
	inWin := func(t time.Time) bool {
		return !t.IsZero() && !t.Before(wStart) && !t.After(wEnd)
	}
	var totalLat, execLat, orderLat, valLat, ovLat []time.Duration
	var submitLat, finalLat []time.Duration
	var endorsedIn, orderedIn, committedIn int
	for _, r := range recs {
		submittedIn := inWin(r.Submitted)
		if submittedIn {
			s.Offered++
		}
		if r.Rejected {
			s.RejectedCount++
			if opts.RejectLatency > 0 && submittedIn {
				totalLat = append(totalLat, opts.RejectLatency)
			}
		}
		if inWin(r.Endorsed) {
			endorsedIn++
		}
		if inWin(r.Ordered) {
			orderedIn++
		}
		if inWin(r.Committed) {
			if r.Code.Valid() {
				committedIn++
			} else {
				s.Invalid++
			}
		}
		if !submittedIn {
			continue
		}
		if !r.Endorsed.IsZero() {
			execLat = append(execLat, unscale(r.Endorsed.Sub(r.Submitted)))
		}
		if !r.Ordered.IsZero() {
			ref := r.Broadcast
			if ref.IsZero() {
				ref = r.Endorsed
			}
			if !ref.IsZero() {
				orderLat = append(orderLat, unscale(r.Ordered.Sub(ref)))
			}
		}
		if !r.Endorsed.IsZero() && !r.Broadcast.IsZero() {
			submitLat = append(submitLat, unscale(r.Broadcast.Sub(r.Endorsed)))
		}
		if !r.Committed.IsZero() {
			totalLat = append(totalLat, unscale(r.Committed.Sub(r.Submitted)))
			if r.Code.Valid() && r.Attempt > 1 {
				s.RetriedTxs++
				finalLat = append(finalLat, unscale(r.Committed.Sub(r.Submitted)))
			}
			if !r.Ordered.IsZero() {
				valLat = append(valLat, unscale(r.Committed.Sub(r.Ordered)))
			}
			if !r.Endorsed.IsZero() {
				ovLat = append(ovLat, unscale(r.Committed.Sub(r.Endorsed)))
			}
		}
	}
	s.Committed = committedIn
	s.ExecuteTPS = float64(endorsedIn) / modelWindow.Seconds()
	s.OrderTPS = float64(orderedIn) / modelWindow.Seconds()
	s.ValidateTPS = float64(committedIn) / modelWindow.Seconds()

	s.TotalLatency = reduceLatency(totalLat)
	s.ExecuteLatency = reduceLatency(execLat)
	s.OrderLatency = reduceLatency(orderLat)
	s.ValidateLatency = reduceLatency(valLat)
	s.OrderValidateLatency = reduceLatency(ovLat)
	s.FinalAttemptLatency = reduceLatency(finalLat)
	s.PhaseLatency = map[string]LatencyStats{
		PhaseEndorse:  s.ExecuteLatency,
		PhaseSubmit:   reduceLatency(submitLat),
		PhaseOrder:    s.OrderLatency,
		PhaseValidate: s.ValidateLatency,
	}

	// Block time over blocks cut inside the window.
	var inWindowBlocks []BlockEvent
	totalTxs := 0
	for _, b := range blocks {
		if !b.CutAt.Before(wStart) && !b.CutAt.After(wEnd) {
			inWindowBlocks = append(inWindowBlocks, b)
			totalTxs += b.Txs
		}
	}
	s.Blocks = len(inWindowBlocks)
	if len(inWindowBlocks) >= 2 {
		span := inWindowBlocks[len(inWindowBlocks)-1].CutAt.Sub(inWindowBlocks[0].CutAt)
		s.BlockTime = unscale(span / time.Duration(len(inWindowBlocks)-1))
		s.AvgBlockSize = float64(totalTxs) / float64(len(inWindowBlocks))
		// n in-window blocks span only n-1 inter-block intervals: the
		// first block's transactions predate the measured span, so they
		// are excluded or short windows would inflate block TPS by
		// roughly n/(n-1) (more when the first block is outsized).
		if modelSpan := unscale(span); modelSpan > 0 {
			s.BlockTPS = float64(totalTxs-inWindowBlocks[0].Txs) / modelSpan.Seconds()
		}
	}

	// Per-stage commit breakdown over blocks committed inside the window.
	var vsccSt, applySt, appendSt []time.Duration
	groupsTotal, stageTxs := 0, 0
	for _, ev := range c.CommitStages() {
		if !inWin(ev.CommittedAt) {
			continue
		}
		vsccSt = append(vsccSt, unscale(ev.VSCC))
		applySt = append(applySt, unscale(ev.Apply))
		appendSt = append(appendSt, unscale(ev.Append))
		groupsTotal += ev.Groups
		stageTxs += ev.Txs
		s.MVCCAborts += ev.MVCCAborts
		s.EarlyAborts += ev.EarlyAborts
		s.WastedValidateCPU += unscale(ev.WastedValidate)
	}
	s.VSCCStage = reduceLatency(vsccSt)
	s.ApplyStage = reduceLatency(applySt)
	s.AppendStage = reduceLatency(appendSt)
	if len(vsccSt) > 0 {
		s.AvgConflictGroups = float64(groupsTotal) / float64(len(vsccSt))
	}
	if stageTxs > 0 {
		s.AbortRate = float64(s.MVCCAborts+s.EarlyAborts) / float64(stageTxs)
	}

	// Gossip-dissemination breakdown and cluster-wide commit lag.
	c.mu.Lock()
	gossips := make([]gossipSample, len(c.gossips))
	copy(gossips, c.gossips)
	commitLags := make([]commitLagSample, len(c.commitLags))
	copy(commitLags, c.commitLags)
	s.GossipDuplicates = c.gossipDups
	s.AntiEntropyBlocks = c.aePulled
	s.LeaderElections = c.elections
	s.SnapshotBootstraps = c.snapshots
	s.BroadcastFailovers = c.failovers
	c.mu.Unlock()
	hopTotal := 0
	for _, g := range gossips {
		switch g.source {
		case SourceGossip:
			s.GossipBlocks++
			hopTotal += g.hops
		case SourceDeliver:
			s.DeliverBlocks++
		}
	}
	if s.GossipBlocks > 0 {
		s.MeanGossipHops = float64(hopTotal) / float64(s.GossipBlocks)
	}
	var lagSamples []time.Duration
	for _, cl := range commitLags {
		if inWin(cl.at) {
			lagSamples = append(lagSamples, unscale(cl.lag))
		}
	}
	s.CommitLag = reduceLatency(lagSamples)

	// Per-peer endorsement breakdown over in-window round trips.
	c.mu.Lock()
	endorses := make([]endorseSample, len(c.endorses))
	copy(endorses, c.endorses)
	c.mu.Unlock()
	var endorseLat []time.Duration
	perPeer := make(map[string]int)
	for _, e := range endorses {
		if !inWin(e.at) {
			continue
		}
		endorseLat = append(endorseLat, unscale(e.rtt))
		perPeer[e.peer]++
	}
	s.Endorsements = len(endorseLat)
	s.EndorseLatency = reduceLatency(endorseLat)
	if len(perPeer) > 0 {
		s.EndorsesPerPeer = perPeer
		maxCount, total := 0, 0
		for _, n := range perPeer {
			total += n
			if n > maxCount {
				maxCount = n
			}
		}
		mean := float64(total) / float64(len(perPeer))
		if mean > 0 {
			s.EndorseSkew = float64(maxCount) / mean
		}
	}
	return s
}

func reduceLatency(lats []time.Duration) LatencyStats {
	if len(lats) == 0 {
		return LatencyStats{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	idx := func(q float64) time.Duration {
		i := int(q * float64(len(lats)-1))
		return lats[i]
	}
	return LatencyStats{
		Count: len(lats),
		Avg:   sum / time.Duration(len(lats)),
		P50:   idx(0.50),
		P95:   idx(0.95),
		P99:   idx(0.99),
		Max:   lats[len(lats)-1],
	}
}
