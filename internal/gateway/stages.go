package gateway

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"fabricsim/internal/orderer"
	"fabricsim/internal/peer"
	"fabricsim/internal/policy"
	"fabricsim/internal/simcpu"
	"fabricsim/internal/trace"
	"fabricsim/internal/types"
)

// Status is the final outcome of one transaction.
type Status struct {
	// TxID identifies the transaction.
	TxID types.TxID
	// Code is the validation code the committing peer assigned.
	Code types.ValidationCode
	// BlockNum is the block the transaction committed in.
	BlockNum uint64
	// Committed reports whether the transaction committed as valid.
	Committed bool
	// Payload is the chaincode response payload from endorsement.
	Payload []byte
}

// Proposal is a signed transaction proposal: the output of the Propose
// stage and the input of the Endorse stage.
type Proposal struct {
	gw        *Gateway
	prop      types.Proposal
	sig       []byte
	channel   string
	targets   []endorseTarget
	submitted time.Time
	// attempt and boundary carry the retry-attempt number and the end of
	// the propose phase into the endorse span.
	attempt  int
	boundary time.Time

	// The proposal's own buffers: its nonce, its endorsement request,
	// and the target and response arrays of a one-target endorsement, so
	// none of them is a separate allocation.
	nonce    [maxNonce]byte
	req      peer.EndorseRequest
	target   [1]endorseTarget
	response [1]*types.ProposalResponse
}

// TxID returns the proposal's transaction ID.
func (p *Proposal) TxID() types.TxID { return p.prop.TxID }

// Channel returns the channel the proposal targets.
func (p *Proposal) Channel() string { return p.channel }

// Transaction is an endorsed transaction envelope: the output of the
// Endorse stage and the input of the Submit stage.
type Transaction struct {
	gw        *Gateway
	prop      *types.Proposal
	channel   string
	env       []byte
	payload   []byte
	submitted time.Time
	attempt   int
	boundary  time.Time // end of the endorse phase
}

// Payload returns the chaincode response payload from endorsement.
func (t *Transaction) Payload() []byte { return t.payload }

// Commit is a future for one submitted transaction's final outcome. It
// resolves when the commit event arrives, when the ordering timeout
// fires, or — for SubmitAsync — when an earlier stage fails.
//
// A Commit is also the pending record of the attempt in flight: the
// commit event and the ordering timeout find it in the gateway's pending
// map. SubmitAsync's and Invoke's Commit is the record of every attempt
// of its transaction, and what settles one attempt starts the next.
type Commit struct {
	gw *Gateway

	mu      sync.Mutex
	txID    types.TxID
	payload []byte

	// traceID/ackedAt anchor the commit-wait span (broadcast ack →
	// commit event) when tracing is on.
	traceID trace.TraceID
	ackedAt time.Time
	attempt int

	// Guarded by the gateway's mu. gen numbers the commit's attempts, so
	// an expiry queued for an earlier attempt is told from the current
	// one's. claimed is set by whichever of the commit event, the
	// ordering timeout and a failed broadcast takes the attempt out of
	// the pending map first; only that one settles it. acked is set once
	// the broadcast ack is recorded, and early keeps an event that was
	// claimed before that.
	gen     uint64
	claimed bool
	acked   bool
	early   *peer.CommitEvent

	// loop is the attempt loop's state when start owns the commit, and
	// zero (a nil ctx) when Transaction.Submit made it.
	loop submission

	// The attempt's broadcast payload and the outcome it resolves to,
	// held here so neither is a separate allocation.
	benv orderer.BroadcastEnvelope
	st   Status

	done   chan struct{}
	status *Status
	err    error
}

func newCommit(g *Gateway) *Commit {
	return &Commit{gw: g, done: make(chan struct{})}
}

// TxID returns the transaction ID, or "" while a SubmitAsync submission
// has not yet built its proposal.
func (c *Commit) TxID() types.TxID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.txID
}

func (c *Commit) setTxID(id types.TxID) {
	c.mu.Lock()
	c.txID = id
	c.mu.Unlock()
}

// complete resolves the future exactly once, then frees the window slot
// a SubmitAsync commit holds.
func (c *Commit) complete(st *Status, err error) {
	c.mu.Lock()
	c.status, c.err = st, err
	c.mu.Unlock()
	close(c.done)
	if c.loop.window != nil {
		<-c.loop.window
	}
}

// Status blocks until the future resolves or ctx expires, and returns
// the transaction's final outcome. After resolution it returns the same
// result on every call; ctx expiry does not consume the future.
func (c *Commit) Status(ctx context.Context) (*Status, error) {
	select {
	case <-c.done:
		return c.status, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Propose runs the Propose stage on one channel ("" = the default
// channel): it charges the client CPU cost for the transaction, builds
// the proposal, and signs it. The gateway's endorsement policy selects
// the endorsement targets.
func (g *Gateway) Propose(ctx context.Context, channel, chaincodeID, fn string, args [][]byte) (*Proposal, error) {
	return g.propose(ctx, channel, nil, chaincodeID, fn, args, nil, false)
}

// propose is the shared Propose stage. An empty channel means the
// default channel and a nil pol the gateway's policy. sub carries the
// submission's trace and attempt number across retries; nil (a
// single-shot call) mints a fresh trace as attempt 1. query trims the
// endorsement to a single target and keeps the transaction out of the
// collector (an evaluate call never orders or commits).
func (g *Gateway) propose(ctx context.Context, channel string, pol policy.Policy, chaincodeID, fn string, args [][]byte, sub *submissionTrace, query bool) (*Proposal, error) {
	if channel == "" {
		channel = g.cfg.ChannelID
	}
	if pol == nil {
		pol = g.cfg.Policy
	}
	if err := g.Connect(ctx); err != nil {
		return nil, err
	}
	p := &Proposal{gw: g, channel: channel, submitted: time.Now(), attempt: 1}
	targets, err := g.selectTargets(pol, p.target[:0])
	if err != nil {
		return nil, err
	}
	if query {
		targets = targets[:1]
	}
	p.targets = targets
	// The whole per-transaction client CPU cost (proposal build/sign
	// plus verification of each expected endorsement response) is
	// charged as a single reservation: splitting it across the response
	// path would let a saturated client starve response processing
	// behind the proposal backlog, which a fair event loop does not do.
	if err := g.cfg.CPU.Execute(ctx, g.cfg.Model.ClientTxCost(len(targets))); err != nil {
		return nil, err
	}
	if err := g.buildProposal(p, chaincodeID, fn, args); err != nil {
		return nil, err
	}
	if sub != nil {
		p.attempt = sub.attempt
	}
	prop := &p.prop
	if !query {
		g.cfg.Collector.Submitted(prop.TxID, p.submitted)
		g.cfg.Collector.Attempt(prop.TxID, p.attempt)
	}
	p.boundary = p.submitted
	if tr := g.cfg.Tracer; tr.Enabled() && !query {
		// The first attempt mints the trace; retries bind their fresh
		// TxID to it so one trace tells the whole client-visible story.
		var tid trace.TraceID
		if sub != nil && sub.id != "" {
			tid = sub.id
			tr.Bind(string(prop.TxID), tid)
		} else {
			tid = tr.Mint(string(prop.TxID))
			if sub != nil {
				sub.id = tid
			}
		}
		prop.TraceID = string(tid)
		p.boundary = time.Now()
		nodes := make([]string, 0, len(targets))
		for _, t := range targets {
			nodes = append(nodes, t.node)
		}
		tr.Record(tid, trace.SpanGatewayPropose, g.cfg.ID, p.submitted, p.boundary,
			"attempt", fmt.Sprint(p.attempt),
			"channel", channel,
			"endorsers", strings.Join(nodes, ","))
	}
	return p, nil
}

// Endorse runs the Endorse stage: it pays the fixed SDK round-trip
// latency, fans the proposal out to the selected targets, verifies the
// responses agree, and assembles the signed transaction envelope.
func (p *Proposal) Endorse(ctx context.Context) (*Transaction, error) {
	g := p.gw
	if err := g.baseLatency(ctx); err != nil {
		return nil, err
	}
	responses, err := g.collectEndorsements(ctx, p)
	if err != nil {
		g.cfg.Collector.Rejected(p.prop.TxID)
		return nil, err
	}
	// The endorsements go into the envelope, not past it: they stay on
	// the stack for up to eight endorsers, as the transaction does.
	var buf [8]types.Endorsement
	rwset, endorsements, payload, err := checkResponses(responses, buf[:0])
	if err != nil {
		g.cfg.Collector.Rejected(p.prop.TxID)
		return nil, err
	}
	endorsed := time.Now()
	g.cfg.Collector.Endorsed(p.prop.TxID, endorsed)
	if tr := g.cfg.Tracer; tr.Enabled() && p.prop.TraceID != "" {
		tr.Record(trace.TraceID(p.prop.TraceID), trace.SpanGatewayEndorse, g.cfg.ID,
			p.boundary, endorsed,
			"attempt", fmt.Sprint(p.attempt),
			"responses", fmt.Sprint(len(responses)))
	}

	tx := &types.Transaction{
		Proposal:     p.prop,
		Results:      *rwset,
		Endorsements: endorsements,
		SubmitTime:   p.submitted.UnixNano(),
	}
	clientSig, err := g.cfg.Identity.Sign(tx.ClientDigest())
	if err != nil {
		return nil, fmt.Errorf("gateway %s: sign envelope: %w", g.cfg.ID, err)
	}
	tx.ClientSig = clientSig
	return &Transaction{
		gw:        g,
		prop:      &p.prop,
		channel:   p.channel,
		env:       tx.Marshal(),
		payload:   payload,
		submitted: p.submitted,
		attempt:   p.attempt,
		boundary:  endorsed,
	}, nil
}

// Submit runs the Submit stage: it broadcasts the envelope to the
// ordering service and returns a Commit future that resolves on the
// commit event or the ordering timeout.
func (t *Transaction) Submit(ctx context.Context) (*Commit, error) {
	c := newCommit(t.gw)
	if err := t.submit(ctx, c); err != nil {
		return nil, err
	}
	return c, nil
}

// submit broadcasts the envelope as c's next attempt. c enters the
// pending map before the broadcast so the event can never outrace it;
// the attempt settles only after the ack is recorded, so an event that
// arrives first is kept on c until then. Once the ack is recorded
// submit no longer touches c, which the event may already have settled
// and moved on to its next attempt.
func (t *Transaction) submit(ctx context.Context, c *Commit) error {
	g := t.gw
	c.setTxID(t.prop.TxID)
	c.payload = t.payload
	c.attempt = t.attempt
	c.traceID = ""
	tr := g.cfg.Tracer
	if tr.Enabled() && t.prop.TraceID != "" {
		c.traceID = trace.TraceID(t.prop.TraceID)
	}
	c.benv = orderer.BroadcastEnvelope{Channel: t.channel, Env: t.env}
	g.mu.Lock()
	c.gen++
	c.claimed, c.acked, c.early = false, false, nil
	g.pending[c.txID] = c
	g.mu.Unlock()

	if err := g.broadcast(ctx, &c.benv, len(t.env)+len(t.channel)+16); err != nil {
		g.mu.Lock()
		g.claimLocked(c)
		g.mu.Unlock()
		g.cfg.Collector.Rejected(t.prop.TxID)
		return fmt.Errorf("gateway %s: broadcast: %w", g.cfg.ID, err)
	}
	acked := g.queueExpiry(c)
	g.cfg.Collector.BroadcastAcked(t.prop.TxID, acked)
	if c.traceID != "" {
		tr.Record(c.traceID, trace.SpanGatewaySubmit, g.cfg.ID, t.boundary, acked,
			"attempt", fmt.Sprint(t.attempt),
			"channel", t.channel)
	}
	g.mu.Lock()
	c.acked = true
	early := c.early
	g.mu.Unlock()
	if early != nil {
		g.resolve(c, *early)
	}
	return nil
}

// expiry is one acked attempt's ordering deadline: gen is the attempt's
// number on its commit.
type expiry struct {
	deadline time.Time
	c        *Commit
	gen      uint64
}

// commitQueue is a FIFO of expiries. Popped slots are cleared, and the
// live entries move to the front of the array once at least half of it
// is popped, so a steady flow of commits allocates nothing.
type commitQueue struct {
	entries []expiry
	head    int
}

func (q *commitQueue) empty() bool { return q.head == len(q.entries) }

func (q *commitQueue) push(e expiry) { q.entries = append(q.entries, e) }

func (q *commitQueue) front() expiry { return q.entries[q.head] }

func (q *commitQueue) pop() {
	q.entries[q.head] = expiry{}
	q.head++
	if q.head*2 >= len(q.entries) {
		n := copy(q.entries, q.entries[q.head:])
		clear(q.entries[n:])
		q.entries, q.head = q.entries[:n], 0
	}
}

// queueExpiry stamps the commit's broadcast ack and, unless its event
// already claimed it, queues its ordering deadline. Every commit waits
// the same timeout from an ack stamped under the gateway's lock, so the
// queue is in deadline order by construction. It returns the ack time.
func (g *Gateway) queueExpiry(c *Commit) time.Time {
	timeout := g.cfg.Model.ScaledDelay(g.cfg.Model.OrderTimeout)
	g.mu.Lock()
	defer g.mu.Unlock()
	c.ackedAt = time.Now()
	if c.claimed {
		return c.ackedAt
	}
	wasEmpty := g.expiries.empty()
	g.expiries.push(expiry{deadline: c.ackedAt.Add(timeout), c: c, gen: c.gen})
	switch {
	case g.expiryTimer == nil:
		g.expiryTimer = time.AfterFunc(timeout, g.expire)
	case wasEmpty:
		g.expiryTimer.Reset(timeout)
	}
	return c.ackedAt
}

// expire runs on the expiry timer: it settles every queued attempt whose
// deadline has passed and that nothing else claimed, skips the claimed
// and superseded ones, and re-arms the timer for the first deadline
// still ahead.
func (g *Gateway) expire() {
	for {
		g.mu.Lock()
		c := g.nextExpiredLocked(time.Now())
		g.mu.Unlock()
		if c == nil {
			return
		}
		g.resolveTimeout(c)
	}
}

// nextExpiredLocked pops and claims the first queued attempt that is
// still its commit's current one, unclaimed and past its deadline. An
// entry of an earlier attempt is dropped whatever its deadline: its
// commit has moved on, and the deadline is not the current attempt's.
// It returns nil, with the timer re-armed, once the queue is empty or
// its head is still ahead of now.
func (g *Gateway) nextExpiredLocked(now time.Time) *Commit {
	for !g.expiries.empty() {
		e := g.expiries.front()
		live := e.gen == e.c.gen && !e.c.claimed
		if live && now.Before(e.deadline) {
			g.expiryTimer.Reset(e.deadline.Sub(now))
			return nil
		}
		g.expiries.pop()
		if live {
			g.claimLocked(e.c)
			return e.c
		}
	}
	return nil
}

// claimLocked takes the commit out of the pending map; it reports false
// when something else already did, and then the caller must not resolve
// the commit. The caller holds g.mu.
func (g *Gateway) claimLocked(c *Commit) bool {
	if c.claimed {
		return false
	}
	c.claimed = true
	if g.pending[c.txID] == c {
		delete(g.pending, c.txID)
	}
	return true
}

// broadcastBackoff is the model-time pause between successive OSN
// attempts of one broadcast; the whole attempt sequence still shares a
// single ordering-timeout budget.
const broadcastBackoff = 25 * time.Millisecond

// broadcast sends one envelope to the ordering service with failover.
// The round-robin pick goes first, skipping OSNs the shared load
// tracker currently marks down (a crashed OSN costs one failed call
// per cooldown across all gateways, not per transaction). A failed
// call down-marks its OSN and the broadcast moves to the next
// candidate after a bounded backoff; expiry of the ordering budget (or
// the caller's context) aborts without down-marking, since it says
// nothing about the OSN's health. ErrOrdererUnavailable surfaces only
// when every candidate OSN was tried and none accepted.
//
// The budget is one deadline: each call is bounded by the time left
// to it, and each backoff is capped at that time, so the whole attempt
// sequence ends within the ordering timeout plus scheduling slack.
func (g *Gateway) broadcast(ctx context.Context, benv *orderer.BroadcastEnvelope, size int) error {
	lt := g.loads()
	nOrd := uint64(len(g.cfg.Orderers))
	start := g.rrOrd.Add(1)
	var buf [8]string
	rotation := buf[:0]
	for i := uint64(0); i < nOrd; i++ {
		rotation = append(rotation, g.cfg.Orderers[(start+i)%nOrd])
	}
	candidates := healthyReplicas(rotation, lt)

	deadline := time.Now().Add(g.cfg.Model.ScaledDelay(g.cfg.Model.OrderTimeout))
	backoff := g.cfg.Model.ScaledDelay(broadcastBackoff)
	var lastErr error
	for i, osn := range candidates {
		if i > 0 {
			g.cfg.Collector.BroadcastFailover()
			if err := simcpu.Sleep(ctx, min(backoff, time.Until(deadline))); err != nil {
				return fmt.Errorf("%w (budget expired after: %v)", err, lastErr)
			}
		}
		// left <= 0 is !time.Now().Before(deadline): the deadline
		// instant itself has expired, and a call is never left unbounded.
		left := time.Until(deadline)
		if left <= 0 {
			return fmt.Errorf("%w (budget expired after: %v)", context.DeadlineExceeded, lastErr)
		}
		lt.Begin(osn)
		begun := time.Now()
		_, err := g.cfg.Endpoint.CallWithin(ctx, left, osn, orderer.KindBroadcast, benv, size)
		if err == nil {
			lt.Done(osn, time.Since(begun), true)
			return nil
		}
		if ctx.Err() != nil || !time.Now().Before(deadline) {
			lt.Abort(osn)
			return err
		}
		lt.Done(osn, time.Since(begun), false)
		lastErr = err
	}
	return fmt.Errorf("%w (last error: %v)", ErrOrdererUnavailable, lastErr)
}

// The conflict outcomes resolve returns, built once: each matches both
// ErrInvalidated and its conflict sentinel under errors.Is.
var (
	errMVCCInvalidated       = fmt.Errorf("%w: %w", ErrInvalidated, ErrMVCCConflict)
	errEarlyAbortInvalidated = fmt.Errorf("%w: %w", ErrInvalidated, ErrEarlyAbort)
)

// resolve settles an attempt from its commit event.
func (g *Gateway) resolve(c *Commit, ev peer.CommitEvent) {
	committedAt := time.Now()
	if ev.CommitTime != 0 {
		committedAt = time.Unix(0, ev.CommitTime)
	}
	if ev.OrderedTime != 0 {
		g.cfg.Collector.Ordered(c.txID, time.Unix(0, ev.OrderedTime))
	}
	g.cfg.Collector.Committed(c.txID, committedAt, ev.Code)
	if tr := g.cfg.Tracer; tr.Enabled() && c.traceID != "" {
		tr.Record(c.traceID, trace.SpanGatewayCommitWait, g.cfg.ID, c.ackedAt, committedAt,
			"attempt", fmt.Sprint(c.attempt),
			"code", ev.Code.String(),
			"block", fmt.Sprint(ev.BlockNum))
	}
	c.st = Status{
		TxID:      c.txID,
		Code:      ev.Code,
		BlockNum:  ev.BlockNum,
		Committed: ev.Code.Valid(),
		Payload:   c.payload,
	}
	var err error
	if !c.st.Committed {
		// Conflict aborts carry their dedicated sentinel alongside
		// ErrInvalidated so callers (and the retry loop) can match them
		// with errors.Is without parsing the message.
		switch ev.Code {
		case types.ValidationMVCCConflict:
			err = errMVCCInvalidated
		case types.ValidationEarlyAbort:
			err = errEarlyAbortInvalidated
		default:
			err = fmt.Errorf("%w: %s", ErrInvalidated, ev.Code)
		}
	}
	g.settle(c, &c.st, err)
}

// retryAttempts returns the configured total attempt count (minimum 1).
func (g *Gateway) retryAttempts() int {
	if n := g.cfg.Retry.MaxAttempts; n > 1 {
		return n
	}
	return 1
}

// maxRetryBackoff caps the conflict-retry backoff in model time.
const maxRetryBackoff = 2 * time.Second

// retryBackoff computes the model-time backoff before retry number
// `retry` (1 = first retry): exponential growth from InitialBackoff,
// doubling each time up to maxRetryBackoff, with ±Jitter randomization.
func (g *Gateway) retryBackoff(retry int) time.Duration {
	rc := g.cfg.Retry
	base := rc.InitialBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	d := float64(base)
	for i := 1; i < retry && d < float64(maxRetryBackoff); i++ {
		d *= 2
	}
	if d > float64(maxRetryBackoff) {
		d = float64(maxRetryBackoff)
	}
	if rc.Jitter > 0 {
		g.retryMu.Lock()
		if g.retryRng == nil {
			seed := rc.Seed
			if seed == 0 {
				seed = 1
			}
			g.retryRng = rand.New(rand.NewSource(seed))
		}
		f := 1 + rc.Jitter*(2*g.retryRng.Float64()-1)
		g.retryMu.Unlock()
		if f > 0 {
			d *= f
		}
	}
	return time.Duration(d)
}

// retrySleep waits out the backoff before retry number `retry`,
// honoring context cancellation.
func (g *Gateway) retrySleep(ctx context.Context, retry int) error {
	d := g.cfg.Model.ScaledDelay(g.retryBackoff(retry))
	if d <= 0 {
		return ctx.Err()
	}
	return simcpu.Sleep(ctx, d)
}

// resolveTimeout settles an attempt as rejected by the ordering
// timeout.
func (g *Gateway) resolveTimeout(c *Commit) {
	g.cfg.Collector.Rejected(c.txID)
	if tr := g.cfg.Tracer; tr.Enabled() && c.traceID != "" {
		tr.Record(c.traceID, trace.SpanGatewayCommitWait, g.cfg.ID, c.ackedAt, time.Now(),
			"attempt", fmt.Sprint(c.attempt),
			"outcome", "ordering-timeout")
	}
	g.settle(c, nil, ErrOrderingTimeout)
}

// Invoke runs the full staged pipeline closed-loop: Propose, Endorse,
// Submit, then block on Status — the legacy SDK transaction life cycle.
// It is SubmitAsync without a window slot, run by the same attempt
// loop: with Config.Retry enabled, conflict aborts (ErrMVCCConflict,
// ErrEarlyAbort) transparently re-run the whole pipeline — fresh TxID,
// fresh endorsement — up to MaxAttempts times with exponential backoff.
// A caller abandoning Invoke early does not orphan the transaction: the
// background loop still resolves (and accounts) it.
func (g *Gateway) Invoke(ctx context.Context, channel, chaincodeID, fn string, args [][]byte) (*Status, error) {
	return g.start(ctx, nil, channel, nil, chaincodeID, fn, args).Status(ctx)
}

// InvokeWithPolicy is Invoke with an explicit endorsement-target policy
// on the default channel. The committing peers still enforce the
// channel policy, so selecting fewer targets than the channel requires
// yields a transaction flagged ENDORSEMENT_POLICY_FAILURE (the VSCC
// test path).
func (g *Gateway) InvokeWithPolicy(ctx context.Context, pol policy.Policy, chaincodeID, fn string, args [][]byte) (*Status, error) {
	return g.start(ctx, nil, "", pol, chaincodeID, fn, args).Status(ctx)
}

// SubmitAsync runs the whole Propose/Endorse/Submit pipeline in the
// background and returns a Commit future immediately. It blocks only
// while every in-flight window slot is occupied; the slot is released
// when the returned future resolves. This is the open-loop submission
// path: arrivals are never coupled to completions beyond the window.
func (g *Gateway) SubmitAsync(ctx context.Context, channel, chaincodeID, fn string, args [][]byte) (*Commit, error) {
	window := g.currentWindow()
	select {
	case window <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.start(ctx, window, channel, nil, chaincodeID, fn, args), nil
}

// TrySubmitAsync is SubmitAsync without blocking: when every in-flight
// window slot is occupied it fails fast with ErrWindowFull, which
// open-loop generators count as a dropped arrival.
func (g *Gateway) TrySubmitAsync(ctx context.Context, channel, chaincodeID, fn string, args [][]byte) (*Commit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	window := g.currentWindow()
	select {
	case window <- struct{}{}:
	default:
		return nil, ErrWindowFull
	}
	return g.start(ctx, window, channel, nil, chaincodeID, fn, args), nil
}

// submission is start's attempt loop: a transaction's arguments, the
// in-flight window slot it holds (nil for Invoke), and its trace. The
// attempts run one after another, so one goroutine at a time owns it.
type submission struct {
	ctx         context.Context
	window      chan struct{}
	channel     string
	pol         policy.Policy
	chaincodeID string
	fn          string
	args        [][]byte
	trace       submissionTrace
}

// start runs one transaction in the background and returns its Commit
// future, the record of every attempt. An attempt proposes, endorses and
// submits on its own goroutine, which ends once the broadcast is acked:
// no goroutine waits for the commit event. The event or the ordering
// timeout settles the attempt, and while the error is Retryable and
// attempts remain, settle runs the whole pipeline again after a backoff.
// window, when non-nil, holds the caller's in-flight slot, freed once
// the future resolves. An empty channel and a nil pol mean the
// defaults, as for propose.
func (g *Gateway) start(ctx context.Context, window chan struct{}, channel string, pol policy.Policy, chaincodeID, fn string, args [][]byte) *Commit {
	c := newCommit(g)
	c.loop = submission{ctx: ctx, window: window, channel: channel, pol: pol,
		chaincodeID: chaincodeID, fn: fn, args: args, trace: submissionTrace{attempt: 1}}
	go g.attempt(c)
	return c
}

// attempt runs c's current attempt up to its broadcast ack, and settles
// it at once when a stage fails.
func (g *Gateway) attempt(c *Commit) {
	s := &c.loop
	prop, err := g.propose(s.ctx, s.channel, s.pol, s.chaincodeID, s.fn, s.args, &s.trace, false)
	if err == nil {
		c.setTxID(prop.TxID())
		var txn *Transaction
		if txn, err = prop.Endorse(s.ctx); err == nil {
			err = txn.submit(s.ctx, c)
		}
	}
	if err != nil {
		g.settle(c, nil, err)
	}
}

// settle ends c's current attempt with its outcome. A commit start owns
// starts its next attempt on a new goroutine, after the backoff, while
// the error is Retryable and attempts remain; any other outcome resolves
// c. Its caller touches c no more.
func (g *Gateway) settle(c *Commit, st *Status, err error) {
	s := &c.loop
	if s.ctx != nil && s.trace.attempt < g.retryAttempts() && Retryable(err) {
		go g.retry(c, st, err)
		return
	}
	c.complete(st, err)
}

// retry waits out the backoff after c's attempt failed with st and err,
// then runs the next attempt; a cancelled backoff resolves c with them.
func (g *Gateway) retry(c *Commit, st *Status, err error) {
	s := &c.loop
	if g.retrySleep(s.ctx, s.trace.attempt) != nil {
		c.complete(st, err)
		return
	}
	s.trace.attempt++
	g.attempt(c)
}

// Evaluate runs the execute phase only (no ordering) and returns the
// chaincode payload, like an SDK evaluate/query call. It goes through
// the same cost model as Invoke — connection setup, client CPU for one
// endorsement, and the fixed SDK round-trip latency — so query latency
// is comparable with invoke latency instead of unrealistically zero.
func (g *Gateway) Evaluate(ctx context.Context, chaincodeID, fn string, args [][]byte) ([]byte, error) {
	prop, err := g.propose(ctx, "", nil, chaincodeID, fn, args, nil, true)
	if err != nil {
		return nil, err
	}
	if err := g.baseLatency(ctx); err != nil {
		return nil, err
	}
	// collectEndorsements rejects any non-OK response, so a returned
	// slice always carries a usable payload.
	responses, err := g.collectEndorsements(ctx, prop)
	if err != nil {
		return nil, err
	}
	return responses[0].Payload, nil
}
