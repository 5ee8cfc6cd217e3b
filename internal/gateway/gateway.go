// Package gateway exposes the Fabric transaction life cycle as
// composable stages with futures, in the shape of Fabric v2.4's Gateway
// API redesign: Propose builds and signs a proposal, Proposal.Endorse
// collects endorsements into a Transaction, Transaction.Submit
// broadcasts the envelope and returns a Commit handle, and
// Commit.Status resolves when the commit event arrives (or the ordering
// timeout fires). SubmitAsync runs the whole pipeline in the background
// under a bounded in-flight window, which is what lets workload
// generators drive open-loop arrival rates and windowed pipelines
// instead of the blocking one-thread-one-transaction SDK life cycle the
// paper identifies as the execute-phase ceiling.
//
// Invoke, the closed-loop SDK life cycle, is the same pipeline as
// SubmitAsync without a window slot: one attempt loop runs every
// transaction, and every Commit future resolves from the event peer's
// commit-event stream. A future has no goroutine, timer or channel
// waiting for its event: the event handler resolves it directly, and
// ordering timeouts come from one deadline queue and one timer per
// gateway. A pending SubmitAsync or Invoke transaction has no goroutine
// either: its attempt's goroutine ends at the broadcast ack, and what
// settles a conflicted attempt starts the next one.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/metrics"
	"fabricsim/internal/msp"
	"fabricsim/internal/orderer"
	"fabricsim/internal/peer"
	"fabricsim/internal/policy"
	"fabricsim/internal/simcpu"
	"fabricsim/internal/trace"
	"fabricsim/internal/transport"
	"fabricsim/internal/types"
	"fabricsim/internal/workers"
)

// Errors returned by the gateway stages.
var (
	// ErrEndorsementFailed reports a failed or refused endorsement.
	ErrEndorsementFailed = errors.New("gateway: endorsement failed")
	// ErrMismatchedResults reports endorsers disagreeing on the
	// simulated read-write set.
	ErrMismatchedResults = errors.New("gateway: endorsers returned different read-write sets")
	// ErrOrderingTimeout reports the paper's 3-second (model time)
	// client-side ordering timeout: the transaction was broadcast but no
	// commit event arrived in time.
	ErrOrderingTimeout = errors.New("gateway: ordering timeout (transaction rejected)")
	// ErrInvalidated reports a transaction that committed with a
	// non-valid validation code (MVCC conflict, policy failure, ...).
	ErrInvalidated = errors.New("gateway: transaction invalidated at commit")
	// ErrMVCCConflict reports an ErrInvalidated whose validation code was
	// MVCC_READ_CONFLICT: the transaction's read set went stale between
	// endorsement and commit. Re-executing against fresh state may
	// succeed, so this is the retryable conflict error (errors.Is matches
	// ErrInvalidated too).
	ErrMVCCConflict = errors.New("gateway: mvcc read conflict")
	// ErrEarlyAbort reports an ErrInvalidated whose validation code was
	// EARLY_ABORT_CONFLICT: the conflict-aware orderer dropped the
	// transaction from its block before validation. Like ErrMVCCConflict
	// it is retryable with fresh endorsement.
	ErrEarlyAbort = errors.New("gateway: early-aborted by conflict-aware ordering")
	// ErrWindowFull reports a TrySubmitAsync that found every in-flight
	// window slot occupied.
	ErrWindowFull = errors.New("gateway: in-flight window full")
	// ErrOrdererUnavailable reports a broadcast that tried every
	// configured OSN (the failover path) and found none accepting.
	ErrOrdererUnavailable = errors.New("gateway: no orderer available")
)

// DefaultMaxInFlight sizes SubmitAsync's in-flight window until
// SetMaxInFlight resizes it.
const DefaultMaxInFlight = 4096

// Config parameterizes a gateway (one per SDK client process).
type Config struct {
	// ID is the gateway's transport identifier.
	ID string
	// Endpoint is the gateway's network attachment.
	Endpoint transport.Endpoint
	// Identity is the signing identity transactions are issued under.
	Identity *msp.SigningIdentity
	// Model is the calibrated cost model.
	Model costmodel.Model
	// CPU is the client process's simulated CPU (1 core: Node.js).
	CPU *simcpu.CPU
	// Orderers lists OSN IDs; broadcasts round-robin across them.
	Orderers []string
	// EventPeer is the peer whose commit events this gateway follows.
	EventPeer string
	// Policy is the channel endorsement policy.
	Policy policy.Policy
	// PeersByPrincipal maps policy principals (e.g. "Org1.peer0") to
	// the transport node IDs of the deployed endorsing replicas carrying
	// that principal, in deployment order. Replicated endorsers share
	// the principal's MSP identity; the gateway picks exactly one
	// replica per required principal through Balancer.
	PeersByPrincipal map[string][]string
	// Balancer picks which replica of a principal serves each
	// endorsement (nil = a private round-robin). fabnet shares one
	// balancer — and one Loads tracker — across a network's gateways so
	// load signals aggregate over the whole client population.
	Balancer Balancer
	// Loads is the per-target load accounting the balancer consults and
	// collectEndorsements maintains (nil = a private tracker).
	Loads *LoadTracker
	// Collector receives phase timestamps; may be nil.
	Collector *metrics.Collector
	// Tracer records lifecycle spans; nil (the default) disables tracing
	// at the cost of one pointer check per stage. When set, the gateway
	// mints one TraceID per logical submission at Propose, stamps it into
	// the proposal wire format, and records the four boundary spans
	// (propose/endorse/submit/commit-wait) that CriticalPath decomposes.
	Tracer *trace.Tracer
	// SignProposals enables real client signatures (VerifyCrypto runs).
	SignProposals bool
	// ChannelID names the default channel on proposals.
	ChannelID string
	// Channels lists every channel this gateway may submit on; empty
	// means just ChannelID.
	Channels []string
	// Retry controls transparent client-side retry of conflict-aborted
	// transactions (MVCC conflicts and conflict-aware early aborts). The
	// zero value disables retry: every conflict surfaces to the caller,
	// exactly as before.
	Retry RetryConfig
}

// RetryConfig bounds the gateway's conflict-retry loop. A retry always
// re-runs the full pipeline — a fresh proposal (new TxID), fresh
// endorsement against current state, fresh submission — because the
// stale read set is precisely what aborted the previous attempt.
type RetryConfig struct {
	// MaxAttempts is the total number of attempts, first try included.
	// Values <= 1 disable retry.
	MaxAttempts int
	// InitialBackoff is the model-time delay before the first retry
	// (default 50ms), doubled after each subsequent conflict, capped at
	// maxRetryBackoff.
	InitialBackoff time.Duration
	// Jitter randomizes each backoff by ±Jitter fraction (e.g. 0.2 →
	// ±20%), decorrelating retries from clients aborted by the same hot
	// key. Zero disables jitter.
	Jitter float64
	// Seed seeds the jitter randomness so runs are reproducible.
	Seed int64
}

// Retryable reports whether an Invoke/SubmitAsync error is a conflict
// abort the gateway's retry loop would re-attempt: an MVCC read
// conflict or a conflict-aware early abort.
func Retryable(err error) bool {
	return errors.Is(err, ErrMVCCConflict) || errors.Is(err, ErrEarlyAbort)
}

// submissionTrace carries one logical submission's trace identity,
// retry-attempt counter and current attempt's nonce number from the
// attempt loop into propose: the first attempt mints the TraceID, later
// attempts bind their fresh TxIDs to it, and every attempt's spans
// carry the attempt number. It is mutated only by the goroutine running
// the attempt loop's current step.
type submissionTrace struct {
	id      trace.TraceID
	attempt int
	nonce   uint64
}

// Gateway is one client process's connection to the network: it signs
// proposals, fans endorsement requests out, broadcasts envelopes, and
// resolves commit futures from the event stream.
type Gateway struct {
	cfg Config

	// nonce numbers proposals. The caller's goroutine takes each number
	// (a retry's on the goroutine that runs it), so a client that calls
	// one at a time gets its nonces in call order.
	nonce atomic.Uint64
	rr    atomic.Uint64 // round-robin cursor for OR targets
	rrOrd atomic.Uint64 // round-robin cursor for orderers

	mu      sync.Mutex
	pending map[types.TxID]*Commit
	window  chan struct{} // SubmitAsync in-flight slots
	// expiries holds every acked commit in ordering-deadline order, and
	// expiryTimer fires at its head.
	expiries    commitQueue
	expiryTimer *time.Timer

	// subMu serializes subscription attempts until one succeeds and sets
	// connected.
	subMu     sync.Mutex
	connected atomic.Bool

	// defOnce lazily builds the private balancer and load tracker used
	// when the configuration shares neither (direct-construction tests
	// included, which never go through New).
	defOnce  sync.Once
	defBal   Balancer
	defLoads *LoadTracker

	// retryMu guards the lazily seeded jitter source for the
	// conflict-retry backoff.
	retryMu  sync.Mutex
	retryRng *rand.Rand

	// fan runs collectEndorsements' jobs on parked workers.
	fan workers.Pool[endorseJob]
}

// New creates a gateway and registers its commit-event handler.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Orderers) == 0 {
		return nil, errors.New("gateway: no orderers configured")
	}
	if cfg.ChannelID == "" {
		if len(cfg.Channels) > 0 {
			cfg.ChannelID = cfg.Channels[0]
		} else {
			cfg.ChannelID = orderer.DefaultChannel
		}
	}
	if len(cfg.Channels) == 0 {
		cfg.Channels = []string{cfg.ChannelID}
	}
	g := &Gateway{
		cfg:     cfg,
		pending: make(map[types.TxID]*Commit),
		window:  make(chan struct{}, DefaultMaxInFlight),
	}
	cfg.Endpoint.Handle(peer.KindCommitEvent, g.handleCommitEvents)
	return g, nil
}

// ID returns the gateway's node identifier.
func (g *Gateway) ID() string { return g.cfg.ID }

// currentWindow returns the in-flight window SetMaxInFlight last sized.
func (g *Gateway) currentWindow() chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.window
}

// SetMaxInFlight resizes the SubmitAsync in-flight window. Call it
// between runs, not concurrently with submissions: transactions
// in flight under the old window finish against it, so a shrink takes
// full effect only after they drain.
func (g *Gateway) SetMaxInFlight(n int) {
	if n <= 0 {
		n = DefaultMaxInFlight
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if cap(g.window) != n {
		g.window = make(chan struct{}, n)
	}
}

// Connect establishes the commit-event subscription on the event peer;
// every Propose calls it until one subscription succeeds, so a failed
// attempt is retried by the next call. It may also be called eagerly at
// startup. Without an event peer it is a no-op, and every Commit future
// resolves by the ordering timeout.
func (g *Gateway) Connect(ctx context.Context) error {
	if g.connected.Load() {
		return nil
	}
	g.subMu.Lock()
	defer g.subMu.Unlock()
	if g.connected.Load() {
		return nil
	}
	if g.cfg.EventPeer != "" {
		if _, err := g.cfg.Endpoint.Call(ctx, g.cfg.EventPeer, peer.KindSubscribeEvents, g.cfg.ID, 16); err != nil {
			return fmt.Errorf("gateway %s: subscribe events: %w", g.cfg.ID, err)
		}
	}
	g.connected.Store(true)
	return nil
}

// maxNonce is the nonce a proposal holds in its own array: a gateway ID
// of up to 11 bytes, '-', and a 20-digit counter. A longer one is
// allocated.
const maxNonce = 32

// buildProposal fills in and signs p's proposal on p's channel, with
// nonce number seq. The caller has already charged the client CPU cost.
func (g *Gateway) buildProposal(p *Proposal, seq uint64, chaincodeID, fn string, args [][]byte) error {
	// The nonce is "<gateway ID>-<seq>", capped at its length.
	var digits [20]byte
	n := strconv.AppendUint(digits[:0], seq, 10)
	nonce := append(append(append(p.nonce[:0], g.cfg.ID...), '-'), n...)
	nonce = nonce[:len(nonce):len(nonce)]
	creator := g.cfg.Identity.Serialized()
	p.prop = types.Proposal{
		TxID:        types.ComputeTxID(nonce, creator),
		ChannelID:   p.channel,
		ChaincodeID: chaincodeID,
		Fn:          fn,
		Args:        args,
		Creator:     creator,
		Nonce:       nonce,
		Timestamp:   time.Now().UnixNano(),
	}
	if g.cfg.SignProposals {
		sig, err := g.cfg.Identity.Sign(nil, p.prop.Hash())
		if err != nil {
			return fmt.Errorf("gateway %s: sign proposal: %w", g.cfg.ID, err)
		}
		p.sig = sig
	}
	return nil
}

// endorseTarget is one selected endorsing peer together with the policy
// principal it carries; the principal keys replica-set lookups when a
// call fails and the endorsement falls back to a sibling replica.
type endorseTarget struct {
	principal string
	node      string
}

// initDefaults builds the private balancer and load tracker for
// gateways whose configuration shares neither.
func (g *Gateway) initDefaults() {
	g.defOnce.Do(func() {
		g.defBal = NewRoundRobin()
		g.defLoads = NewLoadTracker()
	})
}

// balancer returns the replica balancer (the shared one, or a private
// round-robin).
func (g *Gateway) balancer() Balancer {
	if g.cfg.Balancer != nil {
		return g.cfg.Balancer
	}
	g.initDefaults()
	return g.defBal
}

// loads returns the per-target load tracker (the shared one, or a
// private tracker).
func (g *Gateway) loads() *LoadTracker {
	if g.cfg.Loads != nil {
		return g.cfg.Loads
	}
	g.initDefaults()
	return g.defLoads
}

// replicasFor resolves one policy principal to its deployed endorsing
// replicas: a direct replica set, or — for org wildcard principals
// ("Org1.*", bare "Org1") — the union of every matching principal's
// replicas, sorted for determinism.
func (g *Gateway) replicasFor(principal string) []string {
	if reps, ok := g.cfg.PeersByPrincipal[principal]; ok && len(reps) > 0 {
		return reps
	}
	seen := make(map[string]struct{})
	var out []string
	for pr, reps := range g.cfg.PeersByPrincipal {
		if !policy.Matches(principal, pr) {
			continue
		}
		for _, n := range reps {
			if _, dup := seen[n]; !dup {
				seen[n] = struct{}{}
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out
}

// selectTargets picks the endorsing peers for one transaction. The
// policy decides which principals must sign: the minimal satisfying
// count, rotated round-robin when the policy allows a choice (OR /
// OutOf), or every named principal (AND). The balancer then picks
// exactly one replica per required principal — an AND over orgs with
// replicated endorsers selects one peer per org, never "all available".
// The targets are appended to targets, grown once to fit them all.
func (g *Gateway) selectTargets(pol policy.Policy, targets []endorseTarget) ([]endorseTarget, error) {
	type replicaSet struct {
		principal string
		replicas  []string
	}
	// The candidates stay on the stack for policies over up to eight
	// principals.
	var buf [8]replicaSet
	avail := buf[:0]
	for _, pr := range pol.Principals() {
		if reps := g.replicasFor(pr); len(reps) > 0 {
			avail = append(avail, replicaSet{principal: pr, replicas: reps})
		}
	}
	if len(avail) == 0 {
		return nil, errors.New("gateway: no deployed peers match the endorsement policy")
	}
	need := pol.MinEndorsements()
	if need < 1 {
		need = 1
	}
	if need > len(avail) {
		need = len(avail) // degraded deployment: best effort, VSCC decides
	}
	start := 0
	if need < len(avail) {
		// Round-robin the principal choice (OR/OutOf). The modulo runs
		// in uint64 so the cursor never reaches int as a negative value,
		// even after the counter wraps on 32-bit platforms.
		start = int(g.rr.Add(1) % uint64(len(avail)))
	}
	targets = slices.Grow(targets, need)
	for i := 0; i < need; i++ {
		rs := avail[(start+i)%len(avail)]
		node := rs.replicas[0]
		if len(rs.replicas) > 1 {
			node = g.balancer().Pick(rs.principal, rs.replicas, g.loads())
		}
		targets = append(targets, endorseTarget{principal: rs.principal, node: node})
	}
	return targets, nil
}

// baseLatency sleeps the fixed SDK/gRPC overhead of one endorsement
// round trip (pure delay, not capacity-consuming).
func (g *Gateway) baseLatency(ctx context.Context) error {
	return simcpu.Sleep(ctx, g.cfg.Model.ScaledDelay(g.cfg.Model.ClientBaseLatency))
}

// collectEndorsements fans the proposal out — one call per selected
// target, each maintaining the shared load accounting — and gathers all
// responses, failing on the first one in target order that is not OK.
// Every target but the last is a job for one of the gateway's parked
// workers, and the last target's call runs on the calling goroutine, so
// a single-target proposal hands out no job. The request, the group the
// jobs report to and, for one target, the responses are the proposal's
// own.
func (g *Gateway) collectEndorsements(ctx context.Context, p *Proposal) ([]*types.ProposalResponse, error) {
	p.req = peer.EndorseRequest{Proposal: &p.prop, Sig: p.sig}
	req, targets := &p.req, p.targets
	size := p.prop.Size() + len(p.sig) + 32
	out := p.response[:]
	if len(targets) > len(out) {
		out = make([]*types.ProposalResponse, len(targets))
	}
	last := len(targets) - 1
	p.wg.Add(last)
	for i, t := range targets[:last] {
		j := endorseJob{g: g, ctx: ctx, t: t, req: req, size: size, out: &out[i], wg: &p.wg}
		if !g.fan.Go(j) {
			j.Run() // a closed gateway endorses one target at a time
		}
	}
	out[last] = g.endorseOne(ctx, targets[last], req, size)
	p.wg.Wait()
	for _, r := range out {
		if !r.OK() {
			return nil, fmt.Errorf("%w: %s", ErrEndorsementFailed, r.Message)
		}
	}
	return out, nil
}

// endorseJob is one fanned-out endorsement: it writes the target's
// response to out and reports to wg.
type endorseJob struct {
	g    *Gateway
	ctx  context.Context
	t    endorseTarget
	req  *peer.EndorseRequest
	size int
	out  **types.ProposalResponse
	wg   *sync.WaitGroup
}

// Run endorses at the job's target.
func (j endorseJob) Run() {
	*j.out = j.g.endorseOne(j.ctx, j.t, j.req, j.size)
	j.wg.Done()
}

// Close ends the workers the gateway keeps parked for its endorsement
// fan-out, and waits for busy ones to finish their endorsement: close
// the gateway's endpoint first, or end the contexts of the endorsements
// in flight, so their calls return. A later endorsement still works, one
// target at a time.
func (g *Gateway) Close() {
	g.fan.Close()
	g.fan.Wait()
}

// callFailed is the refusal endorseOne reports when no replica answered:
// a non-OK response whose message is the call's error.
func callFailed(err error) *types.ProposalResponse {
	return &types.ProposalResponse{Message: err.Error()}
}

// endorseOne calls one selected replica, recording in-flight counts and
// round-trip latency in the shared tracker, and falls back to the
// principal's remaining replicas when the call itself fails (a down or
// unreachable peer, which the tracker marks so balancers route around
// it). A caller-side context cancellation only releases the in-flight
// slot — it says nothing about the replica's health, so it must never
// down-mark a peer in the tracker every gateway shares.
// Application-level refusals (status != 200) are never retried: every
// replica of a principal would refuse the same proposal the same way.
// A call that fails on every replica returns callFailed's response.
func (g *Gateway) endorseOne(ctx context.Context, t endorseTarget, req *peer.EndorseRequest, size int) *types.ProposalResponse {
	lt := g.loads()
	node := t.node
	var tried map[string]bool
	for {
		lt.Begin(node)
		start := time.Now()
		raw, err := g.cfg.Endpoint.Call(ctx, node, peer.KindEndorse, req, size)
		rtt := time.Since(start)
		switch {
		case err == nil:
			lt.Done(node, rtt, true)
			resp, ok := raw.(*types.ProposalResponse)
			if !ok {
				return callFailed(fmt.Errorf("gateway: bad endorse reply %T", raw))
			}
			if resp.OK() {
				g.cfg.Collector.Endorse(node, rtt)
			}
			return resp
		case ctx.Err() != nil:
			lt.Abort(node)
			return callFailed(err)
		default:
			lt.Done(node, rtt, false)
		}
		if tried == nil {
			tried = make(map[string]bool, 2)
		}
		tried[node] = true
		// Fall back through the balancer over the untried replicas so
		// the failover load spreads (and respects down-marks) instead of
		// herding every gateway onto the first sibling in deployment
		// order.
		var rest []string
		for _, r := range g.replicasFor(t.principal) {
			if !tried[r] {
				rest = append(rest, r)
			}
		}
		if len(rest) == 0 {
			return callFailed(err)
		}
		node = g.balancer().Pick(t.principal, rest, lt)
	}
}

// checkResponses verifies all endorsers simulated identical results and
// appends their endorsements to endorsements.
func checkResponses(responses []*types.ProposalResponse, endorsements []types.Endorsement) (*types.RWSet, []types.Endorsement, []byte, error) {
	if len(responses) == 0 {
		return nil, nil, nil, ErrEndorsementFailed
	}
	first := responses[0]
	for _, r := range responses {
		if string(r.ResultsHash) != string(first.ResultsHash) {
			return nil, nil, nil, ErrMismatchedResults
		}
		endorsements = append(endorsements, r.Endorsement)
	}
	return first.Results, endorsements, first.Payload, nil
}

// pendingCount reports the number of commits waiting for their event.
func (g *Gateway) pendingCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.pending)
}

// handleCommitEvents resolves the pending futures of a batch of commit
// events. An event whose broadcast ack is not recorded yet is kept on its
// commit, which Submit resolves once the ack is recorded. Events for
// unknown (never submitted or already resolved) TxIDs, duplicates
// included, are dropped.
func (g *Gateway) handleCommitEvents(_ context.Context, _ string, payload any) (any, int, error) {
	events, ok := payload.([]peer.CommitEvent)
	if !ok {
		return nil, 0, fmt.Errorf("gateway: bad commit event payload %T", payload)
	}
	for i := range events {
		ev := &events[i]
		g.mu.Lock()
		c, ok := g.pending[ev.TxID]
		resolveNow := ok && c.acked
		if ok {
			g.claimLocked(c)
			if !c.acked {
				early := *ev
				c.early = &early
			}
		}
		g.mu.Unlock()
		if resolveNow {
			g.resolve(c, *ev)
		}
	}
	return nil, 0, nil
}
