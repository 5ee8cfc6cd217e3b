package gateway

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fabricsim/internal/ca"
	"fabricsim/internal/costmodel"
	"fabricsim/internal/metrics"
	"fabricsim/internal/msp"
	"fabricsim/internal/orderer"
	"fabricsim/internal/peer"
	"fabricsim/internal/policy"
	"fabricsim/internal/simcpu"
	"fabricsim/internal/simtest"
	"fabricsim/internal/trace"
	"fabricsim/internal/transport"
	"fabricsim/internal/types"
)

// --- selectTargets (pure policy routing, no network) ---

// newTargetGateway builds a gateway with only the fields selectTargets
// reads. Each org principal gets one replica — the classic
// one-peer-per-org topology.
func newTargetGateway(pol policy.Policy, deployed int) *Gateway {
	m := make(map[string][]string, deployed)
	for i := 1; i <= deployed; i++ {
		principal := "Org" + string(rune('0'+i)) + ".peer0"
		m[principal] = []string{"peer" + string(rune('0'+i))}
	}
	return &Gateway{cfg: Config{Policy: pol, PeersByPrincipal: m}}
}

// newReplicatedGateway builds a gateway where each of the orgs'
// principals is carried by the given number of replicas.
func newReplicatedGateway(pol policy.Policy, orgs, replicas int) *Gateway {
	m := make(map[string][]string, orgs)
	for i := 1; i <= orgs; i++ {
		principal := fmt.Sprintf("Org%d.peer0", i)
		for r := 1; r <= replicas; r++ {
			m[principal] = append(m[principal], fmt.Sprintf("peer%dr%d", i, r))
		}
	}
	return &Gateway{cfg: Config{Policy: pol, PeersByPrincipal: m}}
}

func TestSelectTargetsORPicksOne(t *testing.T) {
	g := newTargetGateway(policy.OrOverPeers(3), 3)
	seen := make(map[string]int)
	for i := 0; i < 30; i++ {
		targets, err := g.selectTargets(g.cfg.Policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(targets) != 1 {
			t.Fatalf("OR selected %d targets", len(targets))
		}
		seen[targets[0].node]++
	}
	// Round-robin must spread load across all three deployed peers.
	if len(seen) != 3 {
		t.Errorf("OR load-balancing hit %d peers: %v", len(seen), seen)
	}
	for p, n := range seen {
		if n != 10 {
			t.Errorf("peer %s got %d of 30", p, n)
		}
	}
}

// TestSelectTargetsAllocatesOnce pins the target slice's growth: an
// AND5 policy grows it once, to all five targets, where appending one
// at a time grew it 1, 2, 4, 8; a one-target policy fills the caller's
// own array and allocates nothing.
func TestSelectTargetsAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under -race")
	}
	for _, tc := range []struct {
		name string
		pol  policy.Policy
		want float64
	}{
		{"AND5", policy.AndOverPeers(5), 1},
		{"OR5", policy.OrOverPeers(5), 0},
	} {
		g := newTargetGateway(tc.pol, 5)
		var own [1]endorseTarget
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := g.selectTargets(tc.pol, own[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != tc.want {
			t.Errorf("%s: selectTargets made %.0f allocations, want %.0f", tc.name, allocs, tc.want)
		}
	}
}

func TestSelectTargetsANDPicksAll(t *testing.T) {
	g := newTargetGateway(policy.AndOverPeers(3), 3)
	targets, err := g.selectTargets(g.cfg.Policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 3 {
		t.Fatalf("AND3 selected %d targets", len(targets))
	}
}

// TestSelectTargetsANDOneReplicaPerOrg is the AND-over-orgs behavior
// change of endorser replication: with every org principal carried by
// several replicas, an AND policy must select exactly one replica per
// org — never "all available" peers.
func TestSelectTargetsANDOneReplicaPerOrg(t *testing.T) {
	g := newReplicatedGateway(policy.AndOverPeers(2), 2, 3)
	for i := 0; i < 20; i++ {
		targets, err := g.selectTargets(g.cfg.Policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(targets) != 2 {
			t.Fatalf("AND2 over replicated orgs selected %d targets: %v", len(targets), targets)
		}
		orgs := make(map[string]bool)
		for _, tg := range targets {
			if orgs[tg.principal] {
				t.Fatalf("principal %s selected twice: %v", tg.principal, targets)
			}
			orgs[tg.principal] = true
			if !policy.Matches(tg.principal, tg.principal) {
				t.Fatalf("bad principal %q", tg.principal)
			}
		}
		if !orgs["Org1.peer0"] || !orgs["Org2.peer0"] {
			t.Fatalf("AND2 did not cover both orgs: %v", targets)
		}
	}
}

// TestSelectTargetsORSpreadsReplicas drives OR over one replicated org
// and checks the default round-robin balancer rotates the replicas.
func TestSelectTargetsORSpreadsReplicas(t *testing.T) {
	g := newReplicatedGateway(policy.OrOverPeers(1), 1, 4)
	seen := make(map[string]int)
	for i := 0; i < 40; i++ {
		targets, err := g.selectTargets(g.cfg.Policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(targets) != 1 {
			t.Fatalf("OR selected %d targets", len(targets))
		}
		seen[targets[0].node]++
	}
	if len(seen) != 4 {
		t.Fatalf("replicas hit = %v, want all 4", seen)
	}
	for node, n := range seen {
		if n != 10 {
			t.Errorf("replica %s got %d of 40", node, n)
		}
	}
}

func TestSelectTargetsOutOf(t *testing.T) {
	pol := policy.MustParse("OutOf(2,'Org1.peer0','Org2.peer0','Org3.peer0')")
	g := newTargetGateway(pol, 3)
	targets, err := g.selectTargets(pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 {
		t.Fatalf("OutOf(2,...) selected %d targets", len(targets))
	}
}

func TestSelectTargetsDegradedDeployment(t *testing.T) {
	g := newTargetGateway(policy.OrOverPeers(10), 2)
	targets, err := g.selectTargets(g.cfg.Policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 1 {
		t.Fatalf("selected %d targets", len(targets))
	}
}

func TestSelectTargetsNoDeployment(t *testing.T) {
	g := newTargetGateway(policy.OrOverPeers(3), 0)
	if _, err := g.selectTargets(g.cfg.Policy, nil); err == nil {
		t.Error("empty deployment accepted")
	}
}

func TestSelectTargetsCursorWrap(t *testing.T) {
	// The round-robin cursor is reduced modulo the target count in
	// uint64 space, so an overflowing counter must never produce a
	// negative index (the int(...) % n form would, after wrap on 32-bit
	// platforms).
	g := newTargetGateway(policy.OrOverPeers(3), 3)
	g.rr.Store(math.MaxUint64 - 1)
	for i := 0; i < 4; i++ {
		targets, err := g.selectTargets(g.cfg.Policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(targets) != 1 {
			t.Fatalf("wrap iteration %d selected %d targets", i, len(targets))
		}
	}
}

func TestNewRequiresOrderers(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("gateway without orderers accepted")
	}
}

// --- stub network harness for the staged life cycle ---

// stubNet wires a gateway to a stub endorsing peer and a stub orderer
// over the in-memory transport. The stubs implement just enough of the
// peer/orderer surface to exercise the gateway stages; commit events
// are injected by the test through the stub peer's endpoint, or pushed
// by the stub orderer itself when commitCode is set.
type stubNet struct {
	t      testing.TB
	gw     *Gateway
	net    *transport.Network
	peerEP transport.Endpoint
	// broadcasts counts envelopes the stub orderer accepted.
	broadcasts atomic.Int64
	// endorseDelay stalls the stub endorser (for window tests).
	endorseDelay time.Duration
	// endorsers is how many stub endorsing peers the network has (0
	// means 1): peer1..peerN carry principals Org1.peer0..OrgN.peer0,
	// and the gateway's policy is AND over all of them when N > 1.
	endorsers int
	// respond, when non-nil, makes the response of the stub endorser
	// at node; otherwise every endorser answers one fixed OK response.
	respond func(ctx context.Context, node string, req *peer.EndorseRequest) (*types.ProposalResponse, error)
	// commitCode, when non-nil, commits every broadcast at once: the
	// stub orderer pushes the envelope's commit event through the stub
	// peer with the code commitCode returns. attempt counts broadcasts
	// from 1.
	commitCode func(attempt int, id types.TxID) types.ValidationCode
	// onBroadcast, when non-nil, runs in the stub orderer for every
	// broadcast before it acks; n counts broadcasts from 1, and a
	// returned error fails the broadcast.
	onBroadcast func(n int, id types.TxID) error
	// subscribeFailures is how many event subscriptions the stub peer
	// refuses before it accepts one; subscribed is set once it accepted
	// one, and commitCode pushes events only after that.
	subscribeFailures atomic.Int32
	subscribed        atomic.Bool
}

func newStubNet(t testing.TB, mutate func(cfg *Config), opts func(s *stubNet)) *stubNet {
	t.Helper()
	s := &stubNet{t: t}
	if opts != nil {
		opts(s)
	}
	model := costmodel.Default(0.01) // 3s order timeout -> 30ms wall
	net := transport.NewNetwork(transport.Config{TimeScale: model.TimeScale})
	t.Cleanup(func() { net.Close() })
	s.net = net

	register := func(id string) *transport.MemEndpoint {
		ep, err := net.Register(id)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	gwEP, osnEP := register("gw1"), register("osn1")
	endorsers := max(s.endorsers, 1)
	peersByPrincipal := make(map[string][]string, endorsers)
	for i := 1; i <= endorsers; i++ {
		node := fmt.Sprintf("peer%d", i)
		ep := register(node)
		if i == 1 {
			s.peerEP = ep
		}
		peersByPrincipal[fmt.Sprintf("Org%d.peer0", i)] = []string{node}
		ep.Handle(peer.KindEndorse, func(ctx context.Context, _ string, payload any) (any, int, error) {
			req := payload.(*peer.EndorseRequest)
			if s.endorseDelay > 0 {
				time.Sleep(s.endorseDelay)
			}
			if s.respond != nil {
				resp, err := s.respond(ctx, node, req)
				return resp, 64, err
			}
			return &types.ProposalResponse{
				TxID:        req.Proposal.TxID,
				Status:      200,
				ResultsHash: []byte("h"),
				Results:     &types.RWSet{},
				Payload:     []byte("payload"),
				Endorsement: types.Endorsement{EndorserID: "Org1.peer0", EndorserOrg: "Org1"},
			}, 64, nil
		})
	}

	s.peerEP.Handle(peer.KindSubscribeEvents, func(_ context.Context, _ string, _ any) (any, int, error) {
		if s.subscribeFailures.Add(-1) >= 0 {
			return nil, 0, errors.New("stub peer: subscribe refused")
		}
		s.subscribed.Store(true)
		return "OK", 2, nil
	})
	osnEP.Handle(orderer.KindBroadcast, func(_ context.Context, _ string, payload any) (any, int, error) {
		n := s.broadcasts.Add(1)
		if s.commitCode != nil || s.onBroadcast != nil {
			info, err := types.PeekEnvelopeInfo(payload.(*orderer.BroadcastEnvelope).Env)
			if err != nil {
				return nil, 0, err
			}
			id := types.TxID(strings.Clone(string(info.TxID)))
			if s.onBroadcast != nil {
				if err := s.onBroadcast(int(n), id); err != nil {
					return nil, 0, err
				}
			}
			if s.commitCode != nil && s.subscribed.Load() {
				if err := s.pushCommit(id, s.commitCode(int(n), id)); err != nil {
					return nil, 0, err
				}
			}
		}
		return "ACK", 3, nil
	})

	authority, err := ca.New("ClientOrg", "hmac")
	if err != nil {
		t.Fatal(err)
	}
	enrollment, err := authority.Enroll("user1", ca.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	cpu := simcpu.New(1, model.TimeScale)
	t.Cleanup(cpu.Stop)

	cfg := Config{
		ID:               "gw1",
		Endpoint:         gwEP,
		Identity:         msp.NewSigningIdentity(enrollment),
		Model:            model,
		CPU:              cpu,
		Orderers:         []string{"osn1"},
		EventPeer:        "peer1",
		Policy:           policy.OrOverPeers(1),
		PeersByPrincipal: peersByPrincipal,
		ChannelID:        "perf",
	}
	if endorsers > 1 {
		cfg.Policy = policy.AndOverPeers(endorsers)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.gw = gw
	return s
}

// pushCommit sends a commit-event batch for one TxID to the gateway.
func (s *stubNet) pushCommit(id types.TxID, code types.ValidationCode) error {
	now := time.Now().UnixNano()
	return s.peerEP.Send("gw1", peer.KindCommitEvent, []peer.CommitEvent{{
		TxID: id, Code: code, BlockNum: 1, OrderedTime: now, CommitTime: now,
	}}, 48)
}

// commitTx is pushCommit for the test goroutine.
func (s *stubNet) commitTx(id types.TxID, code types.ValidationCode) {
	s.t.Helper()
	if err := s.pushCommit(id, code); err != nil {
		s.t.Fatal(err)
	}
}

var writeArgs = [][]byte{[]byte("k"), []byte("v")}

// submitPath is one entry point that runs a whole transaction and
// returns its outcome.
type submitPath struct {
	name string
	run  func(ctx context.Context, g *Gateway) (*Status, error)
}

// await resolves an async submission's future.
func await(c *Commit, err error) (*Status, error) {
	if err != nil {
		return nil, err
	}
	return c.Status(context.Background())
}

// retryPaths are the entry points that obey Config.Retry.
var retryPaths = []submitPath{
	{"Invoke", func(ctx context.Context, g *Gateway) (*Status, error) {
		return g.Invoke(ctx, "", "bench", "write", writeArgs)
	}},
	{"SubmitAsync", func(ctx context.Context, g *Gateway) (*Status, error) {
		return await(g.SubmitAsync(ctx, "", "bench", "write", writeArgs))
	}},
	{"TrySubmitAsync", func(ctx context.Context, g *Gateway) (*Status, error) {
		return await(g.TrySubmitAsync(ctx, "", "bench", "write", writeArgs))
	}},
}

// retryRun is one transaction driven through a stub network whose
// orderer commits attempt n with code(n), plus what it left behind.
type retryRun struct {
	st    *Status
	err   error
	start time.Time
	wall  time.Duration
	txIDs []types.TxID // one per broadcast, in attempt order
	col   *metrics.Collector
	tr    *trace.Tracer
}

func runRetry(t *testing.T, path submitPath, rc RetryConfig, code func(attempt int) types.ValidationCode) *retryRun {
	t.Helper()
	r := &retryRun{col: metrics.NewCollector(), tr: trace.New(0)}
	var mu sync.Mutex
	s := newStubNet(t, func(cfg *Config) {
		cfg.Collector = r.col
		cfg.Tracer = r.tr
		cfg.Retry = rc
	}, func(s *stubNet) {
		s.commitCode = func(attempt int, id types.TxID) types.ValidationCode {
			mu.Lock()
			r.txIDs = append(r.txIDs, id)
			mu.Unlock()
			return code(attempt)
		}
	})
	r.start = time.Now()
	r.st, r.err = path.run(context.Background(), s.gw)
	r.wall = time.Since(r.start)
	// Every attempt has broadcast by now; the lock orders the stub
	// orderer's appends before the caller's reads.
	mu.Lock()
	defer mu.Unlock()
	return r
}

// checkAttempts asserts the run made exactly n attempts: n broadcasts
// with distinct TxIDs, one collector record per attempt number, a
// retried-transaction count of one exactly when a retry committed, and
// one trace holding n propose spans whose critical path shows the
// backoff between attempts.
func (r *retryRun) checkAttempts(t *testing.T, n int) {
	t.Helper()
	if len(r.txIDs) != n {
		t.Fatalf("attempts = %d, want %d", len(r.txIDs), n)
	}
	distinct := make(map[types.TxID]bool, n)
	for _, id := range r.txIDs {
		distinct[id] = true
	}
	if len(distinct) != n {
		t.Errorf("distinct TxIDs = %d, want a fresh proposal per attempt (%d)", len(distinct), n)
	}
	attempts := map[int]int{}
	for _, rec := range r.col.Records() {
		attempts[rec.Attempt]++
	}
	for a := 1; a <= n; a++ {
		if attempts[a] != 1 || len(attempts) != n {
			t.Fatalf("attempt histogram = %v, want one record each for 1..%d", attempts, n)
		}
	}
	sum := r.col.Summarize(metrics.SummaryOptions{
		TimeScale:   1,
		WindowStart: r.start.Add(-time.Second),
		WindowEnd:   time.Now().Add(time.Second),
	})
	wantRetried := 0
	if r.err == nil && n > 1 {
		wantRetried = 1
	}
	if sum.RetriedTxs != wantRetried {
		t.Errorf("RetriedTxs = %d, want %d", sum.RetriedTxs, wantRetried)
	}

	if got := len(r.tr.TraceIDs()); got != 1 {
		t.Fatalf("traces = %d, want 1 (retries must bind, not mint)", got)
	}
	tid, ok := r.tr.Lookup(string(r.txIDs[n-1]))
	if !ok {
		t.Fatalf("final TxID %s has no trace binding", r.txIDs[n-1])
	}
	proposes := 0
	for _, sp := range r.tr.Spans(tid) {
		if sp.Name == trace.SpanGatewayPropose {
			proposes++
		}
	}
	if proposes != n {
		t.Errorf("propose spans = %d, want %d", proposes, n)
	}
	if n > 1 && r.backoff(t) <= 0 {
		t.Errorf("critical path has no retry-backoff phase")
	}
}

// backoff returns the retry-backoff phase of the run's critical path.
func (r *retryRun) backoff(t *testing.T) time.Duration {
	t.Helper()
	tid, _ := r.tr.Lookup(string(r.txIDs[len(r.txIDs)-1]))
	cp, ok := r.tr.CriticalPath(tid)
	if !ok {
		t.Fatal("no critical path for the submission's trace")
	}
	for _, p := range cp.Phases {
		if p.Name == "retry-backoff" {
			return p.Duration
		}
	}
	return 0
}

func TestStagedLifecycle(t *testing.T) {
	s := newStubNet(t, nil, nil)
	ctx := context.Background()

	prop, err := s.gw.Propose(ctx, "", "bench", "write", [][]byte{[]byte("k"), []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	if prop.TxID() == "" || prop.Channel() != "perf" {
		t.Fatalf("bad proposal: txid=%q channel=%q", prop.TxID(), prop.Channel())
	}
	txn, err := prop.Endorse(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(txn.Payload()) != "payload" {
		t.Fatalf("payload = %q", txn.Payload())
	}
	cmt, err := txn.Submit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s.broadcasts.Load() != 1 {
		t.Fatalf("broadcasts = %d", s.broadcasts.Load())
	}
	s.commitTx(prop.TxID(), types.ValidationValid)
	st, err := cmt.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Committed || st.TxID != prop.TxID() || st.BlockNum != 1 {
		t.Fatalf("status = %+v", st)
	}
	// The future is idempotent.
	st2, err := cmt.Status(ctx)
	if err != nil || st2 != st {
		t.Fatalf("second Status = %+v, %v", st2, err)
	}
	if n := s.gw.pendingCount(); n != 0 {
		t.Fatalf("pending entries leaked: %d", n)
	}
}

func TestInvalidatedCommit(t *testing.T) {
	s := newStubNet(t, nil, nil)
	ctx := context.Background()
	prop, err := s.gw.Propose(ctx, "", "bench", "write", [][]byte{[]byte("k"), []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	txn, err := prop.Endorse(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cmt, err := txn.Submit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s.commitTx(prop.TxID(), types.ValidationMVCCConflict)
	st, err := cmt.Status(ctx)
	if !errors.Is(err, ErrInvalidated) {
		t.Fatalf("err = %v", err)
	}
	if st == nil || st.Committed || st.Code != types.ValidationMVCCConflict {
		t.Fatalf("status = %+v", st)
	}
}

func TestCommitStatusSurfacesConflictSentinels(t *testing.T) {
	// Regression: a commit with ValidationMVCCConflict must surface
	// ErrMVCCConflict (and still match ErrInvalidated) from
	// Commit.Status; EARLY_ABORT_CONFLICT likewise maps to ErrEarlyAbort.
	cases := []struct {
		code types.ValidationCode
		want error
	}{
		{types.ValidationMVCCConflict, ErrMVCCConflict},
		{types.ValidationEarlyAbort, ErrEarlyAbort},
	}
	for _, tc := range cases {
		s := newStubNet(t, nil, nil)
		ctx := context.Background()
		prop, err := s.gw.Propose(ctx, "", "bench", "write", [][]byte{[]byte("k"), []byte("v")})
		if err != nil {
			t.Fatal(err)
		}
		txn, err := prop.Endorse(ctx)
		if err != nil {
			t.Fatal(err)
		}
		cmt, err := txn.Submit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		s.commitTx(prop.TxID(), tc.code)
		st, err := cmt.Status(ctx)
		if !errors.Is(err, tc.want) {
			t.Errorf("code %s: err = %v, want %v", tc.code, err, tc.want)
		}
		if !errors.Is(err, ErrInvalidated) {
			t.Errorf("code %s: err = %v, must still match ErrInvalidated", tc.code, err)
		}
		if !Retryable(err) {
			t.Errorf("code %s: Retryable = false", tc.code)
		}
		if st == nil || st.Code != tc.code {
			t.Errorf("code %s: status = %+v", tc.code, st)
		}
	}
	// Non-conflict invalidations stay non-retryable.
	if Retryable(fmt.Errorf("%w: %s", ErrInvalidated, types.ValidationBadSignature)) {
		t.Error("bad-signature invalidation must not be retryable")
	}
}

func TestInvokeRetriesConflicts(t *testing.T) {
	// The first two attempts conflict, the third commits. With
	// MaxAttempts=3 the caller sees success; each attempt must carry a
	// fresh TxID (fresh proposal + endorsement).
	rc := RetryConfig{
		MaxAttempts:    3,
		InitialBackoff: time.Millisecond,
		Jitter:         0.2,
		Seed:           42,
	}
	for _, path := range retryPaths {
		t.Run(path.name, func(t *testing.T) {
			r := runRetry(t, path, rc, func(attempt int) types.ValidationCode {
				if attempt >= 3 {
					return types.ValidationValid
				}
				return types.ValidationMVCCConflict
			})
			if r.err != nil || !r.st.Committed {
				t.Fatalf("status = %+v, %v", r.st, r.err)
			}
			if r.st.TxID != r.txIDs[len(r.txIDs)-1] {
				t.Errorf("status TxID %s, want the last attempt's", r.st.TxID)
			}
			r.checkAttempts(t, 3)
		})
	}
}

func TestInvokeRetryExhaustionSurfacesConflict(t *testing.T) {
	// Every attempt conflicts: after MaxAttempts the conflict error
	// surfaces unchanged. A code the loop does not chase surfaces after
	// one attempt, on InvokeWithPolicy too.
	invokeWithPolicy := submitPath{"InvokeWithPolicy", func(ctx context.Context, g *Gateway) (*Status, error) {
		return g.InvokeWithPolicy(ctx, policy.OrOverPeers(1), "bench", "write", writeArgs)
	}}
	type row struct {
		path     submitPath
		code     types.ValidationCode
		want     error
		attempts int
	}
	var rows []row
	for _, path := range retryPaths {
		rows = append(rows, row{path, types.ValidationMVCCConflict, ErrMVCCConflict, 2})
	}
	rows = append(rows, row{invokeWithPolicy, types.ValidationEndorsementPolicyFailure, ErrInvalidated, 1})
	for _, tc := range rows {
		t.Run(tc.path.name, func(t *testing.T) {
			r := runRetry(t, tc.path, RetryConfig{MaxAttempts: 2, InitialBackoff: time.Millisecond},
				func(int) types.ValidationCode { return tc.code })
			if !errors.Is(r.err, tc.want) {
				t.Fatalf("err = %v, want %v", r.err, tc.want)
			}
			if r.st == nil || r.st.Code != tc.code || r.st.Committed {
				t.Fatalf("status = %+v, want the final attempt's %s", r.st, tc.code)
			}
			r.checkAttempts(t, tc.attempts)
		})
	}
}

func TestSubmitAsyncRetriesConflicts(t *testing.T) {
	for _, path := range retryPaths {
		t.Run(path.name, func(t *testing.T) {
			r := runRetry(t, path, RetryConfig{MaxAttempts: 2, InitialBackoff: time.Millisecond},
				func(attempt int) types.ValidationCode {
					if attempt >= 2 {
						return types.ValidationValid
					}
					return types.ValidationEarlyAbort
				})
			if r.err != nil || !r.st.Committed {
				t.Fatalf("status = %+v, %v", r.st, r.err)
			}
			r.checkAttempts(t, 2)
		})
	}
}

func TestRetryBackoffGrowsAndCaps(t *testing.T) {
	g := &Gateway{cfg: Config{Retry: RetryConfig{
		MaxAttempts:    5,
		InitialBackoff: 500 * time.Millisecond,
	}}}
	if d := g.retryBackoff(1); d != 500*time.Millisecond {
		t.Errorf("backoff(1) = %v", d)
	}
	if d := g.retryBackoff(2); d != time.Second {
		t.Errorf("backoff(2) = %v", d)
	}
	if d := g.retryBackoff(3); d != maxRetryBackoff {
		t.Errorf("backoff(3) = %v, want the cap", d)
	}
	if d := g.retryBackoff(4); d != maxRetryBackoff {
		t.Errorf("backoff(4) = %v, want the cap", d)
	}
	// Jitter stays within ±20% and is reproducible for a fixed seed.
	mk := func() *Gateway {
		return &Gateway{cfg: Config{Retry: RetryConfig{
			MaxAttempts: 5, InitialBackoff: time.Second, Jitter: 0.2, Seed: 7,
		}}}
	}
	a, b := mk(), mk()
	for i := 1; i <= 4; i++ {
		da, db := a.retryBackoff(i), b.retryBackoff(i)
		if da != db {
			t.Errorf("retry %d: jittered backoff not reproducible: %v vs %v", i, da, db)
		}
		base := time.Second << (i - 1)
		if base > maxRetryBackoff {
			base = maxRetryBackoff
		}
		lo := time.Duration(float64(base) * 0.8)
		hi := time.Duration(float64(base) * 1.2)
		if da < lo || da > hi {
			t.Errorf("retry %d: backoff %v outside [%v, %v]", i, da, lo, hi)
		}
	}
}

func TestStatusTimeoutCleansPending(t *testing.T) {
	// The stub orderer acks broadcasts but nothing ever commits.
	s := newStubNet(t, nil, nil)
	ctx := context.Background()
	st, err := s.gw.Invoke(ctx, "", "bench", "write", [][]byte{[]byte("k"), []byte("v")})
	if !errors.Is(err, ErrOrderingTimeout) {
		t.Fatalf("err = %v, status = %+v", err, st)
	}
	// The expiry takes the commit out of the pending map before it
	// resolves it, so by the time Invoke returned the map must be empty.
	if n := s.gw.pendingCount(); n != 0 {
		t.Fatalf("pending entries leaked after timeout: %d", n)
	}
}

func TestCommitEventForUnknownTxID(t *testing.T) {
	s := newStubNet(t, nil, nil)
	// An event for a TxID that was never submitted (or has already been
	// resolved) must be dropped without creating state.
	if _, _, err := s.gw.handleCommitEvents(context.Background(), "peer1",
		[]peer.CommitEvent{{TxID: "never-submitted", Code: types.ValidationValid}}); err != nil {
		t.Fatal(err)
	}
	if n := s.gw.pendingCount(); n != 0 {
		t.Fatalf("unknown event created %d pending entries", n)
	}
}

func TestDuplicateCommitEvents(t *testing.T) {
	s := newStubNet(t, nil, nil)
	ctx := context.Background()
	prop, err := s.gw.Propose(ctx, "", "bench", "write", writeArgs)
	if err != nil {
		t.Fatal(err)
	}
	txn, err := prop.Endorse(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cmt, err := txn.Submit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Two deliveries (e.g. a redundant event peer): the second must be
	// dropped rather than blocking the event-stream handler.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2; i++ {
			events := []peer.CommitEvent{{TxID: prop.TxID(), Code: types.ValidationValid, BlockNum: uint64(2 + i)}}
			if _, _, err := s.gw.handleCommitEvents(ctx, "peer1", events); err != nil {
				t.Error(err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("duplicate event delivery blocked")
	}
	st, err := cmt.Status(ctx)
	if err != nil || st.BlockNum != 2 {
		t.Fatalf("status = %+v, %v; want the first delivery's block 2", st, err)
	}
	if n := s.gw.pendingCount(); n != 0 {
		t.Fatalf("pending entries leaked: %d", n)
	}
}

// TestCommitEventBeforeAck delivers the commit event inside the
// orderer's broadcast handler, before the ack: the future still resolves
// with the event's outcome, and only after the ack.
func TestCommitEventBeforeAck(t *testing.T) {
	col := metrics.NewCollector()
	var s *stubNet
	s = newStubNet(t, func(cfg *Config) { cfg.Collector = col }, func(sn *stubNet) {
		sn.onBroadcast = func(_ int, id types.TxID) error {
			_, _, err := s.gw.handleCommitEvents(context.Background(), "peer1",
				[]peer.CommitEvent{{TxID: id, Code: types.ValidationMVCCConflict, BlockNum: 7}})
			for _, r := range col.Records() {
				if !r.Committed.IsZero() {
					t.Errorf("%s resolved before its broadcast was acked", r.ID)
				}
			}
			return err
		}
	})
	st, err := s.gw.Invoke(context.Background(), "", "bench", "write", writeArgs)
	if !errors.Is(err, ErrMVCCConflict) || st == nil || st.BlockNum != 7 {
		t.Fatalf("status = %+v, %v; want the early event's MVCC conflict in block 7", st, err)
	}
	recs := col.Records()
	if len(recs) != 1 || recs[0].Broadcast.IsZero() || recs[0].Committed.IsZero() || recs[0].Rejected {
		t.Fatalf("records = %+v, want one acked and committed record", recs)
	}
	if n := s.gw.pendingCount(); n != 0 {
		t.Fatalf("pending entries leaked: %d", n)
	}
}

// TestCommitExactlyOnceStress submits 8 x 500 transactions through the
// staged API while the stub orderer delivers each commit event one of
// five ways: before the ack, twice before the ack, near the ordering
// timeout, twice after the ack, or never. Every future must resolve
// once, with its event's outcome or ErrOrderingTimeout, and the
// collector must hold exactly one of Committed or Rejected per TxID.
func TestCommitExactlyOnceStress(t *testing.T) {
	const goroutines, perGoroutine = 8, 500
	const (
		beforeAck = iota
		twiceBeforeAck
		nearTimeout
		twiceAfterAck
		never
		deliveries
	)
	col := metrics.NewCollector()
	var (
		mu     sync.Mutex
		plan   = make(map[types.TxID]int)
		codes  = make(map[types.TxID]types.ValidationCode)
		pushes sync.WaitGroup
		s      *stubNet
	)
	s = newStubNet(t, func(cfg *Config) { cfg.Collector = col }, func(sn *stubNet) {
		sn.onBroadcast = func(n int, id types.TxID) error {
			kind := n % deliveries
			code := types.ValidationValid
			if n%3 == 0 {
				code = types.ValidationMVCCConflict
			}
			mu.Lock()
			plan[id], codes[id] = kind, code
			mu.Unlock()
			push := func() { _ = sn.pushCommit(id, code) }
			later := func(d time.Duration, times int) {
				pushes.Add(1)
				time.AfterFunc(d, func() {
					defer pushes.Done()
					for i := 0; i < times; i++ {
						push()
					}
				})
			}
			timeout := s.gw.cfg.Model.ScaledDelay(s.gw.cfg.Model.OrderTimeout)
			switch kind {
			case beforeAck:
				_, _, err := s.gw.handleCommitEvents(context.Background(), "peer1",
					[]peer.CommitEvent{{TxID: id, Code: code, BlockNum: 1}})
				return err
			case twiceBeforeAck:
				push()
				push()
			case nearTimeout:
				later(timeout*4/5+time.Duration(n%9)*timeout/20, 1)
			case twiceAfterAck:
				later(time.Millisecond, 2)
			}
			return nil
		}
	})

	ctx := context.Background()
	commits := make([][]*Commit, goroutines)
	var wg sync.WaitGroup
	for g := range commits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				prop, err := s.gw.Propose(ctx, "", "bench", "write", writeArgs)
				if err != nil {
					t.Error(err)
					return
				}
				txn, err := prop.Endorse(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				cmt, err := txn.Submit(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				commits[g] = append(commits[g], cmt)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	outcome := make(map[types.TxID]error)
	for _, cs := range commits {
		for _, cmt := range cs {
			sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			st, err := cmt.Status(sctx)
			cancel()
			id := cmt.TxID()
			mu.Lock()
			kind, code := plan[id], codes[id]
			mu.Unlock()
			switch {
			case errors.Is(err, ErrOrderingTimeout):
				if kind == beforeAck {
					t.Errorf("%s: delivered before the ack, but timed out", id)
				}
			case err == nil || errors.Is(err, ErrInvalidated):
				if kind == never || st == nil || st.Code != code || (err == nil) != code.Valid() {
					t.Errorf("%s (delivery %d, code %s): status %+v, %v", id, kind, code, st, err)
				}
			default:
				t.Errorf("%s: unexpected error %v", id, err)
			}
			outcome[id] = err
		}
	}
	pushes.Wait()
	if n := s.gw.pendingCount(); n != 0 {
		t.Errorf("pending entries leaked: %d", n)
	}
	recs := col.Records()
	if len(recs) != goroutines*perGoroutine {
		t.Fatalf("records = %d, want %d", len(recs), goroutines*perGoroutine)
	}
	for _, r := range recs {
		committed := !r.Committed.IsZero()
		if committed == r.Rejected {
			t.Errorf("%s: committed %v, rejected %v; want exactly one", r.ID, committed, r.Rejected)
		}
		if r.Rejected != errors.Is(outcome[r.ID], ErrOrderingTimeout) {
			t.Errorf("%s: collector rejected %v, future error %v", r.ID, r.Rejected, outcome[r.ID])
		}
	}
}

// TestFailedBroadcastLeavesNoPending fails every broadcast, after the
// commit event was already sent: Submit must leave no pending entry, and
// no ordering timeout may resolve the dead submission later.
func TestFailedBroadcastLeavesNoPending(t *testing.T) {
	tr := trace.New(0)
	var s *stubNet
	s = newStubNet(t, func(cfg *Config) { cfg.Tracer = tr }, func(sn *stubNet) {
		sn.onBroadcast = func(_ int, id types.TxID) error {
			if err := sn.pushCommit(id, types.ValidationValid); err != nil {
				return err
			}
			return errors.New("stub orderer: broadcast refused")
		}
	})
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		prop, err := s.gw.Propose(ctx, "", "bench", "write", writeArgs)
		if err != nil {
			t.Fatal(err)
		}
		txn, err := prop.Endorse(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := txn.Submit(ctx); !errors.Is(err, ErrOrdererUnavailable) {
			t.Fatalf("Submit err = %v, want ErrOrdererUnavailable", err)
		}
		if n := s.gw.pendingCount(); n != 0 {
			t.Fatalf("failed broadcast left %d pending entries", n)
		}
	}
	time.Sleep(3 * s.gw.cfg.Model.ScaledDelay(s.gw.cfg.Model.OrderTimeout))
	for _, tid := range tr.TraceIDs() {
		for _, sp := range tr.Spans(tid) {
			if sp.Name == trace.SpanGatewayCommitWait {
				t.Fatalf("trace %s resolved after a failed broadcast: %+v", tid, sp)
			}
		}
	}
}

// TestBroadcastBudget holds a broadcast to its one ordering budget.
// The n-th broadcast call, whichever OSN the rotation sends it to,
// refuses at once, refuses just before the budget runs out, or hangs
// past it. Whatever the mix, Submit fails with an error wrapping
// context.DeadlineExceeded between the budget and the budget plus one
// backoff (and scheduling slack); each failover is counted; a refusing
// OSN is marked down, and the OSN that hung is aborted: neither in
// flight nor down. When the budget runs out during a backoff, no further
// OSN is called. The gateway's time scale is raised so the budget (300
// ms) and the backoff (100 ms) leave the wall clock wide margins.
func TestBroadcastBudget(t *testing.T) {
	const (
		scale        = 4.0
		orderTimeout = 75 * time.Millisecond // model time
		slack        = 50 * time.Millisecond
	)
	budget := time.Duration(scale * float64(orderTimeout))
	backoff := time.Duration(scale * float64(broadcastBackoff))
	cases := []struct {
		name string
		// calls says what the n-th broadcast call does.
		calls         []string
		wantCalls     int
		wantFailovers int
	}{
		{"every OSN hangs", []string{"hang", "hang", "hang"}, 1, 0},
		{"refusals then a hang", []string{"refuse", "refuse", "hang"}, 3, 2},
		{"budget runs out in a backoff", []string{"late refuse", "hang", "hang"}, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			col := metrics.NewCollector()
			release := make(chan struct{})
			var mu sync.Mutex
			var called []string // OSN of each broadcast call, in order
			act := func(osn string) error {
				mu.Lock()
				called = append(called, osn)
				what := tc.calls[len(called)-1]
				mu.Unlock()
				switch what {
				case "refuse":
					return errors.New("stub orderer: refused")
				case "late refuse":
					time.Sleep(budget - 40*time.Millisecond) // leaves less than one backoff
					return errors.New("stub orderer: refused late")
				}
				<-release
				return errors.New("stub orderer: released")
			}
			s := newStubNet(t, func(cfg *Config) {
				cfg.Orderers = []string{"osn1", "osn2", "osn3"}
				cfg.Collector = col
				cfg.Model.TimeScale = scale
				cfg.Model.OrderTimeout = orderTimeout
				cfg.Model.ClientBaseLatency = 0
			}, func(sn *stubNet) {
				sn.onBroadcast = func(int, types.TxID) error { return act("osn1") }
			})
			t.Cleanup(func() { close(release) }) // before the network closes
			for _, osn := range []string{"osn2", "osn3"} {
				ep, err := s.net.Register(osn)
				if err != nil {
					t.Fatal(err)
				}
				osn := osn
				ep.Handle(orderer.KindBroadcast, func(context.Context, string, any) (any, int, error) {
					return nil, 0, act(osn)
				})
			}

			ctx := context.Background()
			prop, err := s.gw.Propose(ctx, "", "bench", "write", writeArgs)
			if err != nil {
				t.Fatal(err)
			}
			txn, err := prop.Endorse(ctx)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err = txn.Submit(ctx)
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Submit err = %v, want one wrapping context.DeadlineExceeded", err)
			}
			if elapsed < budget || elapsed > budget+backoff+slack {
				t.Errorf("Submit failed after %v, want within [%v, %v]", elapsed, budget, budget+backoff+slack)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(called) != tc.wantCalls {
				t.Errorf("broadcast called %d OSNs (%v), want %d", len(called), called, tc.wantCalls)
			}
			sum := col.Summarize(metrics.SummaryOptions{TimeScale: scale})
			if sum.BroadcastFailovers != tc.wantFailovers {
				t.Errorf("failovers = %d, want %d", sum.BroadcastFailovers, tc.wantFailovers)
			}
			lt := s.gw.loads()
			for i, osn := range called {
				switch hung := tc.calls[i] == "hang"; {
				case hung && (!lt.Healthy(osn) || lt.InFlight(osn) != 0):
					t.Errorf("hung %s: healthy %v, in flight %d; want aborted, not marked down", osn, lt.Healthy(osn), lt.InFlight(osn))
				case !hung && lt.Healthy(osn):
					t.Errorf("refusing %s was not marked down", osn)
				}
			}
		})
	}
}

// TestSubmitStartsNoGoroutine submits 1 000 staged transactions and then
// 1 000 SubmitAsync ones that nobody awaits, under an ordering timeout
// none of them reaches: a pending commit must cost no goroutine, and a
// SubmitAsync attempt's goroutine must end once its broadcast is acked.
// The modeled client costs are zeroed: the test counts goroutines, not
// client CPU time.
func TestSubmitStartsNoGoroutine(t *testing.T) {
	s := newStubNet(t, func(cfg *Config) {
		cfg.Model.OrderTimeout = time.Hour
		zeroClientCosts(cfg)
	}, nil)
	ctx := context.Background()
	submit := func() {
		prop, err := s.gw.Propose(ctx, "", "bench", "write", writeArgs)
		if err != nil {
			t.Fatal(err)
		}
		txn, err := prop.Endorse(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := txn.Submit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	submit() // subscribes and starts the stubs' handler workers
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		submit()
	}
	if grown := runtime.NumGoroutine() - before; grown > 50 {
		t.Fatalf("1 000 pending commits grew the goroutine count by %d", grown)
	}
	if n := s.gw.pendingCount(); n != 1001 {
		t.Fatalf("pending = %d, want 1001", n)
	}
	for i := 0; i < 1000; i++ {
		if _, err := s.gw.SubmitAsync(ctx, "", "bench", "write", writeArgs); err != nil {
			t.Fatal(err)
		}
	}
	// The attempts run in the background; give them time to be acked.
	// They ran side by side, so the stub peer's and orderer's endpoints
	// may each keep up to 64 parked handler workers: the bound allows
	// those, and is far below one goroutine per pending commit.
	const asyncBound = 200
	simtest.Until(10*time.Second, func() bool {
		return runtime.NumGoroutine()-before <= asyncBound && s.gw.pendingCount() == 2001
	})
	if grown := runtime.NumGoroutine() - before; grown > asyncBound {
		t.Fatalf("1 000 pending SubmitAsync commits grew the goroutine count by %d, want <= %d", grown, asyncBound)
	}
	if n := s.gw.pendingCount(); n != 2001 {
		t.Fatalf("pending = %d, want 2001", n)
	}
}

// zeroClientCosts zeroes the modeled client costs, for tests that count
// goroutines or calls, not client CPU time.
func zeroClientCosts(cfg *Config) {
	cfg.Model.ClientBaseLatency = 0
	cfg.Model.ClientPerTxCPU = 0
	cfg.Model.ClientPerEndorsementCPU = 0
}

// endorseConcurrently proposes and endorses n transactions at once on
// the gateway's default policy and returns the first error.
func endorseConcurrently(ctx context.Context, g *Gateway, n int) error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			prop, err := g.Propose(ctx, "", "bench", "write", writeArgs)
			if err == nil {
				_, err = prop.Endorse(ctx)
			}
			errs <- err
		}()
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TestCloseEndsFanOutWorkers fans out five-target endorsements from
// eight goroutines at once, so the gateway parks several workers, then
// closes the gateway, which must still endorse, one target at a time,
// and the network: no goroutine may be left.
func TestCloseEndsFanOutWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	s := newStubNet(t, zeroClientCosts, func(s *stubNet) { s.endorsers = 5 })
	ctx := context.Background()
	if err := endorseConcurrently(ctx, s.gw, 8); err != nil {
		t.Fatal(err)
	}
	s.gw.Close()
	if err := endorseConcurrently(ctx, s.gw, 2); err != nil {
		t.Fatalf("endorse after Close: %v", err)
	}
	s.net.Close()
	s.gw.cfg.CPU.Stop()
	if !simtest.Until(5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		after := runtime.NumGoroutine()
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines after Close, %d before the network:\n%s", after, before, buf[:runtime.Stack(buf, true)])
	}
}

// TestFanOutConcurrencyUnbounded runs 200 five-target endorsements at
// once against stub endorsers that answer only once all 1 000 endorse
// calls have arrived, 800 of them fanned out to the gateway's workers:
// the endorsements complete only if the gateway runs every fan-out job
// at once. A pool that bounds its busy workers deadlocks here.
func TestFanOutConcurrencyUnbounded(t *testing.T) {
	const txs, targets = 200, 5
	const calls = txs * targets
	var arrived atomic.Int32
	all := make(chan struct{})
	s := newStubNet(t, zeroClientCosts, func(s *stubNet) {
		s.endorsers = targets
		s.respond = func(ctx context.Context, _ string, req *peer.EndorseRequest) (*types.ProposalResponse, error) {
			if arrived.Add(1) == calls {
				close(all)
			}
			select {
			case <-all:
			case <-ctx.Done(): // the network closed on a failed test
				return nil, ctx.Err()
			}
			return &types.ProposalResponse{TxID: req.Proposal.TxID, Status: 200, Results: &types.RWSet{}}, nil
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- endorseConcurrently(ctx, s.gw, txs) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%d of %d endorse calls arrived: %v", arrived.Load(), calls, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("only %d of %d endorse calls arrived", arrived.Load(), calls)
	}
}

// TestStaleExpiryNeverExpiresNextAttempt runs a transaction whose first
// attempt conflicts after its ack, so the attempt's ordering deadline
// stays queued, and whose second attempt commits after that deadline
// but within its own. The first attempt's deadline must not time the
// second out: the transaction commits on its second attempt. The time
// scale makes the ordering timeout 300 ms of wall time, and the second
// attempt's ack comes half of that after the first's.
func TestStaleExpiryNeverExpiresNextAttempt(t *testing.T) {
	var pushes sync.WaitGroup
	t.Cleanup(pushes.Wait) // before the network closes
	var s *stubNet
	s = newStubNet(t, func(cfg *Config) {
		cfg.Model.TimeScale = 0.1
		cfg.Model.ClientBaseLatency = 0
		cfg.Retry = RetryConfig{MaxAttempts: 2, InitialBackoff: time.Millisecond}
	}, func(sn *stubNet) {
		sn.onBroadcast = func(n int, id types.TxID) error {
			timeout := s.gw.cfg.Model.ScaledDelay(s.gw.cfg.Model.OrderTimeout)
			code, after := types.ValidationMVCCConflict, time.Millisecond
			if n == 2 {
				time.Sleep(timeout / 2)
				code, after = types.ValidationValid, timeout*3/4
			}
			pushes.Add(1)
			time.AfterFunc(after, func() {
				defer pushes.Done()
				_ = sn.pushCommit(id, code)
			})
			return nil
		}
	})
	st, err := s.gw.Invoke(context.Background(), "", "bench", "write", writeArgs)
	if err != nil || !st.Committed {
		t.Fatalf("status = %+v, %v; want the second attempt committed", st, err)
	}
	if n := s.broadcasts.Load(); n != 2 {
		t.Fatalf("broadcasts = %d, want 2", n)
	}
}

// TestConnectRetriesAfterSubscribeFailure refuses the first event
// subscription: the Invoke that hit it fails, and the next one
// subscribes again and commits.
func TestConnectRetriesAfterSubscribeFailure(t *testing.T) {
	s := newStubNet(t, nil, func(sn *stubNet) {
		sn.subscribeFailures.Store(1)
		sn.commitCode = func(int, types.TxID) types.ValidationCode { return types.ValidationValid }
	})
	ctx := context.Background()
	if _, err := s.gw.Invoke(ctx, "", "bench", "write", writeArgs); err == nil {
		t.Fatal("Invoke succeeded although the event subscription was refused")
	}
	st, err := s.gw.Invoke(ctx, "", "bench", "write", writeArgs)
	if err != nil || !st.Committed {
		t.Fatalf("second Invoke: status = %+v, %v", st, err)
	}
}

func TestBadCommitEventPayload(t *testing.T) {
	s := newStubNet(t, nil, nil)
	if _, _, err := s.gw.handleCommitEvents(context.Background(), "peer1", "not-events"); err == nil {
		t.Error("bad payload accepted")
	}
}

func TestSubmitAsyncResolves(t *testing.T) {
	s := newStubNet(t, nil, func(s *stubNet) {
		s.commitCode = func(int, types.TxID) types.ValidationCode { return types.ValidationValid }
	})
	ctx := context.Background()
	cmt, err := s.gw.SubmitAsync(ctx, "", "bench", "write", writeArgs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cmt.Status(ctx)
	if err != nil || !st.Committed {
		t.Fatalf("status = %+v, %v", st, err)
	}
	if cmt.TxID() != st.TxID || s.broadcasts.Load() != 1 {
		t.Fatalf("TxID = %q for status %q after %d broadcasts", cmt.TxID(), st.TxID, s.broadcasts.Load())
	}
	if n := s.gw.pendingCount(); n != 0 {
		t.Fatalf("pending entries leaked: %d", n)
	}
}

func TestTrySubmitAsyncWindowFull(t *testing.T) {
	s := newStubNet(t, nil, func(s *stubNet) { s.endorseDelay = 50 * time.Millisecond })
	s.gw.SetMaxInFlight(1)
	ctx := context.Background()
	first, err := s.gw.TrySubmitAsync(ctx, "", "bench", "write", [][]byte{[]byte("k"), []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.gw.TrySubmitAsync(ctx, "", "bench", "write", [][]byte{[]byte("k2"), []byte("v")}); !errors.Is(err, ErrWindowFull) {
		t.Fatalf("second submit err = %v, want ErrWindowFull", err)
	}
	// Drain the first so the cleanup doesn't race the in-flight tx.
	if _, err := first.Status(ctx); !errors.Is(err, ErrOrderingTimeout) {
		t.Fatalf("first status err = %v", err)
	}
}

func TestSetMaxInFlightResizesWindow(t *testing.T) {
	s := newStubNet(t, nil, nil)
	if got := cap(s.gw.currentWindow()); got != DefaultMaxInFlight {
		t.Fatalf("default window = %d", got)
	}
	s.gw.SetMaxInFlight(7)
	if got := cap(s.gw.currentWindow()); got != 7 {
		t.Fatalf("window = %d after SetMaxInFlight(7)", got)
	}
}

func TestEvaluateChargesCostModel(t *testing.T) {
	s := newStubNet(t, nil, nil)
	model := costmodel.Default(0.01)
	start := time.Now()
	out, err := s.gw.Evaluate(context.Background(), "bench", "read", [][]byte{[]byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "payload" {
		t.Fatalf("payload = %q", out)
	}
	// The query must pay at least the SDK base latency plus the client
	// CPU cost — it may not return in ~zero time like the old Query.
	floor := model.ScaledDelay(model.ClientBaseLatency)
	if elapsed := time.Since(start); elapsed < floor {
		t.Fatalf("query returned in %v, below the %v cost-model floor", elapsed, floor)
	}
}

// TestNonceMatchesSprintf holds the appended nonce to the formatted one
// it replaced, "<gateway ID>-<counter>", at counters 0, 1 and the
// largest, and checks its capacity ends with it.
func TestNonceMatchesSprintf(t *testing.T) {
	s := newStubNet(t, nil, nil)
	for _, n := range []uint64{0, 1, math.MaxUint64} {
		p := &Proposal{channel: "perf"}
		if err := s.gw.buildProposal(p, n, "bench", "write", writeArgs); err != nil {
			t.Fatal(err)
		}
		prop := &p.prop
		if want := fmt.Sprintf("%s-%d", s.gw.cfg.ID, n); string(prop.Nonce) != want {
			t.Errorf("nonce = %q, want %q", prop.Nonce, want)
		}
		if cap(prop.Nonce) != len(prop.Nonce) {
			t.Errorf("nonce %q: capacity %d, want its length", prop.Nonce, cap(prop.Nonce))
		}
		if want := types.ComputeTxID(prop.Nonce, prop.Creator); prop.TxID != want {
			t.Errorf("TxID = %s, want %s", prop.TxID, want)
		}
	}
}

// TestSubmitAsyncNoncesFollowCallOrder submits n transactions back to
// back on an eight-core client and requires the i-th call's proposal to
// carry nonce "gw1-i": the number is taken on the caller's goroutine,
// not by whichever attempt leaves the client CPU charge first.
func TestSubmitAsyncNoncesFollowCallOrder(t *testing.T) {
	const n = 32
	s := newStubNet(t, func(cfg *Config) {
		cfg.CPU = simcpu.New(8, cfg.Model.TimeScale)
		t.Cleanup(cfg.CPU.Stop)
	}, func(s *stubNet) {
		s.commitCode = func(int, types.TxID) types.ValidationCode { return types.ValidationValid }
	})
	ctx := context.Background()
	if err := s.gw.Connect(ctx); err != nil {
		t.Fatal(err)
	}
	commits := make([]*Commit, n)
	for i := range commits {
		c, err := s.gw.SubmitAsync(ctx, "", "bench", "write", writeArgs)
		if err != nil {
			t.Fatal(err)
		}
		commits[i] = c
	}
	creator := s.gw.cfg.Identity.Serialized()
	for i, c := range commits {
		st, err := c.Status(ctx)
		if err != nil {
			t.Fatalf("call %d: %v", i+1, err)
		}
		if want := types.ComputeTxID([]byte(fmt.Sprintf("gw1-%d", i+1)), creator); st.TxID != want {
			t.Errorf("call %d committed %s, want the TxID of nonce gw1-%d (%s)", i+1, st.TxID, i+1, want)
		}
	}
}

// newCommittingStub is a stub network of the given number of endorsers
// whose orderer commits every broadcast as valid.
func newCommittingStub(tb testing.TB, endorsers int) *stubNet {
	return newStubNet(tb, nil, func(s *stubNet) {
		s.endorsers = endorsers
		s.commitCode = func(int, types.TxID) types.ValidationCode { return types.ValidationValid }
	})
}

// TestInvokeAllocs pins the allocations of one closed-loop Invoke on the
// stub network, the stubs' own included. It read 51 while each commit
// had a waiter goroutine, channel and timer and each proposal a
// formatted nonce and scratch slices, 35 without them, 18 once one
// Commit served every attempt and the proposal and commit held their
// own buffers, and 16 once the envelope's client message and signature
// lived in the proposal (go1.24); the bound leaves 3 for the toolchain's
// own timer and context allocations.
func TestInvokeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	s := newCommittingStub(t, 1)
	ctx := context.Background()
	invoke := func() {
		if _, err := s.gw.Invoke(ctx, "", "bench", "write", writeArgs); err != nil {
			t.Fatal(err)
		}
	}
	invoke()
	if allocs := testing.AllocsPerRun(200, invoke); allocs > 19 {
		t.Errorf("Invoke: %.1f allocations, want <= 19", allocs)
	}
}

// TestInvokeFiveTargetsAllocs pins one closed-loop Invoke under AND over
// five stub endorsers, the stubs' own included, at 34. Four of the five
// calls are fan-out jobs on parked workers. It read 41 when the fan-out
// started a goroutine per extra target and allocated its WaitGroup, and
// the envelope's client message and signature were allocations of their
// own (go1.24); the bound leaves 3 for the toolchain's own timer and
// context allocations.
func TestInvokeFiveTargetsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	s := newCommittingStub(t, 5)
	ctx := context.Background()
	invoke := func() {
		if _, err := s.gw.Invoke(ctx, "", "bench", "write", writeArgs); err != nil {
			t.Fatal(err)
		}
	}
	invoke()
	if allocs := testing.AllocsPerRun(200, invoke); allocs > 37 {
		t.Errorf("Invoke on five targets: %.1f allocations, want <= 37", allocs)
	}
}

func BenchmarkInvoke(b *testing.B) {
	s := newCommittingStub(b, 1)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.gw.Invoke(ctx, "", "bench", "write", writeArgs); err != nil {
			b.Fatal(err)
		}
	}
}
