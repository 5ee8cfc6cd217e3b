// Package workload drives transaction load through the gateway's
// asynchronous submission API in two shapes:
//
//   - OpenLoop reproduces the paper's experiment driver: a target
//     arrival rate split across the client processes (Fig. 1's per-peer
//     load fractions), with new transactions issued without waiting for
//     the responses of previous ones (Section IV-A, design principle 3).
//     Arrivals that find the in-flight window full are dropped, so the
//     generator's rate is never coupled to the network's service rate.
//
//   - Pipeline is the windowed closed loop the Gateway API enables: each
//     client keeps exactly W transactions in flight and submits the next
//     the moment one resolves. W=1 is the legacy blocking SDK life cycle
//     (one thread, one transaction); growing W measures how much
//     throughput the staged API recovers from the same client process.
package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/gateway"
)

// Mode selects how load is generated.
type Mode uint8

// Load-generation modes.
const (
	// OpenLoop issues arrivals at Config.Rate regardless of completions.
	OpenLoop Mode = iota + 1
	// Pipeline keeps Config.Window transactions in flight per client.
	Pipeline
)

// Config parameterizes one load run.
type Config struct {
	// Mode selects open-loop (rate-driven) or pipeline (window-driven)
	// generation (default OpenLoop).
	Mode Mode
	// Rate is the aggregate arrival rate in transactions per second of
	// model time (OpenLoop only).
	Rate float64
	// Window is the per-client in-flight window (Pipeline only,
	// default 1 — the legacy blocking SDK loop).
	Window int
	// Duration is the run length in model time.
	Duration time.Duration
	// TxSize is the value size written per transaction (the paper's
	// transaction-size parameter, default 1 byte).
	TxSize int
	// Model supplies the time scale.
	Model costmodel.Model
	// Fn names the bench chaincode function each transaction invokes
	// (default "write").
	Fn string
	// KeySpace is the number of distinct keys written (default: one
	// fresh key per tx, i.e. no write contention, matching the paper's
	// system-level workload).
	KeySpace int
	// ZipfS skews key popularity within KeySpace with a Zipfian
	// distribution of parameter s (must be > 1 when set; rank-0 keys are
	// the hottest). Zero keeps the uniform key choice. Larger s
	// concentrates more of the load on fewer keys — the contention axis
	// of the conflict-aware ordering experiments.
	ZipfS float64
	// Profile selects a canned multi-op workload instead of the single
	// bench chaincode Fn invocation. Supported: ProfileSmallBank, which
	// drives the SmallBank chaincode's read-modify-write mix over
	// KeySpace accounts (default 1000), with per-account popularity
	// skewed by ZipfS.
	Profile string
	// Seed makes key choice reproducible.
	Seed int64
	// MaxInFlight caps outstanding transactions per client in OpenLoop
	// mode to bound memory at extreme overload
	// (0 = gateway.DefaultMaxInFlight).
	MaxInFlight int
	// Channels, when non-empty, spreads transactions across the named
	// channels (the paper's channel-scaling axis) by each client's call
	// numbers, as nextCall says; empty uses each client's default
	// channel.
	Channels []string
}

func (c *Config) applyDefaults() error {
	if c.Mode == 0 {
		c.Mode = OpenLoop
	}
	switch c.Mode {
	case OpenLoop:
		if c.Rate <= 0 {
			return fmt.Errorf("workload: non-positive rate %f", c.Rate)
		}
	case Pipeline:
		if c.Window < 1 {
			c.Window = 1
		}
	default:
		return fmt.Errorf("workload: unknown mode %d", c.Mode)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("workload: non-positive duration %s", c.Duration)
	}
	switch c.Profile {
	case "":
	case ProfileSmallBank:
		if c.KeySpace <= 0 {
			c.KeySpace = 1000
		}
	default:
		return fmt.Errorf("workload: unknown profile %q", c.Profile)
	}
	if c.Fn == "" {
		c.Fn = "write"
	}
	if c.ZipfS != 0 {
		if c.ZipfS <= 1 {
			return fmt.Errorf("workload: ZipfS must be > 1, got %f", c.ZipfS)
		}
		if c.KeySpace < 2 {
			return fmt.Errorf("workload: ZipfS needs KeySpace >= 2, got %d", c.KeySpace)
		}
	}
	if c.TxSize < 1 {
		c.TxSize = 1
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = gateway.DefaultMaxInFlight
	}
	return nil
}

// chaincode names the chaincode the profile invokes.
func (c *Config) chaincode() string {
	if c.Profile == ProfileSmallBank {
		return "smallbank"
	}
	return "bench"
}

// Stats summarizes a finished run.
type Stats struct {
	Submitted int64
	Succeeded int64
	Failed    int64
	// Skipped counts open-loop arrivals dropped because the in-flight
	// window was full (severe overload only).
	Skipped int64
}

// runState is the shared bookkeeping of one load run. Counters are
// atomic.Int64 (not Stats directly) so their 64-bit alignment is
// guaranteed on 32-bit platforms too.
type runState struct {
	cfg   Config
	value []byte

	submitted atomic.Int64
	succeeded atomic.Int64
	failed    atomic.Int64
	skipped   atomic.Int64
}

// snapshot reduces the counters into the exported Stats shape.
func (st *runState) snapshot() Stats {
	return Stats{
		Submitted: st.submitted.Load(),
		Succeeded: st.succeeded.Load(),
		Failed:    st.failed.Load(),
		Skipped:   st.skipped.Load(),
	}
}

// Run drives the client gateways in the configured mode and blocks
// until all in-flight transactions resolve (commit, rejection, or
// timeout).
func Run(ctx context.Context, gateways []*gateway.Gateway, cfg Config) (Stats, error) {
	if len(gateways) == 0 {
		return Stats{}, fmt.Errorf("workload: no gateways")
	}
	if err := cfg.applyDefaults(); err != nil {
		return Stats{}, err
	}

	st := &runState{cfg: cfg, value: make([]byte, cfg.TxSize)}
	for i := range st.value {
		st.value[i] = byte('a' + i%26)
	}

	var wg sync.WaitGroup
	for ci, gw := range gateways {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch cfg.Mode {
			case Pipeline:
				st.runPipelineClient(ctx, gw, ci, len(gateways))
			default:
				st.runOpenLoopClient(ctx, gw, ci, len(gateways))
			}
		}()
	}
	wg.Wait()
	return st.snapshot(), ctx.Err()
}

// ProfileSmallBank names the SmallBank mixed-operation workload profile.
const ProfileSmallBank = "smallbank"

// txgen is one client's transaction generator: a seeded rng, the
// optional Zipfian popularity skew over the key space, and the client's
// own call numbering.
type txgen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	// seq numbers the client's next call; it steps by the client count,
	// so client ci of N numbers its calls ci+1, ci+1+N, ci+1+2N, ...
	seq, stride int
}

// newGen builds client ci's generator, of numClients, with the run's
// deterministic per-client seed.
func (st *runState) newGen(ci, numClients int) *txgen {
	rng := rand.New(rand.NewSource(st.cfg.Seed + int64(ci)*7919 + 1))
	g := &txgen{rng: rng, seq: ci + 1, stride: numClients}
	if st.cfg.ZipfS > 1 && st.cfg.KeySpace > 1 {
		g.zipf = rand.NewZipf(rng, st.cfg.ZipfS, 1, uint64(st.cfg.KeySpace-1))
	}
	return g
}

// pick draws one key index from [0, keySpace): Zipf-skewed when
// configured (index 0 hottest), uniform otherwise.
func (g *txgen) pick(keySpace int) int {
	if g.zipf != nil {
		return int(g.zipf.Uint64())
	}
	return g.rng.Intn(keySpace)
}

// nextCall picks the next transaction's channel, function, and
// arguments. They depend only on the seed, the client's index and the
// client count, never on how the clients' calls interleave: the call's
// number picks its channel and names its fresh key. With equal call
// counts per client the fresh keys are still k1...kN. When the client
// count is a multiple of the channel count (16 clients on 1, 2, 4 or 8
// channels), each client sends to one channel and the clients split
// evenly over the channels.
func (st *runState) nextCall(g *txgen) (channel, fn string, args [][]byte) {
	seq := g.seq
	g.seq += g.stride
	if len(st.cfg.Channels) > 0 {
		channel = st.cfg.Channels[seq%len(st.cfg.Channels)]
	}
	if st.cfg.Profile == ProfileSmallBank {
		fn, args = st.nextSmallBank(g)
		return channel, fn, args
	}
	key := fmt.Sprintf("k%d", seq)
	if st.cfg.KeySpace > 0 {
		key = fmt.Sprintf("k%d", g.pick(st.cfg.KeySpace))
	}
	return channel, st.cfg.Fn, [][]byte{[]byte(key), st.value}
}

// nextSmallBank draws one operation from the SmallBank mix: 15%
// deposit, 15% transact (savings), 25% send-payment, 15% write-check,
// 15% amalgamate, 15% balance query — the write-heavy RMW mix of the
// original suite. Account popularity follows the generator's key
// distribution.
func (st *runState) nextSmallBank(g *txgen) (string, [][]byte) {
	acct := []byte(fmt.Sprintf("a%d", g.pick(st.cfg.KeySpace)))
	switch r := g.rng.Intn(100); {
	case r < 15:
		return "deposit", [][]byte{acct, []byte("10")}
	case r < 30:
		return "transact", [][]byte{acct, []byte("10")}
	case r < 55:
		to := []byte(fmt.Sprintf("a%d", g.pick(st.cfg.KeySpace)))
		return "sendpayment", [][]byte{acct, to, []byte("5")}
	case r < 70:
		return "writecheck", [][]byte{acct, []byte("5")}
	case r < 85:
		to := []byte(fmt.Sprintf("a%d", g.pick(st.cfg.KeySpace)))
		return "amalgamate", [][]byte{acct, to}
	default:
		return "query", [][]byte{acct}
	}
}

// await counts one commit future's resolution.
func (st *runState) await(cmt *gateway.Commit, cwg *sync.WaitGroup) {
	st.submitted.Add(1)
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		// The future resolves within the ordering timeout even after
		// the run context ends, so the drain below is bounded.
		if _, err := cmt.Status(context.Background()); err != nil {
			st.failed.Add(1)
			return
		}
		st.succeeded.Add(1)
	}()
}

// runOpenLoopClient fires arrivals at the client's rate share and drops
// the ones that find the in-flight window full.
func (st *runState) runOpenLoopClient(ctx context.Context, gw *gateway.Gateway, ci, numClients int) {
	cfg := st.cfg
	gw.SetMaxInFlight(cfg.MaxInFlight)
	gen := st.newGen(ci, numClients)
	perClientRate := cfg.Rate / float64(numClients)
	meanGap := time.Duration(float64(time.Second) / perClientRate)
	wallGap := cfg.Model.ScaledDelay(meanGap)
	var cwg sync.WaitGroup

	end := time.Now().Add(cfg.Model.ScaledDelay(cfg.Duration))
	next := time.Now()
	for time.Now().Before(end) {
		if ctx.Err() != nil {
			break
		}
		// Open loop: sleep to the next arrival, then fire without
		// waiting for the previous response.
		next = next.Add(wallGap)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		channel, fn, args := st.nextCall(gen)
		cmt, err := gw.TrySubmitAsync(ctx, channel, cfg.chaincode(), fn, args)
		if err != nil {
			if errors.Is(err, gateway.ErrWindowFull) {
				st.skipped.Add(1)
				continue
			}
			break // context canceled
		}
		st.await(cmt, &cwg)
	}
	cwg.Wait()
}

// runPipelineClient keeps Window transactions in flight: SubmitAsync
// blocks exactly while the window is full, so each completion
// immediately admits the next submission.
func (st *runState) runPipelineClient(ctx context.Context, gw *gateway.Gateway, ci, numClients int) {
	cfg := st.cfg
	gw.SetMaxInFlight(cfg.Window)
	gen := st.newGen(ci, numClients)
	var cwg sync.WaitGroup

	end := time.Now().Add(cfg.Model.ScaledDelay(cfg.Duration))
	for time.Now().Before(end) {
		if ctx.Err() != nil {
			break
		}
		channel, fn, args := st.nextCall(gen)
		cmt, err := gw.SubmitAsync(ctx, channel, cfg.chaincode(), fn, args)
		if err != nil {
			break // context canceled
		}
		st.await(cmt, &cwg)
	}
	cwg.Wait()
}
