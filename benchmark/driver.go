package main

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"fabricsim/internal/chaincode"
	"fabricsim/internal/fabnet"
	"fabricsim/internal/gateway"
	"fabricsim/internal/types"
)

// outcomeKind classifies how one transaction ended for its client.
type outcomeKind uint8

const (
	// outcomeValid: committed with a valid code.
	outcomeValid outcomeKind = iota
	// outcomeConflict: ordered and recorded on the ledger as an MVCC
	// conflict or an early abort, after any retries.
	outcomeConflict
	// outcomeRefused: the chaincode refused the operation at
	// endorsement (SmallBank's insufficient-funds rule).
	outcomeRefused
	// outcomeError: anything else — ordering timeout, dropped on a full
	// window, endorsement or broadcast error, any other invalid code.
	outcomeError
)

// txResult is one resolved transaction as its client saw it.
type txResult struct {
	// txID and code are the final attempt's; txID is empty when no
	// proposal was ever built.
	txID types.TxID
	code types.ValidationCode
	kind outcomeKind
	// due is when the transaction was due to be sent (open loop) or was
	// sent (closed loop); done is when its future resolved.
	due, done time.Time
	attempts  int
	err       error
}

func classify(st *gateway.Status, err error) (outcomeKind, types.ValidationCode) {
	var code types.ValidationCode
	if st != nil {
		code = st.Code
	}
	switch {
	case err == nil:
		return outcomeValid, code
	case gateway.Retryable(err):
		return outcomeConflict, code
	case errors.Is(err, gateway.ErrEndorsementFailed) &&
		strings.Contains(err.Error(), chaincode.ErrInsufficientFunds.Error()):
		return outcomeRefused, code
	default:
		return outcomeError, code
	}
}

// allowed reports whether the workload admits this outcome. Conflict
// aborts and chaincode refusals are what the contended workload exists
// to produce; on the conflict-free workloads only a valid commit is.
func (w workload) allowed(k outcomeKind) bool {
	return k == outcomeValid || (w.smallbank && k != outcomeError)
}

// lane is one simulated client's submission path.
type lane interface {
	// setWindow bounds the client's in-flight transactions; call it
	// between phases, never while transactions are in flight.
	setWindow(n int)
	// begin starts one transaction. With wait set it blocks while the
	// window is full; otherwise a full window fails with
	// gateway.ErrWindowFull. The returned function blocks until the
	// transaction resolves.
	begin(ctx context.Context, c call, wait bool) (func() txResult, error)
}

// asyncLane submits through the gateway's own pipelined path, which
// owns the in-flight window and the conflict-retry loop.
type asyncLane struct{ gw *gateway.Gateway }

func (l asyncLane) setWindow(n int) { l.gw.SetMaxInFlight(n) }

func (l asyncLane) begin(ctx context.Context, c call, wait bool) (func() txResult, error) {
	submit := l.gw.TrySubmitAsync
	if wait {
		submit = l.gw.SubmitAsync
	}
	cm, err := submit(ctx, "", c.chaincode, c.fn, c.args)
	if err != nil {
		return nil, err
	}
	return func() txResult {
		st, err := cm.Status(context.Background())
		kind, code := classify(st, err)
		return txResult{txID: cm.TxID(), code: code, kind: kind, done: time.Now(), err: err}
	}, nil
}

func asyncLanes(net *fabnet.Network) []lane {
	lanes := make([]lane, len(net.Gateways))
	for i, gw := range net.Gateways {
		lanes[i] = asyncLane{gw}
	}
	return lanes
}

// hostSnapshot is the process's cumulative host cost at one instant.
type hostSnapshot struct {
	at         time.Time
	cpu        time.Duration // user + system
	allocBytes uint64
	mallocs    uint64
	gcPause    time.Duration
}

func takeHostSnapshot() hostSnapshot {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSnapshot{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

// phaseResult is everything one load phase observed.
type phaseResult struct {
	// before and after bracket the measured window: the warm-up is over
	// at before.at and the generators stop at after.at.
	before, after hostSnapshot
	// results holds every transaction of the phase, warm-up included.
	results []txResult
	// lateness is how late the open-loop generators fired each arrival
	// due inside the window.
	lateness       []time.Duration
	goroutinesPeak int
}

func (p *phaseResult) inWindow(t time.Time) bool {
	return !t.Before(p.before.at) && t.Before(p.after.at)
}

func (p *phaseResult) wall() time.Duration { return p.after.at.Sub(p.before.at) }

// cpuShare is the process CPU used inside the window as a share of the
// host's cores.
func (p *phaseResult) cpuShare() float64 {
	return float64(p.after.cpu-p.before.cpu) / (float64(p.wall()) * float64(runtime.NumCPU()))
}

// phaseRun is the bookkeeping shared by both loop shapes.
type phaseRun struct {
	mu      sync.Mutex
	res     phaseResult
	pending sync.WaitGroup
}

func (r *phaseRun) record(t txResult) {
	r.mu.Lock()
	r.res.results = append(r.res.results, t)
	r.mu.Unlock()
}

// await records the transaction's outcome once it resolves.
func (r *phaseRun) await(due time.Time, wait func() txResult) {
	r.pending.Add(1)
	go func() {
		defer r.pending.Done()
		out := wait()
		out.due = due
		r.record(out)
	}()
}

// watch takes the host snapshots at the window's edges and samples the
// goroutine count; it returns when the window closes.
func (r *phaseRun) watch(windowStart, windowEnd time.Time) {
	time.Sleep(time.Until(windowStart))
	before := takeHostSnapshot()
	peak := 0
	for time.Now().Before(windowEnd) {
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
		time.Sleep(20 * time.Millisecond)
	}
	after := takeHostSnapshot()
	r.mu.Lock()
	r.res.before, r.res.after, r.res.goroutinesPeak = before, after, peak
	r.mu.Unlock()
}

// closedLoop keeps window transactions in flight on every client for
// length of wall time and measures the part after warm. It returns once
// every transaction has resolved.
func closedLoop(ctx context.Context, lanes []lane, gens []*generator, window int, length, warm time.Duration) *phaseResult {
	var run phaseRun
	start := time.Now()
	end := start.Add(length)
	var clients sync.WaitGroup
	for i := range lanes {
		ln, gen := lanes[i], gens[i]
		ln.setWindow(window)
		clients.Add(1)
		go func() {
			defer clients.Done()
			for time.Now().Before(end) {
				wait, err := ln.begin(ctx, gen.next(), true)
				if err != nil {
					return // context cancelled
				}
				run.await(time.Now(), wait)
			}
		}()
	}
	run.watch(start.Add(warm), end)
	clients.Wait()
	run.pending.Wait()
	return &run.res
}

// openWindow bounds each client's in-flight transactions in the open
// loop: far above rate x timeout, so it only fills if the program stops
// resolving transactions.
const openWindow = 1024

// openLoop offers rate transactions per model-second on a uniform
// schedule split evenly across the clients, regardless of completions.
func openLoop(ctx context.Context, lanes []lane, gens []*generator, rate float64, length, warm time.Duration) *phaseResult {
	var run phaseRun
	start := time.Now()
	end := start.Add(length)
	windowStart := start.Add(warm)
	// One arrival every gap across all clients; client i takes every
	// len(lanes)-th one, offset by i.
	gap := time.Duration(float64(time.Second) * timeScale / rate)
	var clients sync.WaitGroup
	for i := range lanes {
		ln, gen := lanes[i], gens[i]
		ln.setWindow(openWindow)
		offset := time.Duration(i) * gap
		clients.Add(1)
		go func() {
			defer clients.Done()
			runSchedule(wallClock{}, start, offset, gap*time.Duration(len(lanes)), end, func(due time.Time, late time.Duration) {
				if !due.Before(windowStart) {
					run.mu.Lock()
					run.res.lateness = append(run.res.lateness, late)
					run.mu.Unlock()
				}
				wait, err := ln.begin(ctx, gen.next(), false)
				if err != nil { // dropped on a full window
					run.record(txResult{kind: outcomeError, due: due, done: time.Now(), err: err})
					return
				}
				run.await(due, wait)
			})
		}()
	}
	run.watch(windowStart, end)
	clients.Wait()
	run.pending.Wait()
	return &run.res
}
